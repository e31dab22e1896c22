"""Differential oracle stack: golden interpreter vs cycle-exact pipeline.

One generated (or shrunk) program goes through three tiers:

1. **assemble** — :func:`repro.isa.data_directives.assemble_unit`; a
   rejected source is a ``crash:AssemblerError`` (shrink candidates hit
   this constantly; generated programs never should);
2. **golden interpreter** — sequential architectural execution with a
   step budget (``hang:InterpreterTimeout`` on exhaustion);
3. **pipeline** — the cycle-exact machine under a named mode with the
   runtime invariant auditor on, then an architectural diff of the
   committed registers and the full memory image against the
   interpreter's final state.

The outcome carries two identifiers:

* ``signature`` — the *full* triage key (exception type, invariant
  family, or first-divergent-location fingerprint).  Campaigns dedup
  unique bugs by this string.
* ``shrink_key`` — the signature with location indices stripped
  (``divergence:register:r7`` → ``divergence:register``).  The shrinker
  matches on this relaxed key so a reduction step that shifts *where*
  the same bug bites does not abort the reduction.

Classification statuses: ``pass`` / ``divergence`` / ``invariant`` /
``hang`` / ``crash``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import Pipeline, SimulationError
from ..harness.runner import make_config
from ..isa import (
    AssemblerError,
    InterpreterError,
    InterpreterTimeout,
    run_program,
)
from ..memory.memory_image import MemoryImage
from ..verify import InvariantViolation

#: Step budget for the golden interpreter: generous relative to what a
#: ``max_cycles``-bounded pipeline can commit, tight enough that a
#: non-terminating generated program fails fast.
DEFAULT_MAX_STEPS = 500_000

#: Cycle watchdog for the pipeline leg.
DEFAULT_MAX_CYCLES = 2_000_000

PASS = "pass"
DIVERGENCE = "divergence"
INVARIANT = "invariant"
HANG = "hang"
CRASH = "crash"

STATUSES = (PASS, DIVERGENCE, INVARIANT, HANG, CRASH)


@dataclass(frozen=True)
class OracleOutcome:
    """Classification of one program under one machine mode."""

    status: str              #: one of :data:`STATUSES`
    signature: str | None    #: full triage key; ``None`` for a pass
    detail: str              #: human-readable one-liner
    steps: int               #: interpreter instructions (0 if it never ran)
    cycles: int              #: pipeline cycles (0 if it never ran)

    @property
    def ok(self) -> bool:
        return self.status == PASS

    @property
    def shrink_key(self) -> str | None:
        """Signature relaxed for reduction: location indices stripped."""
        if self.signature is None:
            return None
        parts = self.signature.split(":")
        if parts[0] == DIVERGENCE:
            return ":".join(parts[:2])
        return self.signature

    def as_record(self) -> dict:
        return {
            "status": self.status,
            "signature": self.signature,
            "detail": self.detail,
            "steps": self.steps,
            "cycles": self.cycles,
        }

    @classmethod
    def from_record(cls, record: dict) -> "OracleOutcome":
        return cls(
            status=record["status"],
            signature=record["signature"],
            detail=record["detail"],
            steps=record["steps"],
            cycles=record["cycles"],
        )


def _clone(memory: MemoryImage) -> MemoryImage:
    return MemoryImage(memory.snapshot())


def classify_source(
    source: str,
    mode: str = "baseline",
    check_invariants: int = 64,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> OracleOutcome:
    """Run the full oracle stack over one unit source."""
    from ..isa.data_directives import assemble_unit

    try:
        unit = assemble_unit(source)
    except AssemblerError as exc:
        return OracleOutcome(CRASH, "crash:AssemblerError", str(exc), 0, 0)

    # Tier 2: golden interpreter.
    try:
        ref = run_program(unit.program, _clone(unit.memory), max_steps=max_steps)
    except InterpreterTimeout as exc:
        return OracleOutcome(
            HANG, "hang:InterpreterTimeout", str(exc), exc.steps, 0
        )
    except InterpreterError as exc:
        return OracleOutcome(CRASH, "crash:InterpreterError", str(exc), 0, 0)

    # Tier 3: cycle-exact pipeline with the invariant auditor on.
    config = make_config(mode, {"check_invariants": check_invariants})
    pipeline = Pipeline(unit.program, _clone(unit.memory), config)
    try:
        stats = pipeline.run(max_cycles=max_cycles)
    except InvariantViolation as exc:
        return OracleOutcome(
            INVARIANT,
            f"invariant:{exc.invariant}",
            str(exc),
            ref.instructions_executed,
            0,
        )
    except SimulationError as exc:
        return OracleOutcome(
            HANG, "hang:SimulationError", str(exc), ref.instructions_executed, 0
        )
    except Exception as exc:  # noqa: BLE001 — any leak is a crash finding
        return OracleOutcome(
            CRASH,
            f"crash:{type(exc).__name__}",
            str(exc),
            ref.instructions_executed,
            0,
        )
    if not pipeline.halted:
        return OracleOutcome(
            HANG,
            "hang:max-cycles",
            f"pipeline did not halt within {max_cycles} cycles",
            ref.instructions_executed,
            stats.cycles,
        )

    # Architectural diff: committed registers, then the memory image.
    for idx, (expected, got) in enumerate(
        zip(ref.registers, pipeline.committed_regs)
    ):
        if expected != got:
            return OracleOutcome(
                DIVERGENCE,
                f"divergence:register:r{idx}",
                f"r{idx}: interpreter {expected!r}, pipeline {got!r}",
                ref.instructions_executed,
                stats.cycles,
            )
    ref_mem = ref.memory.snapshot()
    got_mem = pipeline.memory.snapshot()
    for addr in sorted(set(ref_mem) | set(got_mem)):
        expected, got = ref_mem.get(addr, 0), got_mem.get(addr, 0)
        if expected != got:
            return OracleOutcome(
                DIVERGENCE,
                f"divergence:memory:{addr:#x}",
                f"mem[{addr:#x}]: interpreter {expected!r}, pipeline {got!r}",
                ref.instructions_executed,
                stats.cycles,
            )
    return OracleOutcome(
        PASS, None, "architectural state matches", ref.instructions_executed,
        stats.cycles,
    )
