"""Simulation runner: named machine configurations + result records.

The *modes* are :class:`SimConfig` presets (:data:`PRESETS`), one per
machine configuration evaluated in the paper; a run may override any
field of its mode's preset with dotted-path knobs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import Pipeline, SimConfig, SimStats
from ..core.config import ConfigError, apply_knobs
from ..crisp import CrispConfig
from ..isa import run_program
from ..obs import Observation
from ..runahead import RunaheadConfig
from ..tea import TeaConfig
from ..workloads import Workload, make_workload


class ValidationError(RuntimeError):
    """A workload's functional validator rejected the committed state.

    Carries everything needed to debug the failure from a campaign
    journal: the workload, the machine mode, and — when the sequential
    reference interpreter can reproduce the expected state — the first
    divergent architectural register or memory word.

    ``fault_context`` is the active
    :class:`~repro.verify.faults.FaultInjector` journal when the run
    had a fault plan (``None`` otherwise), so campaign journals
    attribute the corruption to the injected fault instead of a real
    model bug.  Both payloads ride on ``diagnostics``, which the
    executor ships across the worker boundary.
    """

    def __init__(
        self,
        workload: str,
        mode: str,
        divergence: dict | None,
        fault_context: dict | None = None,
    ):
        self.workload = workload
        self.mode = mode
        self.divergence = divergence
        self.fault_context = fault_context
        self.diagnostics: dict = {}
        if divergence is not None:
            self.diagnostics["divergence"] = divergence
        if fault_context is not None:
            self.diagnostics["fault_context"] = fault_context
        detail = ""
        if divergence is not None:
            where = (
                f"r{divergence['index']}"
                if divergence["kind"] == "register"
                else f"mem[{divergence['index']:#x}]"
            )
            detail = (
                f"; first divergence at {where}: "
                f"expected {divergence['expected']!r}, "
                f"got {divergence['got']!r}"
            )
        super().__init__(
            f"functional validation FAILED: {workload} under {mode}{detail}"
        )


def _first_divergence(workload: Workload, pipeline: Pipeline) -> dict | None:
    """Diff committed state against the golden interpreter.

    Returns ``{"kind": "register"|"memory", "index", "expected", "got"}``
    for the first mismatch, or ``None`` when the reference itself cannot
    run (the validator's verdict still stands either way).
    """
    try:
        ref = run_program(workload.program, workload.fresh_memory())
    except Exception:
        return None
    for idx, (expected, got) in enumerate(
        zip(ref.registers, pipeline.committed_regs)
    ):
        if expected != got:
            return {
                "kind": "register",
                "index": idx,
                "expected": expected,
                "got": got,
            }
    ref_mem = ref.memory.snapshot()
    got_mem = pipeline.memory.snapshot()
    for addr in sorted(set(ref_mem) | set(got_mem)):
        expected, got = ref_mem.get(addr, 0), got_mem.get(addr, 0)
        if expected != got:
            return {
                "kind": "memory",
                "index": addr,
                "expected": expected,
                "got": got,
            }
    return None


#: The named machine modes, each the :class:`SimConfig` of one machine
#: evaluated in the paper (``MODES`` keeps this order).
PRESETS: dict[str, SimConfig] = {
    # the aggressive 8-wide OoO core (Table I)
    "baseline": SimConfig(),
    # TEA thread, on-core resources (Fig. 5)
    "tea": SimConfig(tea=TeaConfig()),
    # TEA thread on a dedicated execution engine (Fig. 9)
    "tea_dedicated": SimConfig(tea=TeaConfig(dedicated_engine=True)),
    # TEA without early resolution: §V-B's 1.2% check
    "tea_prefetch_only": SimConfig(tea=TeaConfig(early_resolution=False)),
    # Fig. 10 ablations; "no features" is the 39%-coverage point
    "tea_only_loops": SimConfig(tea=TeaConfig(only_loops=True)),
    "tea_no_masks": SimConfig(tea=TeaConfig(use_masks=False)),
    "tea_no_mem": SimConfig(tea=TeaConfig(trace_memory=False)),
    "tea_no_features": SimConfig(tea=TeaConfig(
        only_loops=True, use_masks=False, trace_memory=False
    )),
    # the Branch Runahead comparison baseline (Fig. 8)
    "runahead": SimConfig(runahead=RunaheadConfig()),
    # CRISP/IBDA critical-slice prioritization (§II)
    "crisp": SimConfig(crisp=CrispConfig()),
}

MODES = tuple(PRESETS)


def make_config(mode: str, knobs=()) -> SimConfig:
    """The preset of ``mode`` with ``knobs`` such as
    ``{"tea.h2p_threshold": 4}`` applied (see :func:`apply_knobs`)."""
    if mode not in PRESETS:
        raise ConfigError(f"unknown mode {mode!r}")
    return apply_knobs(PRESETS[mode], knobs) if knobs else PRESETS[mode]


@dataclass
class RunResult:
    """One (workload, mode) simulation outcome."""

    workload: str
    mode: str
    stats: SimStats
    validated: bool
    halted: bool
    observation: Observation | None = None
    #: The pipeline's :class:`~repro.obs.profiler.PipelineProfiler`
    #: when the run was profiled (``profile=True``), else ``None``.
    profiler: object | None = None

    @property
    def ipc(self) -> float:
        return self.stats.ipc


def run_workload(
    workload: Workload | str,
    mode: str = "baseline",
    scale: str = "bench",
    max_cycles: int = 30_000_000,
    observe: Observation | bool | None = None,
    check_invariants: int = 0,
    fault_plan: object | None = None,
    profile: bool = False,
    knobs=(),
) -> RunResult:
    """Simulate one workload under one machine mode, to completion.

    Functional validation runs whenever the workload halted and defines
    a validator; a validation failure raises — a simulator that computes
    wrong answers must never silently produce performance numbers.

    ``observe`` attaches the :mod:`repro.obs` telemetry layer: pass an
    :class:`~repro.obs.Observation` to configure it, or ``True`` for the
    defaults; the attached hub comes back on ``RunResult.observation``.
    Observation is off by default and costs nothing when off.

    ``check_invariants=N`` audits the machine's structural invariants
    every N cycles (:mod:`repro.verify`); ``fault_plan`` attaches a
    :class:`~repro.verify.faults.FaultPlan` for deterministic fault
    injection.  Both default to off and leave the simulation
    cycle-identical when off.

    ``profile=True`` enables the per-stage wall-clock self-profiler
    (:mod:`repro.obs.profiler`); the profiler comes back on
    ``RunResult.profiler``.  Profiling never perturbs simulated state.

    ``knobs`` override fields of the mode's preset (see
    :func:`make_config`), e.g. ``{"tea.branch_mask": mask}``.
    """
    config = make_config(mode, {
        "check_invariants": check_invariants, "fault_plan": fault_plan,
        "profile": profile, **dict(knobs),
    })
    if isinstance(workload, str):
        workload = make_workload(workload, scale)
    pipeline = Pipeline(workload.program, workload.fresh_memory(), config)
    observation: Observation | None = None
    if observe is True:
        observation = Observation()
    elif observe:
        observation = observe
    if observation is not None:
        observation.attach(pipeline)
    stats = pipeline.run(max_cycles=max_cycles)
    validated = False
    if pipeline.halted and workload.validate is not None:
        validated = workload.validate(pipeline)
        if not validated:
            from ..verify.diagnostics import fault_context

            raise ValidationError(
                workload.name,
                mode,
                _first_divergence(workload, pipeline),
                fault_context=fault_context(pipeline),
            )
    return RunResult(
        workload=workload.name,
        mode=mode,
        stats=stats,
        validated=validated,
        halted=pipeline.halted,
        observation=observation,
        profiler=pipeline.profiler,
    )
