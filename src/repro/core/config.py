"""Core configuration (paper Table I) and whole-simulation config.

The defaults model the paper's aggressive 8-wide OoO baseline: 512-entry
ROB, 352 reservation stations, 400 physical registers, 12 execution
ports (6 ALU, 2 LD, 2 LD/ST, 2 FP), 12-cycle frontend, 16-wide retire.

Configs validate eagerly in ``__post_init__``: a nonsensical value
(zero-entry ROB, negative width, PRF smaller than the architectural
register file) raises :class:`ConfigError` at construction time with a
message naming the field, instead of hanging or corrupting a multi-hour
campaign run later.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace

from ..frontend.decoupled import FrontendConfig
from ..memory.hierarchy import MemoryConfig


class ConfigError(ValueError):
    """A simulation config field has a value the machine cannot run."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


_BOOLS = {"true": True, "false": False, "1": True, "0": False}


def apply_knobs(config, knobs, prefix: str = ""):
    """``config`` with ``(dotted_path, value)`` knobs applied.

    ``knobs`` is a mapping or pairs, e.g. ``("tea.h2p_threshold", 4)``.
    Each dataclass on a path is rebuilt by one :func:`dataclasses.replace`,
    so its ``__post_init__`` validates the result.  A string replacing a
    number or bool is parsed as that type (``K=V`` command-line pairs).
    A bad path or value raises :class:`ConfigError`.
    """
    names = [f.name for f in fields(config)]
    changes: dict = {}
    nested: dict = {}
    for path, value in dict(knobs).items():
        head, dot, rest = path.partition(".")
        if head not in names:
            raise ConfigError(f"unknown knob {prefix + path!r}; "
                              f"{type(config).__name__} has {', '.join(names)}")
        current = getattr(config, head)
        kind = type(current)
        if dot and not is_dataclass(current):
            raise ConfigError(f"knob {prefix + path!r}: {type(config).__name__}"
                              f".{head} is {current!r}, not a config")
        if dot:
            nested.setdefault(head, {})[rest] = value
            continue
        if isinstance(value, str) and isinstance(current, (int, float)):
            try:
                value = _BOOLS[value.lower()] if kind is bool else kind(value)
            except (KeyError, ValueError):
                raise ConfigError(f"knob {prefix + path!r}: cannot parse "
                                  f"{value!r} as {kind.__name__}") from None
        changes[head] = value
    for head, sub in nested.items():
        changes[head] = apply_knobs(getattr(config, head), sub, f"{prefix}{head}.")
    return replace(config, **changes)


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (paper Table I)."""

    fetch_width: int = 8
    rename_width: int = 8
    issue_width: int = 8
    retire_width: int = 16
    frontend_depth: int = 12        # cycles from fetch start to rename
    rob_entries: int = 512
    rs_entries: int = 352
    physical_registers: int = 400
    load_queue: int = 256
    store_queue: int = 192
    alu_ports: int = 6
    load_ports: int = 4             # 2 LD + 2 LD/ST
    store_ports: int = 2            # the 2 LD/ST ports' store side
    fp_ports: int = 2
    max_blocks_fetched_per_cycle: int = 1   # one fetch address / cycle
    frontend_buffer: int = 64               # decode-pipe backpressure bound

    @property
    def total_ports(self) -> int:
        return self.alu_ports + self.load_ports + self.fp_ports

    def __post_init__(self) -> None:
        for name in (
            "fetch_width",
            "rename_width",
            "issue_width",
            "retire_width",
            "frontend_depth",
            "rob_entries",
            "rs_entries",
            "load_queue",
            "store_queue",
            "max_blocks_fetched_per_cycle",
            "frontend_buffer",
        ):
            _require(
                getattr(self, name) >= 1,
                f"CoreConfig.{name} must be >= 1, got {getattr(self, name)}",
            )
        for name in ("alu_ports", "load_ports", "store_ports", "fp_ports"):
            _require(
                getattr(self, name) >= 0,
                f"CoreConfig.{name} must be >= 0, got {getattr(self, name)}",
            )
        _require(
            self.physical_registers >= 2,
            f"CoreConfig.physical_registers must be >= 2 (the zero preg "
            f"plus at least one allocatable preg), got "
            f"{self.physical_registers}",
        )


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulation configuration.

    ``tea`` / ``runahead`` are optional feature configs (imported
    lazily by the pipeline to avoid circular imports); ``None`` runs the
    plain baseline core.
    """

    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    tea: object | None = None        # repro.tea.TeaConfig
    runahead: object | None = None   # repro.runahead.RunaheadConfig
    crisp: object | None = None      # repro.crisp.CrispConfig
    max_instructions: int | None = None
    max_cycles: int | None = None
    warmup_instructions: int = 0
    #: Forward-progress watchdog: no retirement for this many cycles
    #: raises SimulationError with a diagnostic state dump.
    watchdog_cycles: int = 20_000
    #: Idle-cycle fast-forward: when fetch, rename, schedule, and
    #: retire are all provably blocked, Pipeline.run advances the
    #: cycle counter directly to the next event instead of stepping
    #: through dead cycles.  Cycle-exact; disable to force uniform
    #: stepping (it is disabled automatically under observation,
    #: invariant checking, and fault injection).
    fast_forward: bool = True
    #: Runtime invariant checking (repro.verify): audit the machine
    #: every N cycles; 0 disables (no checker is even constructed, so
    #: the default simulation path is unchanged).
    check_invariants: int = 0
    #: Optional repro.verify.FaultPlan (imported lazily by the
    #: pipeline): deterministic seeded fault injection mid-simulation.
    fault_plan: object | None = None
    #: Self-profiling (repro.obs.profiler): attribute host wall-clock
    #: to pipeline stages.  Off by default; a disabled pipeline never
    #: constructs the profiler or its wrappers (structurally zero cost).
    profile: bool = False

    def __post_init__(self) -> None:
        _require(
            isinstance(self.core, CoreConfig),
            f"SimConfig.core must be a CoreConfig, got "
            f"{type(self.core).__name__}",
        )
        _require(
            self.warmup_instructions >= 0,
            f"SimConfig.warmup_instructions must be >= 0, got "
            f"{self.warmup_instructions}",
        )
        for name in ("max_instructions", "max_cycles"):
            value = getattr(self, name)
            _require(
                value is None or value >= 1,
                f"SimConfig.{name} must be None or >= 1, got {value}",
            )
        _require(
            self.watchdog_cycles >= 1,
            f"SimConfig.watchdog_cycles must be >= 1 (the watchdog is the "
            f"only guard against silent livelock), got {self.watchdog_cycles}",
        )
        _require(
            self.check_invariants >= 0,
            f"SimConfig.check_invariants must be >= 0 (0 disables, N "
            f"audits every N cycles), got {self.check_invariants}",
        )
