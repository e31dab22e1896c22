"""Simulation runner: named machine configurations + result records.

The *modes* map one-to-one to the machine configurations evaluated in
the paper:

==================  ====================================================
mode                paper artifact
==================  ====================================================
baseline            the aggressive 8-wide OoO core (Table I)
tea                 TEA thread, on-core resources (Fig. 5)
tea_dedicated       TEA thread on a dedicated execution engine (Fig. 9)
tea_prefetch_only   TEA without early resolution — §V-B's 1.2% check
tea_only_loops      Fig. 10 "only loops" ablation
tea_no_masks        Fig. 10 "no masks" ablation
tea_no_mem          Fig. 10 "no mem" ablation
tea_no_features     Fig. 10 "no features" point (39% coverage)
runahead            the Branch Runahead comparison baseline (Fig. 8)
crisp               CRISP/IBDA critical-slice prioritization (§II)
==================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core import Pipeline, SimConfig, SimStats
from ..isa import run_program
from ..obs import Observation
from ..runahead import RunaheadConfig
from ..tea import TeaConfig, tea_ablation
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


def make_config(mode: str) -> SimConfig:
    """Build the :class:`SimConfig` for a named machine mode."""
    if mode == "baseline":
        return SimConfig()
    if mode == "tea":
        return SimConfig(tea=TeaConfig())
    if mode == "tea_dedicated":
        return SimConfig(tea=replace(TeaConfig(), dedicated_engine=True))
    if mode == "tea_prefetch_only":
        return SimConfig(tea=replace(TeaConfig(), early_resolution=False))
    if mode == "tea_only_loops":
        return SimConfig(tea=tea_ablation("only_loops"))
    if mode == "tea_no_masks":
        return SimConfig(tea=tea_ablation("no_masks"))
    if mode == "tea_no_mem":
        return SimConfig(tea=tea_ablation("no_mem"))
    if mode == "tea_no_features":
        return SimConfig(tea=tea_ablation("no_features"))
    if mode == "runahead":
        return SimConfig(runahead=RunaheadConfig())
    if mode == "crisp":
        from ..crisp import CrispConfig

        return SimConfig(crisp=CrispConfig())
    raise ValueError(f"unknown mode {mode!r}")


MODES = (
    "baseline",
    "tea",
    "tea_dedicated",
    "tea_prefetch_only",
    "tea_only_loops",
    "tea_no_masks",
    "tea_no_mem",
    "tea_no_features",
    "runahead",
    "crisp",
)


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
    config: SimConfig | None = None,
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

    ``config`` replaces the mode-derived :class:`SimConfig` (e.g. a TEA
    config carrying a static branch mask); ``mode`` is still recorded
    on the result for reporting.
    """
    if isinstance(workload, str):
        workload = make_workload(workload, scale)
    if config is None:
        config = make_config(mode)
    if check_invariants or fault_plan is not None:
        config = replace(
            config, check_invariants=check_invariants, fault_plan=fault_plan
        )
    if profile:
        config = replace(config, profile=True)
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
