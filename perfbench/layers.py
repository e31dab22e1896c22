"""The layer table: which public calls are wrapped, and the per-layer
metrics derived from the spans and counters they record.

Layers are the ``repro`` packages.  Every ``*_s`` metric is the summed
self time of the listed spans; counts and rates come from call counts
or from ``SimStats`` and layer objects read when ``Pipeline.run``
returns, so they are deterministic.
"""

from __future__ import annotations

from pathlib import Path

from spans import Target, TracedTask, Tracer


def _cycle_before(args):
    return args[0].cycle


def _pipeline_after(tracer, args, stats, cycle_before):
    pipeline, counters = args[0], tracer.counters
    counters["core.cycles"] += pipeline.cycle - cycle_before
    counters["sim.instructions"] += stats.retired_instructions
    counters["sim.mispredicts"] += (
        stats.direction_mispredicts + stats.target_mispredicts
    )
    counters["tea.resolved"] += stats.tea_resolved_branches
    counters["tea.wrong"] += stats.tea_wrong_resolutions
    counters["tea.covered"] += stats.covered_timely + stats.covered_late
    counters["tea.uncovered"] += (
        stats.uncovered_mispredicts + stats.incorrect_precomputations
    )
    counters["runahead.chain_uops"] += stats.runahead_chain_uops
    counters["runahead.overrides"] += stats.runahead_overrides
    counters["runahead.wrong_overrides"] += stats.runahead_wrong_overrides
    counters["verify.audits"] += stats.invariant_checks
    hierarchy = pipeline.hierarchy
    for cache in (hierarchy.l1d, hierarchy.llc):
        counters[f"memory.{cache.name}_hits"] += cache.hits
        counters[f"memory.{cache.name}_misses"] += cache.misses
    counters["memory.dram_row_hits"] += hierarchy.dram.row_hits
    counters["memory.dram_row_misses"] += hierarchy.dram.row_misses


def _capture_after(tracer, args, result, _):
    total, checkpoints = result
    tracer.counters["sampling.ff_instructions"] += total
    tracer.counters["sampling.checkpoints"] += len(checkpoints)


def _executor_after(tracer, args, outcomes, _):
    counters = tracer.counters
    counters["harness.cells"] += len(outcomes)
    counters["harness.cells_retried"] += sum(o.attempts > 1 for o in outcomes)
    counters["harness.cells_failed"] += sum(not o.ok for o in outcomes)


def targets(tracer: Tracer, span_dir: Path) -> tuple[Target, ...]:
    """Every wrapped call.  The executor's task is swapped for a
    :class:`TracedTask` for the length of each ``CampaignExecutor.run``
    so pool workers ship their spans back through ``span_dir``."""

    def swap_task(args):
        executor = args[0]
        original = executor.task
        executor.task = TracedTask(original, tracer, span_dir)
        return original

    def restore_task(tracer, args, outcomes, original):
        args[0].task = original
        _executor_after(tracer, args, outcomes, None)

    return (Target("CampaignExecutor.run",
                   "repro.harness.executor:CampaignExecutor.run",
                   before=swap_task, after=restore_task),) + TARGETS


TARGETS = (
    Target("make_workload", "repro.workloads.registry:make_workload"),
    Target("run_and_capture", "repro.sampling.checkpoint:run_and_capture",
           after=_capture_after),
    Target("seed_pipeline", "repro.sampling.checkpoint:seed_pipeline"),
    Target("Pipeline.run", "repro.core.pipeline:Pipeline.run",
           before=_cycle_before, after=_pipeline_after),
    Target("Pipeline.step", "repro.core.pipeline:Pipeline.step"),
    Target("Scheduler.select", "repro.core.scheduler:Scheduler.select"),
    Target("DecoupledFrontend.tick", "repro.frontend.decoupled:DecoupledFrontend.tick"),
    Target("TageScl.predict", "repro.frontend.tagescl:TageScl.predict"),
    Target("TageScl.train", "repro.frontend.tagescl:TageScl.train"),
    Target("MemoryHierarchy.access_ifetch",
           "repro.memory.hierarchy:MemoryHierarchy.access_ifetch"),
    Target("MemoryHierarchy.access_load",
           "repro.memory.hierarchy:MemoryHierarchy.access_load"),
    Target("MemoryHierarchy.access_store_retire",
           "repro.memory.hierarchy:MemoryHierarchy.access_store_retire"),
    Target("TeaController.fetch", "repro.tea.controller:TeaController.fetch"),
    Target("TeaController.on_retire", "repro.tea.controller:TeaController.on_retire"),
    Target("FillBuffer.run_walk", "repro.tea.fill_buffer:FillBuffer.run_walk"),
    Target("RunaheadController.tick", "repro.runahead.controller:RunaheadController.tick"),
    Target("InvariantChecker.maybe_audit",
           "repro.verify.invariants:InvariantChecker.maybe_audit"),
    Target("generate_program", "repro.fuzz.generator:generate_program"),
    Target("classify_source", "repro.fuzz.oracle:classify_source"),
    Target("run_program", "repro.isa.interpreter:run_program"),
)

#: Spans kept as individual records (each fires a handful of times per
#: cell); every other span is kept only as per-name aggregates.
KEEP = frozenset({
    "harness.cell", "CampaignExecutor.run", "make_workload",
    "run_and_capture", "seed_pipeline", "Pipeline.run",
    "generate_program", "classify_source", "run_program",
})

_MEMORY = ("MemoryHierarchy.access_ifetch", "MemoryHierarchy.access_load",
           "MemoryHierarchy.access_store_retire")

#: Self-time metrics: metric -> spans whose self time it sums.
SELF_TIME = {
    "workloads.build_s": ("make_workload",),
    "sampling.capture_s": ("run_and_capture",),
    "sampling.seed_s": ("seed_pipeline",),
    "core.run_s": ("Pipeline.run", "Pipeline.step"),
    "core.select_s": ("Scheduler.select",),
    "frontend.tick_s": ("DecoupledFrontend.tick",),
    "frontend.cond_predict_s": ("TageScl.predict",),
    "frontend.cond_train_s": ("TageScl.train",),
    "memory.access_s": _MEMORY,
    "tea.fetch_s": ("TeaController.fetch",),
    "tea.retire_s": ("TeaController.on_retire",),
    "tea.walk_s": ("FillBuffer.run_walk",),
    "runahead.tick_s": ("RunaheadController.tick",),
    "verify.audit_s": ("InvariantChecker.maybe_audit",),
    "fuzz.generate_s": ("generate_program",),
    "fuzz.oracle_s": ("classify_source",),
    "isa.interpret_s": ("run_program",),
}

#: Per-layer metrics in report order, with units.  ``harness.*`` CPU
#: figures and ``trace.overhead_frac`` come from the untraced batch of
#: the same run; ``error_rate`` from the output checks.
PER_LAYER = {
    "harness.coordinator_cpu_s": "s",
    "harness.worker_cpu_s": "s",
    "harness.pool_busy_frac": "fraction",
    "harness.idle_s_per_cell": "s",
    "harness.cells": "count",
    "harness.cells_retried": "count",
    "harness.cells_failed": "count",
    "workloads.build_s": "s",
    "workloads.builds": "count",
    "sampling.capture_s": "s",
    "sampling.ff_instructions": "count",
    "sampling.checkpoints": "count",
    "sampling.window_file_bytes": "bytes",
    "sampling.seed_s": "s",
    "core.run_s": "s",
    "core.steps": "count",
    "core.cycles": "count",
    "core.skipped_cycles": "count",
    "core.ns_per_step": "ns",
    "core.select_s": "s",
    "frontend.tick_s": "s",
    "frontend.cond_predict_s": "s",
    "frontend.cond_train_s": "s",
    "frontend.cond_predicts": "count",
    "frontend.mispredicts_pki": "1/kinst",
    "memory.access_s": "s",
    "memory.accesses": "count",
    "memory.l1d_miss_rate": "fraction",
    "memory.llc_miss_rate": "fraction",
    "memory.dram_row_hit_rate": "fraction",
    "tea.fetch_s": "s",
    "tea.retire_s": "s",
    "tea.walk_s": "s",
    "tea.walks": "count",
    "tea.accuracy": "fraction",
    "tea.coverage": "fraction",
    "runahead.tick_s": "s",
    "runahead.chain_uops": "count",
    "runahead.override_accuracy": "fraction",
    "verify.audit_s": "s",
    "verify.audits": "count",
    "fuzz.generate_s": "s",
    "fuzz.oracle_s": "s",
    "isa.interpret_s": "s",
    "trace.overhead_frac": "fraction",
    "error_rate": "fraction",
}

_SIM = ("Pipeline.run", "Pipeline.step", "Scheduler.select",
        "DecoupledFrontend.tick", "TageScl.predict", "TageScl.train") + _MEMORY
_TEA = ("TeaController.fetch", "TeaController.on_retire", "FillBuffer.run_walk")

#: Wrappers that must record at least one call on each workload, so a
#: call path that stops going through a wrapped name cannot silently
#: zero a layer.
EXPECTED_CALLS = {
    "campaign": ("CampaignExecutor.run", "make_workload", "RunaheadController.tick")
    + _SIM + _TEA,
    "sample": ("CampaignExecutor.run", "make_workload", "run_and_capture",
               "seed_pipeline") + _SIM + _TEA,
    "fuzz": ("CampaignExecutor.run", "InvariantChecker.maybe_audit",
             "generate_program", "classify_source", "run_program") + _SIM,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: dict) -> dict[str, float]:
    """Per-layer metrics from merged span aggregates and counters
    (everything except the harness CPU figures, the trace overhead and
    the error rate, which the caller adds)."""
    # Counters: a name nothing recorded reads as 0.
    calls, total, self_s, c = (
        merged["calls"], merged["total"], merged["self"], merged["counters"]
    )
    out = {metric: sum(self_s[span] for span in spans)
           for metric, spans in SELF_TIME.items()}
    steps = calls["Pipeline.step"]
    out.update({
        "harness.cells": c["harness.cells"],
        "harness.cells_retried": c["harness.cells_retried"],
        "harness.cells_failed": c["harness.cells_failed"],
        "workloads.builds": calls["make_workload"],
        "sampling.ff_instructions": c["sampling.ff_instructions"],
        "sampling.checkpoints": c["sampling.checkpoints"],
        "core.steps": steps,
        "core.cycles": c["core.cycles"],
        "core.skipped_cycles": c["core.cycles"] - steps,
        "core.ns_per_step": 1e9 * _ratio(total["Pipeline.step"], steps),
        "frontend.cond_predicts": calls["TageScl.predict"],
        "frontend.mispredicts_pki":
            1000 * _ratio(c["sim.mispredicts"], c["sim.instructions"]),
        "memory.accesses": sum(calls[span] for span in _MEMORY),
        "memory.l1d_miss_rate": _ratio(
            c["memory.l1d_misses"], c["memory.l1d_hits"] + c["memory.l1d_misses"]),
        "memory.llc_miss_rate": _ratio(
            c["memory.llc_misses"], c["memory.llc_hits"] + c["memory.llc_misses"]),
        "memory.dram_row_hit_rate": _ratio(
            c["memory.dram_row_hits"],
            c["memory.dram_row_hits"] + c["memory.dram_row_misses"]),
        "tea.walks": calls["FillBuffer.run_walk"],
        "tea.accuracy": _ratio(c["tea.resolved"] - c["tea.wrong"], c["tea.resolved"]),
        "tea.coverage": _ratio(c["tea.covered"], c["tea.covered"] + c["tea.uncovered"]),
        "runahead.chain_uops": c["runahead.chain_uops"],
        "runahead.override_accuracy": _ratio(
            c["runahead.overrides"] - c["runahead.wrong_overrides"],
            c["runahead.overrides"]),
        "verify.audits": c["verify.audits"],
    })
    return out


def missing_calls(workload: str, calls) -> list[str]:
    """Wrapped names expected on ``workload`` that recorded no call."""
    return [span for span in EXPECTED_CALLS[workload] if not calls[span]]
