"""Design-space sweeps for the paper's secondary observations.

The evaluation text makes several quantitative claims beyond the main
figures; each sweep here reproduces one:

* §IV-B  — H2P marking aggressiveness trades coverage against
  timeliness ("marking more branches as H2P improves coverage ...
  begins to drop off only when highly accurate branches are marked").
* §V-B  — deepsjeng/omnetpp are limited by Block Cache capacity
  (bigger Block Cache ⇒ better coverage on large-footprint codes).
* §III-B — the TEA thread's run-ahead distance is bounded by the
  fetch-queue size (128 addresses in the paper's design).
* §IV-H — a true 16-wide frontend costs far more than the TEA thread
  and yields little (~2.8%) because predictor bandwidth, not width,
  is the limiter.

Every sweep point is a :class:`~repro.harness.executor.RunSpec` cell — a
named mode plus dotted-path knobs — run through the
:class:`~repro.harness.executor.CampaignExecutor`.
"""

from __future__ import annotations

from .executor import CampaignExecutor, RunSpec
from .reporting import geomean, speedup_percent


def _simulate(specs) -> dict:
    """Each spec's SimStats, run inline through the executor (a spec
    listed twice runs once); a failed cell raises."""
    outcomes = CampaignExecutor(jobs=0).run(specs)
    for o in outcomes:
        if not o.ok:
            raise RuntimeError(f"sweep cell {o.key} failed: "
                               f"{o.failure.exception}: {o.failure.message}")
    return {o.spec: o.sim_stats() for o in outcomes}


def _tea_sweep(workloads, values, scale, knobs, baseline_knobs=lambda v: ()):
    """Per swept value: the workloads' mean TEA coverage, speedup over
    the baseline, and cycles saved.  ``knobs(value)`` overrides the
    ``tea`` cells and ``baseline_knobs(value)`` the baselines — knob-free
    by default, so one baseline per workload serves every value."""
    cells = [(value, RunSpec(name, "tea", scale, knobs=knobs(value)),
              RunSpec(name, "baseline", scale, knobs=baseline_knobs(value)))
             for value in values for name in workloads]
    stats = _simulate([spec for _, *pair in cells for spec in pair])
    out: dict = {"coverage": {}, "speedup": {}, "cycles_saved": {}}
    for value in values:
        runs = [(stats[tea], stats[base].ipc)
                for v, tea, base in cells if v == value]
        out["coverage"][value] = sum(s.coverage for s, _ in runs) / len(runs)
        out["speedup"][value] = sum(
            speedup_percent(s.ipc, base) for s, base in runs) / len(runs)
        out["cycles_saved"][value] = sum(
            s.avg_cycles_saved for s, _ in runs) / len(runs)
    return out


def _geomean_speedups(machines: dict, workloads, scale) -> dict:
    """Geomean speedup % of each ``label: (mode, knobs)`` machine over
    the first one, across the workloads."""
    stats = _simulate(RunSpec(name, mode, scale, knobs=knobs)
                      for mode, knobs in machines.values() for name in workloads)
    ipc = [geomean([stats[RunSpec(name, mode, scale, knobs=knobs)].ipc
                    for name in workloads])
           for mode, knobs in machines.values()]
    return {label: speedup_percent(value, ipc[0])
            for label, value in list(zip(machines, ipc))[1:]}


def h2p_marking_sweep(
    workloads: tuple[str, ...] = ("bfs", "mcf"),
    thresholds: tuple[int, ...] = (0, 1, 4, 6),
    scale: str = "tiny",
) -> dict:
    """Sweep how aggressively branches are classified H2P (paper §IV-B).

    The paper tunes this via the decrement period; at our run lengths
    the equivalent lever is the counter threshold.  Its observation —
    "marking more branches as H2P improves misprediction coverage and
    provides better performance" until clearly-predictable branches
    start to hurt timeliness — shows up as coverage falling when the
    threshold rises (fewer branches marked).
    """
    return {"thresholds": thresholds, **_tea_sweep(
        workloads, thresholds, scale, lambda t: {"tea.h2p_threshold": t})}


def block_cache_sweep(
    workloads: tuple[str, ...] = ("deepsjeng", "omnetpp"),
    sizes: tuple[int, ...] = (4, 16, 512),
    scale: str = "tiny",
) -> dict:
    """Sweep Block Cache capacity (paper §V-B).

    The paper reports deepsjeng/omnetpp gain ~5% from a larger Block
    Cache because their static footprints overflow 512 entries.
    """
    return {"sizes": sizes, **_tea_sweep(workloads, sizes, scale, lambda n: {
        "tea.block_cache_entries": n, "tea.empty_tag_entries": max(2, n // 2),
    })}


def ftq_sweep(
    workloads: tuple[str, ...] = ("bfs", "xz"),
    capacities: tuple[int, ...] = (8, 32, 128),
    scale: str = "tiny",
) -> dict:
    """Sweep the fetch-queue capacity (paper §III-B).

    The FTQ bounds how far the decoupled predictor — and therefore the
    TEA thread — can run ahead of the main thread.  The baseline gets
    the same capacity as the TEA machine it is compared with.
    """
    def ftq(capacity):
        return {"frontend.ftq_capacity": capacity}

    return {"capacities": capacities,
            **_tea_sweep(workloads, capacities, scale, ftq, ftq)}


#: The true 16-wide core of §IV-H, as knobs over the baseline preset.
WIDE_CORE = {
    "core.fetch_width": 16, "core.rename_width": 16, "core.issue_width": 16,
    "core.retire_width": 32, "core.alu_ports": 12, "core.load_ports": 8,
    "core.store_ports": 4, "core.fp_ports": 4,
}


def wide_frontend_comparison(
    workloads: tuple[str, ...] = ("bfs", "mcf", "xz"),
    scale: str = "tiny",
) -> dict:
    """8-wide + TEA vs a true 16-wide core (paper §IV-H).

    The paper: 16-wide costs ~10% area for 2.8% performance because the
    predictor still delivers one taken branch per cycle; the TEA thread
    is the better use of the transistors.
    """
    pct = _geomean_speedups(
        {"base": ("baseline", ()), "wide": ("baseline", WIDE_CORE),
         "tea": ("tea", ())},
        workloads, scale,
    )
    return {"wide_pct": pct["wide"], "tea_pct": pct["tea"],
            "paper_wide_pct": 2.8}


def prior_work_comparison(
    workloads: tuple[str, ...] = ("bfs", "mcf", "xz"),
    scale: str = "tiny",
) -> dict:
    """Three generations of H2P mitigation side by side (paper §II).

    CRISP/IBDA (criticality scheduling) < Branch Runahead (fetch-time
    overrides from a chain engine) < the TEA thread (early flushes) —
    each relaxes the previous one's constraint.
    """
    modes = ("baseline", "crisp", "runahead", "tea")
    return _geomean_speedups({m: (m, ()) for m in modes}, workloads, scale)
