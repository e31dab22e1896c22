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
"""

from __future__ import annotations

from ..core import SimConfig
from ..core.config import CoreConfig
from ..frontend.decoupled import FrontendConfig
from ..tea import TeaConfig
from .reporting import geomean, speedup_percent
from .runner import run_workload


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
    base = {name: run_workload(name, "baseline", scale).ipc for name in workloads}
    out: dict = {"thresholds": thresholds, "coverage": {}, "speedup": {}}
    for threshold in thresholds:
        config = SimConfig(tea=TeaConfig(h2p_threshold=threshold))
        coverages, speedups = [], []
        for name in workloads:
            stats = run_workload(name, "tea", scale, config=config).stats
            coverages.append(stats.coverage)
            speedups.append(speedup_percent(stats.ipc, base[name]))
        out["coverage"][threshold] = sum(coverages) / len(coverages)
        out["speedup"][threshold] = sum(speedups) / len(speedups)
    return out


def block_cache_sweep(
    workloads: tuple[str, ...] = ("deepsjeng", "omnetpp"),
    sizes: tuple[int, ...] = (4, 16, 512),
    scale: str = "tiny",
) -> dict:
    """Sweep Block Cache capacity (paper §V-B).

    The paper reports deepsjeng/omnetpp gain ~5% from a larger Block
    Cache because their static footprints overflow 512 entries.
    """
    base = {name: run_workload(name, "baseline", scale).ipc for name in workloads}
    out: dict = {"sizes": sizes, "coverage": {}, "speedup": {}}
    for size in sizes:
        config = SimConfig(tea=TeaConfig(
            block_cache_entries=size, empty_tag_entries=max(2, size // 2)
        ))
        coverages, speedups = [], []
        for name in workloads:
            stats = run_workload(name, "tea", scale, config=config).stats
            coverages.append(stats.coverage)
            speedups.append(speedup_percent(stats.ipc, base[name]))
        out["coverage"][size] = sum(coverages) / len(coverages)
        out["speedup"][size] = sum(speedups) / len(speedups)
    return out


def ftq_sweep(
    workloads: tuple[str, ...] = ("bfs", "xz"),
    capacities: tuple[int, ...] = (8, 32, 128),
    scale: str = "tiny",
) -> dict:
    """Sweep the fetch-queue capacity (paper §III-B).

    The FTQ bounds how far the decoupled predictor — and therefore the
    TEA thread — can run ahead of the main thread.
    """
    out: dict = {"capacities": capacities, "speedup": {}, "cycles_saved": {}}
    for capacity in capacities:
        frontend = FrontendConfig(ftq_capacity=capacity)
        speedups, saved = [], []
        for name in workloads:
            base = run_workload(
                name, "baseline", scale, config=SimConfig(frontend=frontend)
            )
            stats = run_workload(
                name, "tea", scale,
                config=SimConfig(frontend=frontend, tea=TeaConfig()),
            ).stats
            speedups.append(speedup_percent(stats.ipc, base.ipc))
            saved.append(stats.avg_cycles_saved)
        out["speedup"][capacity] = sum(speedups) / len(speedups)
        out["cycles_saved"][capacity] = sum(saved) / len(saved)
    return out


def wide_frontend_comparison(
    workloads: tuple[str, ...] = ("bfs", "mcf", "xz"),
    scale: str = "tiny",
) -> dict:
    """8-wide + TEA vs a true 16-wide core (paper §IV-H).

    The paper: 16-wide costs ~10% area for 2.8% performance because the
    predictor still delivers one taken branch per cycle; the TEA thread
    is the better use of the transistors.
    """
    wide_core = CoreConfig(
        fetch_width=16,
        rename_width=16,
        issue_width=16,
        retire_width=32,
        alu_ports=12,
        load_ports=8,
        store_ports=4,
        fp_ports=4,
    )
    base_ipcs, wide_ipcs, tea_ipcs = [], [], []
    for name in workloads:
        base_ipcs.append(run_workload(name, "baseline", scale).ipc)
        wide_ipcs.append(
            run_workload(
                name, "wide", scale, config=SimConfig(core=wide_core)
            ).ipc
        )
        tea_ipcs.append(run_workload(name, "tea", scale).ipc)
    return {
        "wide_pct": speedup_percent(geomean(wide_ipcs), geomean(base_ipcs)),
        "tea_pct": speedup_percent(geomean(tea_ipcs), geomean(base_ipcs)),
        "paper_wide_pct": 2.8,
    }


def prior_work_comparison(
    workloads: tuple[str, ...] = ("bfs", "mcf", "xz"),
    scale: str = "tiny",
) -> dict:
    """Three generations of H2P mitigation side by side (paper §II).

    CRISP/IBDA (criticality scheduling) < Branch Runahead (fetch-time
    overrides from a chain engine) < the TEA thread (early flushes) —
    each relaxes the previous one's constraint.
    """
    ipcs: dict[str, list[float]] = {m: [] for m in ("baseline", "crisp", "runahead", "tea")}
    for name in workloads:
        for mode in ipcs:
            ipcs[mode].append(run_workload(name, mode, scale).ipc)
    base = geomean(ipcs["baseline"])
    return {
        mode: speedup_percent(geomean(values), base)
        for mode, values in ipcs.items()
        if mode != "baseline"
    }
