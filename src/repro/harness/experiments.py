"""Per-figure/table experiment definitions (paper §V).

The :class:`ExperimentSuite` runs every (workload, mode) cell through
a :class:`~repro.harness.executor.CampaignExecutor` and caches its
:class:`~repro.harness.executor.RunOutcome`, so the figures share
runs — Fig. 5, Fig. 7, and Table III all reuse the same ``tea`` runs,
exactly as one simulation campaign would.

Each ``fig*``/``table*`` method returns a plain dict of series (for
tests and downstream tooling) and a ``render_*`` helper produces the
paper-style text table.
"""

from __future__ import annotations

from ..core import SimStats
from ..workloads import (
    complex_control_flow_names,
    simple_control_flow_names,
    workload_names,
)
from .executor import CampaignExecutor, RunOutcome, RunSpec, matrix_specs
from .reporting import format_table, geomean, speedup_percent

#: Modes each figure needs, for executor-driven matrix pre-runs.
FIGURE_MODES = {
    "fig5": ("baseline", "tea"),
    "fig6": ("baseline",),
    "fig7": ("tea",),
    "fig8": ("baseline", "tea", "runahead"),
    "fig9": ("baseline", "tea", "tea_dedicated"),
    "fig10": ("tea", "tea_only_loops", "tea_no_masks", "tea_no_mem",
              "tea_no_features"),
    "table3": ("baseline", "tea"),
}

#: Paper-reported numbers for EXPERIMENTS.md comparisons.
PAPER_GEOMEAN_TEA = 10.1
PAPER_GEOMEAN_RUNAHEAD = 7.3
PAPER_GEOMEAN_DEDICATED = 12.3
PAPER_TEA_ACCURACY = 99.3
PAPER_TEA_COVERAGE = 76.0
PAPER_NO_FEATURES_COVERAGE = 39.0
PAPER_FOOTPRINT_INCREASE = 31.9
PAPER_PREFETCH_ONLY_GAIN = 1.2


class ExperimentSuite:
    """Cached simulation campaign over all workloads/modes.

    Every cell runs through ``executor`` (inline by default): a cache
    miss runs that one cell, :meth:`run_matrix` pre-runs a whole
    workloads × modes matrix, with the executor's timeouts, retry and
    checkpoint/resume.  A failed cell stays in the cache as a failed
    :class:`RunOutcome`; figures mark it with its failure kind and
    compute aggregates over the surviving workloads.
    """

    def __init__(
        self,
        scale: str = "bench",
        workloads: tuple[str, ...] | None = None,
        executor: CampaignExecutor | None = None,
    ):
        self.scale = scale
        self.workloads = tuple(workloads) if workloads else workload_names()
        self.executor = executor or CampaignExecutor(jobs=0)
        self._cache: dict[tuple[str, str], RunOutcome] = {}

    def result(self, workload: str, mode: str) -> RunOutcome:
        key = (workload, mode)
        if key not in self._cache:
            self._execute([RunSpec(workload, mode, self.scale)])
        return self._cache[key]

    def run_matrix(
        self,
        modes,
        checkpoint=None,
        resume: bool = False,
    ) -> list[RunOutcome]:
        """Execute workloads × modes through the executor and cache the
        outcomes (failed cells included)."""
        specs = matrix_specs(self.workloads, modes, scale=self.scale)
        return self._execute(specs, checkpoint=checkpoint, resume=resume)

    def _execute(self, specs, checkpoint=None, resume: bool = False):
        outcomes = self.executor.run(
            specs, checkpoint=checkpoint, resume=resume
        )
        for outcome in outcomes:
            self._cache[(outcome.spec.workload, outcome.spec.mode)] = outcome
        return outcomes

    # -- failure bookkeeping -------------------------------------------
    def failures(self) -> dict[str, str]:
        """``{"workload/mode": failure_kind}`` for every failed cell."""
        return {
            f"{w}/{m}": outcome.failure.kind
            for (w, m), outcome in sorted(self._cache.items())
            if not outcome.ok
        }

    def _stats(self, name: str, mode: str) -> SimStats:
        return self.result(name, mode).sim_stats()

    def _ok(self, name: str, *modes: str) -> bool:
        return all(self.result(name, mode).ok for mode in modes)

    def _complete(self, names, *modes: str) -> list[str]:
        """Workloads whose runs succeeded under every listed mode."""
        return [n for n in names if self._ok(n, *modes)]

    def _cell(self, value, name: str, *modes: str):
        """``value`` when every involved run succeeded, else a marker
        naming the failure kind (for rendered tables)."""
        for mode in modes:
            outcome = self.result(name, mode)
            if not outcome.ok:
                return f"FAILED({outcome.failure.kind})"
        return value

    def _speedups(self, mode: str) -> dict[str, float | None]:
        """Per-workload speedup vs baseline; ``None`` for failed cells."""
        out: dict[str, float | None] = {}
        for name in self.workloads:
            if not self._ok(name, "baseline", mode):
                out[name] = None
                continue
            base = self._stats(name, "baseline").ipc
            out[name] = speedup_percent(self._stats(name, mode).ipc, base)
        return out

    def _gm_speedup(self, mode: str, names) -> float:
        """Geomean speedup over the workloads where both runs are ok."""
        names = self._complete(names, "baseline", mode)
        if not names:
            return 0.0
        return speedup_percent(
            geomean([self._stats(n, mode).ipc for n in names]),
            geomean([self._stats(n, "baseline").ipc for n in names]),
        )

    # ==================================================================
    # Fig. 5 — TEA speedup per benchmark (on-core)
    # ==================================================================
    def fig5(self) -> dict:
        speedups = self._speedups("tea")
        return {
            "speedup_pct": speedups,
            "geomean_pct": self._gm_speedup("tea", self.workloads),
            "paper_geomean_pct": PAPER_GEOMEAN_TEA,
            "failures": self.failures(),
        }

    def render_fig5(self) -> str:
        data = self.fig5()
        rows = [
            [n, self._cell(data["speedup_pct"][n], n, "baseline", "tea")]
            for n in self.workloads
        ]
        rows.append(["geomean", data["geomean_pct"]])
        return format_table(
            ["benchmark", "TEA speedup %"],
            rows,
            title="Fig. 5 — performance benefit of the TEA thread (on-core)",
        )

    # ==================================================================
    # Fig. 6 — baseline MPKI per benchmark
    # ==================================================================
    def fig6(self) -> dict:
        mpki = {
            n: (self._stats(n, "baseline").mpki
                if self._ok(n, "baseline") else None)
            for n in self.workloads
        }
        return {"mpki": mpki, "failures": self.failures()}

    def render_fig6(self) -> str:
        data = self.fig6()
        rows = [
            [n, self._cell(data["mpki"][n], n, "baseline")]
            for n in self.workloads
        ]
        return format_table(
            ["benchmark", "MPKI"],
            rows,
            title="Fig. 6 — direction+target mispredictions per kilo-instruction",
        )

    # ==================================================================
    # Fig. 7 — misprediction coverage breakdown under TEA
    # ==================================================================
    def fig7(self) -> dict:
        breakdown = {}
        for name in self._complete(self.workloads, "tea"):
            stats = self._stats(name, "tea")
            total = (
                stats.covered_timely
                + stats.covered_late
                + stats.incorrect_precomputations
                + stats.uncovered_mispredicts
            )
            total = max(total, 1)
            breakdown[name] = {
                "covered_timely": 100.0 * stats.covered_timely / total,
                "covered_late": 100.0 * stats.covered_late / total,
                "incorrect": 100.0 * stats.incorrect_precomputations / total,
                "uncovered": 100.0 * stats.uncovered_mispredicts / total,
                "coverage": 100.0 * stats.coverage,
            }
        mean_cov = (
            sum(b["coverage"] for b in breakdown.values()) / len(breakdown)
            if breakdown
            else 0.0
        )
        return {
            "breakdown": breakdown,
            "mean_coverage_pct": mean_cov,
            "paper_coverage_pct": PAPER_TEA_COVERAGE,
            "failures": self.failures(),
        }

    def render_fig7(self) -> str:
        data = self.fig7()
        rows = []
        for n in self.workloads:
            b = data["breakdown"].get(n)
            if b is None:
                marker = self._cell(0.0, n, "tea")
                rows.append([n, marker, marker, marker, marker])
                continue
            rows.append(
                [
                    n,
                    b["covered_timely"],
                    b["covered_late"],
                    b["incorrect"],
                    b["uncovered"],
                ]
            )
        return format_table(
            ["benchmark", "timely %", "late %", "incorrect %", "uncovered %"],
            rows,
            title="Fig. 7 — breakdown of branch mispredictions covered by TEA",
        )

    # ==================================================================
    # Fig. 8 — TEA vs Branch Runahead, simple vs complex control flow
    # ==================================================================
    def fig8(self) -> dict:
        tea = self._speedups("tea")
        br = self._speedups("runahead")
        simple = [n for n in self.workloads if n in simple_control_flow_names()]
        complex_ = [n for n in self.workloads if n in complex_control_flow_names()]

        return {
            "tea_pct": tea,
            "runahead_pct": br,
            "simple_names": tuple(simple),
            "complex_names": tuple(complex_),
            "tea_geomean_pct": self._gm_speedup("tea", self.workloads),
            "runahead_geomean_pct": self._gm_speedup("runahead", self.workloads),
            "tea_simple_pct": self._gm_speedup("tea", simple),
            "runahead_simple_pct": self._gm_speedup("runahead", simple),
            "tea_complex_pct": self._gm_speedup("tea", complex_),
            "runahead_complex_pct": self._gm_speedup("runahead", complex_),
            "paper_tea_pct": PAPER_GEOMEAN_TEA,
            "paper_runahead_pct": PAPER_GEOMEAN_RUNAHEAD,
            "failures": self.failures(),
        }

    def render_fig8(self) -> str:
        data = self.fig8()
        rows = []
        for name in self.workloads:
            category = "simple" if name in data["simple_names"] else "complex"
            rows.append(
                [
                    name,
                    category,
                    self._cell(data["tea_pct"][name], name, "baseline", "tea"),
                    self._cell(
                        data["runahead_pct"][name], name, "baseline", "runahead"
                    ),
                ]
            )
        rows.append(["geomean(simple)", "", data["tea_simple_pct"], data["runahead_simple_pct"]])
        rows.append(
            ["geomean(complex)", "", data["tea_complex_pct"], data["runahead_complex_pct"]]
        )
        rows.append(["geomean(all)", "", data["tea_geomean_pct"], data["runahead_geomean_pct"]])
        return format_table(
            ["benchmark", "cfg", "TEA %", "Branch Runahead %"],
            rows,
            title="Fig. 8 — comparison against Branch Runahead",
        )

    # ==================================================================
    # Fig. 9 — TEA with a dedicated execution engine
    # ==================================================================
    def fig9(self) -> dict:
        dedicated = self._speedups("tea_dedicated")
        oncore = self._speedups("tea")
        return {
            "dedicated_pct": dedicated,
            "oncore_pct": oncore,
            "dedicated_geomean_pct": self._gm_speedup(
                "tea_dedicated", self.workloads
            ),
            "paper_dedicated_pct": PAPER_GEOMEAN_DEDICATED,
            "failures": self.failures(),
        }

    def render_fig9(self) -> str:
        data = self.fig9()
        rows = [
            [
                n,
                self._cell(data["oncore_pct"][n], n, "baseline", "tea"),
                self._cell(
                    data["dedicated_pct"][n], n, "baseline", "tea_dedicated"
                ),
            ]
            for n in self.workloads
        ]
        rows.append(["geomean", "", data["dedicated_geomean_pct"]])
        return format_table(
            ["benchmark", "on-core %", "dedicated engine %"],
            rows,
            title="Fig. 9 — TEA thread on a separate execution engine",
        )

    # ==================================================================
    # Fig. 10 — thread-construction feature ablations
    # ==================================================================
    ABLATION_MODES = (
        ("tea", "TEA"),
        ("tea_only_loops", "only loops"),
        ("tea_no_masks", "no masks"),
        ("tea_no_mem", "no mem"),
        ("tea_no_features", "no features"),
    )

    def fig10(self) -> dict:
        accuracy: dict[str, dict[str, float]] = {}
        coverage: dict[str, dict[str, float]] = {}
        timeliness: dict[str, dict[str, float]] = {}
        for mode, label in self.ABLATION_MODES:
            accuracy[label] = {}
            coverage[label] = {}
            timeliness[label] = {}
            for name in self._complete(self.workloads, mode):
                stats = self._stats(name, mode)
                accuracy[label][name] = 100.0 * stats.tea_accuracy
                coverage[label][name] = 100.0 * stats.coverage
                timeliness[label][name] = stats.avg_cycles_saved

        def mean(values: dict) -> float:
            return sum(values.values()) / len(values) if values else 0.0

        means = {
            label: {
                "accuracy": mean(accuracy[label]),
                "coverage": mean(coverage[label]),
                "timeliness": mean(timeliness[label]),
            }
            for _, label in self.ABLATION_MODES
        }
        return {
            "accuracy_pct": accuracy,
            "coverage_pct": coverage,
            "cycles_saved": timeliness,
            "means": means,
            "paper_accuracy_pct": PAPER_TEA_ACCURACY,
            "paper_no_features_coverage_pct": PAPER_NO_FEATURES_COVERAGE,
            "failures": self.failures(),
        }

    def render_fig10(self) -> str:
        data = self.fig10()
        labels = [label for _, label in self.ABLATION_MODES]
        modes = {label: mode for mode, label in self.ABLATION_MODES}
        sections = []
        for metric, key in (
            ("(a) precomputation accuracy %", "accuracy_pct"),
            ("(b) misprediction coverage %", "coverage_pct"),
            ("(c) avg misprediction cycles saved", "cycles_saved"),
        ):
            rows = [
                [n]
                + [
                    self._cell(
                        data[key][label].get(n, 0.0), n, modes[label]
                    )
                    for label in labels
                ]
                for n in self.workloads
            ]
            rows.append(
                ["mean"]
                + [
                    (sum(data[key][label].values()) / len(data[key][label])
                     if data[key][label] else 0.0)
                    for label in labels
                ]
            )
            sections.append(
                format_table(
                    ["benchmark"] + labels,
                    rows,
                    title=f"Fig. 10-{metric}",
                )
            )
        return "\n\n".join(sections)

    # ==================================================================
    # Table III — dynamic instruction fetch footprint increase
    # ==================================================================
    def table3(self) -> dict:
        increase = {}
        for name in self._complete(self.workloads, "baseline", "tea"):
            base = self._stats(name, "baseline")
            tea = self._stats(name, "tea")
            if base.footprint_uops:
                increase[name] = 100.0 * (
                    tea.footprint_uops / base.footprint_uops - 1.0
                )
            else:
                increase[name] = 0.0
        return {
            "footprint_increase_pct": increase,
            "mean_pct": (
                sum(increase.values()) / len(increase) if increase else 0.0
            ),
            "paper_mean_pct": PAPER_FOOTPRINT_INCREASE,
            "failures": self.failures(),
        }

    def render_table3(self) -> str:
        data = self.table3()
        rows = [
            [
                n,
                self._cell(
                    data["footprint_increase_pct"].get(n, 0.0),
                    n,
                    "baseline",
                    "tea",
                ),
            ]
            for n in self.workloads
        ]
        rows.append(["mean", data["mean_pct"]])
        return format_table(
            ["benchmark", "fetch footprint increase %"],
            rows,
            title="Table III — increase in dynamic instructions fetched",
        )

    # ==================================================================
    # §V-B — prefetch-only side-effect check
    # ==================================================================
    def prefetch_only(self) -> dict:
        gains = self._speedups("tea_prefetch_only")
        return {
            "speedup_pct": gains,
            "geomean_pct": self._gm_speedup(
                "tea_prefetch_only", self.workloads
            ),
            "paper_geomean_pct": PAPER_PREFETCH_ONLY_GAIN,
            "failures": self.failures(),
        }
