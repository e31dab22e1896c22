"""Experiment harness: runner, executor, per-figure experiments, reporting."""

from .bench import (
    PINNED_RUNS,
    bench_cell,
    compare_reports,
    load_report,
    run_bench,
    write_report,
)
from .executor import (
    CampaignExecutor,
    CellStore,
    RunFailure,
    RunOutcome,
    RunSpec,
    cell_key,
    matrix_specs,
    summarize_outcomes,
)
from .experiments import FIGURE_MODES, ExperimentSuite
from .reporting import format_table, geomean, speedup_percent
from .runner import (
    MODES,
    RunResult,
    ValidationError,
    make_config,
    run_workload,
)
from .sweeps import (
    block_cache_sweep,
    ftq_sweep,
    h2p_marking_sweep,
    prior_work_comparison,
    wide_frontend_comparison,
)

__all__ = [
    "CampaignExecutor",
    "CellStore",
    "PINNED_RUNS",
    "bench_cell",
    "compare_reports",
    "load_report",
    "run_bench",
    "write_report",
    "ExperimentSuite",
    "FIGURE_MODES",
    "RunFailure",
    "RunOutcome",
    "RunSpec",
    "ValidationError",
    "block_cache_sweep",
    "cell_key",
    "ftq_sweep",
    "h2p_marking_sweep",
    "matrix_specs",
    "prior_work_comparison",
    "summarize_outcomes",
    "wide_frontend_comparison",
    "format_table",
    "geomean",
    "speedup_percent",
    "MODES",
    "RunResult",
    "make_config",
    "run_workload",
]
