"""Campaign persistence: save, load, and diff experiment results.

A *campaign* is one full run of the :class:`ExperimentSuite` — every
(workload, mode) simulation plus the derived figure data.  Persisting
campaigns as JSON makes runs comparable across simulator versions:
``diff_campaigns`` highlights per-benchmark IPC movements, which is how
a change to (say) the scheduler shows up as a Fig. 5 regression.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

from .executor import CellStore
from .experiments import ExperimentSuite

_SCHEMA_VERSION = 1

#: Raw counters preserved per (workload, mode) run.
_KEPT_COUNTERS = (
    "cycles",
    "retired_instructions",
    "direction_mispredicts",
    "target_mispredicts",
    "flushes",
    "early_flushes",
    "covered_timely",
    "covered_late",
    "incorrect_precomputations",
    "uncovered_mispredicts",
    "tea_resolved_branches",
    "tea_wrong_resolutions",
    "tea_cycles_saved",
    "fetched_uops",
    "tea_fetched_uops",
    "runahead_overrides",
    "runahead_wrong_overrides",
)


def run_to_dict(result) -> dict:
    """The per-run payload kept in a campaign file.

    Failed cells (``result.failure`` set) carry their failure kind and
    message alongside zeroed counters, so a stored campaign keeps a
    complete record of the matrix rather than silently dropping cells.
    """
    stats = result.stats
    payload = {
        "ipc": stats.ipc,
        "mpki": stats.mpki,
        "coverage": stats.coverage,
        "accuracy": stats.tea_accuracy,
        "validated": result.validated,
        "halted": result.halted,
        **{name: getattr(stats, name) for name in _KEPT_COUNTERS},
    }
    if result.failure is not None:
        payload["failure"] = result.failure
        payload["error"] = result.error
    return payload


def campaign_to_dict(suite: ExperimentSuite) -> dict:
    """Serialize everything the suite has simulated so far."""
    runs = {
        f"{workload}/{mode}": run_to_dict(result)
        for (workload, mode), result in suite._cache.items()
    }
    return {
        "schema": _SCHEMA_VERSION,
        "scale": suite.scale,
        "workloads": list(suite.workloads),
        "runs": runs,
    }


def save_campaign(suite: ExperimentSuite, path: str | Path) -> Path:
    """Write the suite's accumulated results to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(campaign_to_dict(suite), indent=2, sort_keys=True))
    return path


def load_campaign(path: str | Path) -> dict:
    """Load a saved campaign JSON file or a :class:`CellStore` directory.

    Corruption tolerance: a corrupt store entry is evicted with a
    warning and skipped; a corrupt campaign file raises a typed
    :class:`ValueError` naming the file, never a bare
    ``JSONDecodeError`` from deep inside the json module.
    """
    path = Path(path)
    if path.is_dir():
        outcomes = CellStore(path).outcomes()
        scales = {o.spec.scale for o in outcomes}
        return {
            "schema": _SCHEMA_VERSION,
            "scale": scales.pop() if len(scales) == 1 else "mixed",
            "workloads": sorted({o.spec.workload for o in outcomes}),
            "runs": {o.key: run_to_dict(o.run_result()) for o in outcomes},
        }
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt campaign file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"corrupt campaign file {path}: not a JSON object")
    if data.get("schema") != _SCHEMA_VERSION:
        raise ValueError(f"unsupported campaign schema: {data.get('schema')!r}")
    bad = [key for key, run in data.get("runs", {}).items()
           if not isinstance(run, dict) or "ipc" not in run]
    for key in bad:
        warnings.warn(f"{path}: skipping corrupt run record {key!r}",
                      stacklevel=2)
        del data["runs"][key]
    return data


def diff_campaigns(
    before: dict, after: dict, threshold_pct: float = 1.0
) -> list[dict]:
    """Per-run IPC movements beyond ``threshold_pct``, largest first.

    Returns ``[{"run", "before_ipc", "after_ipc", "delta_pct"}, ...]``
    covering runs present in both campaigns.
    """
    movements = []
    for key, new in after["runs"].items():
        old = before["runs"].get(key)
        if old is None or old["ipc"] <= 0:
            continue
        if "failure" in old or "failure" in new:
            continue  # failed cells have no meaningful IPC to diff
        delta = 100.0 * (new["ipc"] / old["ipc"] - 1.0)
        if abs(delta) >= threshold_pct:
            movements.append(
                {
                    "run": key,
                    "before_ipc": old["ipc"],
                    "after_ipc": new["ipc"],
                    "delta_pct": delta,
                }
            )
    movements.sort(key=lambda m: abs(m["delta_pct"]), reverse=True)
    return movements
