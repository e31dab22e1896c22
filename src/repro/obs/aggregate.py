"""Cross-process campaign telemetry: worker relay, parent aggregation.

A campaign fans simulations out over worker processes
(:class:`~repro.harness.executor.CampaignExecutor`), and each worker's
event bus and metrics registry die with the worker — the parent only
ever saw the final ``SimStats`` payload.  This module streams telemetry
*live* over the existing result pipe instead:

* :class:`TelemetryRelay` — worker side.  Subscribes to the worker's
  :class:`~repro.obs.hub.Observation` bus, forwards a *sampled* subset
  of taxonomy events plus periodic structured metric snapshots, each
  wrapped in an envelope tagged with the run key, worker id, and a
  per-worker sequence number.  Sampling is the backpressure mechanism:
  dropped records are *counted per type and reported in every
  snapshot*, never silently discarded.  Transport failures (parent
  gone) burn sequence numbers, so the parent sees them as gaps.
* :class:`TelemetryAggregator` — parent side.  Ingests envelopes from
  any number of workers and merges them into campaign-level rollups:
  cell status matrix, aggregate simulated cycles/s, per-workload
  histogram merges (with p50/p95/p99), and explicit drop accounting
  (sampling drops, transport gaps, duplicate/out-of-order envelopes).
* :class:`CampaignProgressView` — a ``--follow`` terminal renderer of
  the campaign matrix with ETA; in-place ANSI redraw on a tty, compact
  line-per-update fallback otherwise.

The relay reaches the worker's task through a process-local ambient
slot (:func:`set_current_relay` / :func:`current_relay`), installed by
``_worker_main`` before the task runs — the task itself stays a plain
picklable ``record -> payload`` callable.
"""

from __future__ import annotations

import time
from typing import Callable

from .events import EVENT_TYPES, Event
from .metrics import Histogram

#: Per-type sampling periods (forward 1 of every N), the relay's fixed
#: policy.  The high-volume attribution feeds would otherwise dominate
#: the pipe; everything not listed here is forwarded unsampled.
DEFAULT_SAMPLE_PERIODS: dict[str, int] = {
    "branch_retire": 64,
    "branch_resolved": 16,
    "tea_resolve": 16,
    "shadow_fetch": 16,
    "block_cache_hit": 64,
    "flush": 16,
    "mispredict_flush": 16,
}

#: Cell status codes used by the aggregator and the progress view.
PENDING, RUNNING, OK, FAILED, TIMEOUT = (
    "pending", "running", "ok", "failed", "timeout",
)


# ======================================================================
# Worker side
# ======================================================================
class TelemetryRelay:
    """Streams sampled events + metric snapshots out of one worker.

    ``send`` is the raw transport — typically ``Connection.send`` of
    the worker's result pipe; every record goes out as a
    ``("telemetry", envelope)`` tuple so the parent can tell telemetry
    from the final ``("ok", ...)`` / ``("err", ...)`` message.
    """

    def __init__(
        self,
        send: Callable[[tuple], None],
        run: str,
        worker: int = 0,
        snapshot_every: int = 2048,
    ):
        self._send_raw = send
        self.run = run
        self.worker = worker
        self._seq = 0
        self._snapshot_every = snapshot_every
        self._since_snapshot = 0
        self._emitted: dict[str, int] = {}
        self.dropped: dict[str, int] = {}
        self.transport_failures = 0
        self._broken = False
        self._observation = None

    # ------------------------------------------------------------------
    def attach(self, observation) -> None:
        """Subscribe to an :class:`Observation`'s bus (taxonomy only)."""
        observation.bus.subscribe(self.on_event, EVENT_TYPES)
        self._observation = observation

    def on_event(self, event: Event) -> None:
        """Bus callback: forward 1-in-N per type, count the rest."""
        type_ = event.type
        n = self._emitted.get(type_, 0) + 1
        self._emitted[type_] = n
        period = DEFAULT_SAMPLE_PERIODS.get(type_, 1)
        if period > 1 and (n - 1) % period:
            self.dropped[type_] = self.dropped.get(type_, 0) + 1
        else:
            self._post("event", event.as_dict())
        self._since_snapshot += 1
        if self._since_snapshot >= self._snapshot_every:
            self.send_snapshot()

    def send_snapshot(self, stats=None, final: bool = False) -> None:
        """Ship a structured metrics snapshot + the drop ledger."""
        payload: dict = {
            "final": final,
            "emitted": dict(self._emitted),
            "dropped": dict(self.dropped),
        }
        obs = self._observation
        if obs is not None:
            if stats is not None:
                stats.publish_to(obs.metrics)
            for type_, count in obs.bus.counts.items():
                obs.metrics.gauge(f"events.{type_}").set(count)
            payload["metrics"] = obs.metrics.snapshot()
        self._since_snapshot = 0
        self._post("snapshot", payload)

    # ------------------------------------------------------------------
    def _post(self, kind: str, payload: dict) -> None:
        envelope = {
            "run": self.run,
            "worker": self.worker,
            "seq": self._seq,
            "kind": kind,
            "payload": payload,
        }
        # The sequence number advances even when the send fails, so a
        # one-off transport error surfaces as a gap on the parent side
        # instead of vanishing.
        self._seq += 1
        if self._broken:
            self.transport_failures += 1
            return
        try:
            self._send_raw(("telemetry", envelope))
        except (OSError, ValueError):
            self._broken = True
            self.transport_failures += 1


# Process-local ambient relay: ``_worker_main`` installs it before the
# task runs; ``execute_spec`` picks it up without any signature change.
_current_relay: TelemetryRelay | None = None


def set_current_relay(relay: TelemetryRelay | None) -> None:
    """Install (or clear) this process's ambient telemetry relay."""
    global _current_relay
    _current_relay = relay


def current_relay() -> TelemetryRelay | None:
    """The ambient relay installed for the current task, if any."""
    return _current_relay


# ======================================================================
# Parent side
# ======================================================================
class TelemetryAggregator:
    """Merges worker telemetry into campaign-level rollups.

    Cell lifecycle comes from the executor's hooks
    (:meth:`register_specs`, :meth:`on_run_started`,
    :meth:`on_run_retried`, :meth:`on_run_settled`); event/metric
    streams come from :meth:`ingest`.  All drop paths are explicit:
    sampling drops are reported by the workers themselves, transport
    gaps are inferred from per-worker sequence numbers, and duplicate
    or out-of-order envelopes are counted and discarded.
    """

    def __init__(
        self,
        jobs: int = 1,
        clock: Callable[[], float] = time.monotonic,
        on_update: Callable[["TelemetryAggregator"], None] | None = None,
    ):
        self.jobs = max(1, jobs)
        self._clock = clock
        self._on_update = on_update
        self.started_at = clock()
        self.cells: dict[str, str] = {}
        self.attempts: dict[str, int] = {}
        self.retried_cells: set[str] = set()
        self.durations: dict[str, float] = {}
        self.sim_cycles: dict[str, int] = {}
        self.records = 0
        self.sampled_events = 0
        self.duplicates = 0
        self.transport_drops = 0
        self.event_counts: dict[str, int] = {}
        self._last_seq: dict[tuple[str, int], int] = {}
        self._run_emitted: dict[str, dict[str, int]] = {}
        self._run_dropped: dict[str, dict[str, int]] = {}
        self._run_metrics: dict[str, dict] = {}

    # -- executor lifecycle hooks --------------------------------------
    def register_specs(self, specs) -> None:
        """Declare the campaign matrix (specs have ``.key``)."""
        for spec in specs:
            self.cells.setdefault(spec.key, PENDING)
        self._notify()

    def on_run_started(self, key: str, attempt: int = 1) -> None:
        self.cells[key] = RUNNING
        self.attempts[key] = attempt
        self._notify()

    def on_run_retried(self, key: str) -> None:
        self.retried_cells.add(key)
        self.cells[key] = PENDING
        self._notify()

    def on_run_settled(self, outcome) -> None:
        """A cell reached a final state (a ``RunOutcome``)."""
        key = outcome.key
        self.cells[key] = outcome.status
        self.attempts[key] = outcome.attempts
        if outcome.attempts > 1:
            self.retried_cells.add(key)
        self.durations[key] = outcome.duration
        if outcome.stats:
            self.sim_cycles[key] = outcome.stats.get("cycles", 0)
        self._notify()

    # -- telemetry stream ----------------------------------------------
    def ingest(self, envelope: dict) -> None:
        """Merge one relay envelope; never raises on malformed input."""
        if not isinstance(envelope, dict):
            self.duplicates += 1
            return
        self.records += 1
        run = envelope.get("run", "")
        source = (run, envelope.get("worker", 0))
        seq = envelope.get("seq")
        if isinstance(seq, int):
            last = self._last_seq.get(source, -1)
            if seq <= last:
                self.duplicates += 1
                return
            if seq > last + 1:
                self.transport_drops += seq - last - 1
            self._last_seq[source] = seq
        kind = envelope.get("kind")
        payload = envelope.get("payload") or {}
        if kind == "event":
            self.sampled_events += 1
            type_ = payload.get("type", "?")
            self.event_counts[type_] = self.event_counts.get(type_, 0) + 1
        elif kind == "snapshot":
            self._run_emitted[run] = dict(payload.get("emitted") or {})
            self._run_dropped[run] = dict(payload.get("dropped") or {})
            metrics = payload.get("metrics")
            if metrics:
                self._run_metrics[run] = metrics
        self._notify()

    def _notify(self) -> None:
        if self._on_update is not None:
            self._on_update(self)

    # -- rollups --------------------------------------------------------
    def _merged_histograms(self) -> dict[str, dict[str, dict]]:
        """Per-workload bucket-wise histogram merges with percentiles.

        Only the *latest* snapshot per run participates (snapshots are
        cumulative), and merges require identical edges; a mismatched
        shard is surfaced under ``"incompatible_shards"`` rather than
        silently skipped.
        """
        by_workload: dict[str, dict[str, dict]] = {}
        incompatible = 0
        for run, metrics in sorted(self._run_metrics.items()):
            workload = run.split("/", 1)[0]
            target = by_workload.setdefault(workload, {})
            for name, hist in (metrics.get("histograms") or {}).items():
                merged = target.get(name)
                if merged is None:
                    target[name] = {
                        "edges": list(hist["edges"]),
                        "counts": list(hist["counts"]),
                        "count": hist["count"],
                        "sum": hist["sum"],
                        "min": hist["min"],
                        "max": hist["max"],
                    }
                    continue
                if list(hist["edges"]) != merged["edges"]:
                    incompatible += 1
                    continue
                merged["counts"] = [
                    a + b for a, b in zip(merged["counts"], hist["counts"])
                ]
                merged["count"] += hist["count"]
                merged["sum"] += hist["sum"]
                for field, pick in (("min", min), ("max", max)):
                    values = [
                        v for v in (merged[field], hist[field]) if v is not None
                    ]
                    merged[field] = pick(values) if values else None
        for hists in by_workload.values():
            for name, merged in hists.items():
                merged.update(_percentiles_of(merged))
        if incompatible:
            by_workload["incompatible_shards"] = {"count": incompatible}
        return by_workload

    def sampling_drops(self) -> dict[str, int]:
        """Per-type sampling drops summed over runs (latest snapshots)."""
        total: dict[str, int] = {}
        for dropped in self._run_dropped.values():
            for type_, count in dropped.items():
                total[type_] = total.get(type_, 0) + count
        return total

    def emitted_counts(self) -> dict[str, int]:
        """Per-type *emitted* counts summed over runs (exact, from the
        workers' own tallies — independent of sampling)."""
        total: dict[str, int] = {}
        for emitted in self._run_emitted.values():
            for type_, count in emitted.items():
                total[type_] = total.get(type_, 0) + count
        return total

    def eta_seconds(self) -> float | None:
        """Remaining-cell estimate from the mean settled duration."""
        if not self.durations:
            return None
        remaining = sum(
            1 for status in self.cells.values() if status in (PENDING, RUNNING)
        )
        if not remaining:
            return 0.0
        mean = sum(self.durations.values()) / len(self.durations)
        return remaining * mean / self.jobs

    def rollup(self) -> dict:
        """The campaign-level JSON-safe rollup."""
        statuses = list(self.cells.values())
        wall = max(1e-9, self._clock() - self.started_at)
        total_cycles = sum(self.sim_cycles.values())
        busy = sum(self.durations.values())
        sampling = self.sampling_drops()
        return {
            "cells": {
                "total": len(statuses),
                "ok": statuses.count(OK),
                "failed": statuses.count(FAILED),
                "timeout": statuses.count(TIMEOUT),
                "running": statuses.count(RUNNING),
                "pending": statuses.count(PENDING),
                "retried": len(self.retried_cells),
            },
            "by_cell": {
                key: {
                    "status": status,
                    "attempts": self.attempts.get(key, 0),
                    "duration": round(self.durations.get(key, 0.0), 3),
                }
                for key, status in sorted(self.cells.items())
            },
            "throughput": {
                "simulated_cycles": total_cycles,
                "wall_seconds": round(wall, 3),
                "busy_seconds": round(busy, 3),
                "cycles_per_sec": total_cycles / busy if busy else 0.0,
                "eta_seconds": self.eta_seconds(),
            },
            "events": {
                "emitted": self.emitted_counts(),
                "sampled": self.sampled_events,
                "sampled_by_type": dict(sorted(self.event_counts.items())),
            },
            "drops": {
                "sampling": sampling,
                "sampling_total": sum(sampling.values()),
                "transport": self.transport_drops,
                "duplicates": self.duplicates,
            },
            # Sampled-simulation lifecycle (zero outside `repro sample`
            # campaigns; the executor feeds these from the parent bus).
            "sampled_simulation": {
                "checkpoints": self.event_counts.get("sample_checkpoint", 0),
                "windows": self.event_counts.get("sample_window_done", 0),
                "estimates": self.event_counts.get("sample_estimate", 0),
            },
            "histograms": self._merged_histograms(),
        }


def _percentiles_of(hist_dict: dict) -> dict[str, float | None]:
    """p50/p95/p99 of a merged histogram dict (edges + counts)."""
    hist = Histogram("merged", tuple(hist_dict["edges"]))
    hist.counts = list(hist_dict["counts"])
    hist.total = hist_dict["count"]
    hist.sum = hist_dict["sum"]
    hist.min = hist_dict["min"]
    hist.max = hist_dict["max"]
    return hist.percentiles()


# ======================================================================
# --follow progress view
# ======================================================================
_STATUS_CHARS = {PENDING: ".", RUNNING: "~", OK: "#", FAILED: "X", TIMEOUT: "T"}


class CampaignProgressView:
    """Live terminal rendering of the campaign matrix with ETA.

    On a tty the matrix is redrawn in place (cursor-up + erase-line
    ANSI); otherwise one compact status line is printed whenever the
    settled-cell count changes, so piped output stays readable.
    """

    def __init__(self, specs, stream=None, min_interval: float = 0.1,
                 clock: Callable[[], float] = time.monotonic):
        import sys

        self.workloads: list[str] = []
        self.modes: list[str] = []
        for spec in specs:
            if spec.workload not in self.workloads:
                self.workloads.append(spec.workload)
            if spec.mode not in self.modes:
                self.modes.append(spec.mode)
        self.stream = stream if stream is not None else sys.stdout
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._min_interval = min_interval
        self._clock = clock
        self._last_render = 0.0
        self._lines = 0
        self._last_done = -1

    # ------------------------------------------------------------------
    def render(self, aggregator: TelemetryAggregator, force: bool = False) -> None:
        """Aggregator ``on_update`` callback (rate-limited)."""
        now = self._clock()
        if not force and now - self._last_render < self._min_interval:
            return
        self._last_render = now
        if self._tty:
            self._render_matrix(aggregator)
        else:
            self._render_line(aggregator, force)

    def finish(self, aggregator: TelemetryAggregator) -> None:
        """Final forced render + trailing newline."""
        self.render(aggregator, force=True)
        if self._tty:
            self.stream.write("\n")
            self.stream.flush()

    # ------------------------------------------------------------------
    def _summary(self, aggregator: TelemetryAggregator) -> str:
        statuses = list(aggregator.cells.values())
        done = (
            statuses.count(OK) + statuses.count(FAILED)
            + statuses.count(TIMEOUT)
        )
        parts = [
            f"{done}/{len(statuses)} done",
            f"ok={statuses.count(OK)}",
            f"failed={statuses.count(FAILED) + statuses.count(TIMEOUT)}",
            f"running={statuses.count(RUNNING)}",
        ]
        eta = aggregator.eta_seconds()
        if eta is not None:
            parts.append(f"eta={eta:.0f}s")
        if aggregator.transport_drops or aggregator.duplicates:
            parts.append(
                f"drops={aggregator.transport_drops}"
                f"+{aggregator.duplicates}dup"
            )
        return "  ".join(parts)

    def _matrix_lines(self, aggregator: TelemetryAggregator) -> list[str]:
        width = max((len(w) for w in self.workloads), default=8)
        cols = [m[:10] for m in self.modes]
        lines = [
            " " * (width + 1)
            + " ".join(f"{c:>10s}" for c in cols)
        ]
        for workload in self.workloads:
            row = [f"{workload:>{width}s}"]
            for mode in self.modes:
                status = aggregator.cells.get(f"{workload}/{mode}", PENDING)
                row.append(f"{_STATUS_CHARS.get(status, '?'):>10s}")
            lines.append(" ".join(row))
        lines.append(self._summary(aggregator))
        return lines

    def _render_matrix(self, aggregator: TelemetryAggregator) -> None:
        lines = self._matrix_lines(aggregator)
        out = []
        if self._lines:
            out.append(f"\x1b[{self._lines}A")
        for line in lines:
            out.append("\x1b[2K" + line + "\n")
        self.stream.write("".join(out))
        self.stream.flush()
        self._lines = len(lines)

    def _render_line(self, aggregator: TelemetryAggregator, force: bool) -> None:
        statuses = list(aggregator.cells.values())
        done = (
            statuses.count(OK) + statuses.count(FAILED)
            + statuses.count(TIMEOUT)
        )
        if done == self._last_done and not force:
            return
        self._last_done = done
        self.stream.write("campaign: " + self._summary(aggregator) + "\n")
        self.stream.flush()
