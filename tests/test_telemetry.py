"""Cross-process campaign telemetry: relay, aggregator, progress view.

Covers the ISSUE 6 tentpole layer 1 plus its satellite: forced-sampling
drop-counter correctness, out-of-order/duplicate sequence numbers,
worker crash mid-stream, end-to-end inline and pool campaigns, and the
``--follow`` progress rendering.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.harness import CampaignExecutor, RunSpec
from repro.obs import (
    CampaignProgressView,
    Observation,
    TelemetryAggregator,
    TelemetryRelay,
    current_relay,
    set_current_relay,
)
from repro.obs.aggregate import DEFAULT_SAMPLE_PERIODS


# ======================================================================
# Relay unit tests
# ======================================================================
class _Sink:
    def __init__(self):
        self.messages = []

    def send(self, msg):
        self.messages.append(msg)


def test_relay_samples_and_counts_drops():
    """1-in-N sampling forwards exactly ceil(n/N) and counts the rest."""
    sink = _Sink()
    relay = TelemetryRelay(sink.send, run="w/m", snapshot_every=10**9)
    obs = Observation(record_events=False)
    relay.attach(obs)
    period = DEFAULT_SAMPLE_PERIODS["branch_retire"]
    emitted = 2 * period + 2
    for i in range(emitted):
        obs.bus.emit("branch_retire", pc=64, mispredicted=False)
    events = [m for m in sink.messages if m[1]["kind"] == "event"]
    assert len(events) == 3  # indices 0, period, 2 * period
    assert relay.dropped == {"branch_retire": emitted - 3}
    relay.send_snapshot()
    snapshot = sink.messages[-1][1]
    assert snapshot["kind"] == "snapshot"
    assert snapshot["payload"]["dropped"] == {"branch_retire": emitted - 3}
    assert snapshot["payload"]["emitted"] == {"branch_retire": emitted}


def test_relay_unsampled_types_forward_everything():
    sink = _Sink()
    relay = TelemetryRelay(sink.send, run="w/m", snapshot_every=10**9)
    obs = Observation(record_events=False)
    relay.attach(obs)
    for _ in range(5):
        obs.bus.emit("early_flush", penalty=3)
    events = [m for m in sink.messages if m[1]["kind"] == "event"]
    assert len(events) == 5
    assert relay.dropped == {}


def test_relay_envelopes_are_tagged_and_sequenced():
    sink = _Sink()
    relay = TelemetryRelay(sink.send, run="xz/tea", worker=3)
    relay.send_snapshot()
    relay.send_snapshot()
    envelopes = [m[1] for m in sink.messages]
    assert [e["seq"] for e in envelopes] == [0, 1]
    assert all(e["run"] == "xz/tea" and e["worker"] == 3 for e in envelopes)
    assert all(m[0] == "telemetry" for m in sink.messages)


def test_relay_transport_failure_burns_sequence_numbers():
    """A failed send must surface as a seq gap, never silence."""
    calls = {"n": 0}

    def flaky_send(msg):
        calls["n"] += 1
        if calls["n"] == 2:
            raise OSError("pipe gone")

    relay = TelemetryRelay(flaky_send, run="w/m")
    relay.send_snapshot()      # seq 0, delivered
    relay.send_snapshot()      # seq 1, raises -> relay marked broken
    relay.send_snapshot()      # seq 2, skipped (broken)
    assert relay.transport_failures == 2
    assert relay._seq == 3


def test_relay_periodic_snapshots():
    sink = _Sink()
    relay = TelemetryRelay(sink.send, run="w/m", snapshot_every=8)
    obs = Observation(record_events=False)
    relay.attach(obs)
    for _ in range(20):
        obs.bus.emit("early_flush", penalty=1)
    kinds = [m[1]["kind"] for m in sink.messages]
    assert kinds.count("snapshot") == 2


def test_ambient_relay_slot():
    assert current_relay() is None
    relay = TelemetryRelay(lambda m: None, run="w/m")
    set_current_relay(relay)
    try:
        assert current_relay() is relay
    finally:
        set_current_relay(None)
    assert current_relay() is None


# ======================================================================
# Aggregator unit tests
# ======================================================================
def _envelope(seq, kind="event", run="w/m", worker=1, payload=None):
    return {
        "run": run,
        "worker": worker,
        "seq": seq,
        "kind": kind,
        "payload": payload if payload is not None else {"type": "flush"},
    }


def test_aggregator_detects_transport_gaps():
    agg = TelemetryAggregator()
    agg.ingest(_envelope(0))
    agg.ingest(_envelope(1))
    agg.ingest(_envelope(5))   # 2, 3, 4 lost in transport
    assert agg.transport_drops == 3
    assert agg.sampled_events == 3


def test_aggregator_ignores_duplicates_and_reordering():
    agg = TelemetryAggregator()
    agg.ingest(_envelope(0))
    agg.ingest(_envelope(1))
    agg.ingest(_envelope(1))   # duplicate
    agg.ingest(_envelope(0))   # stale reordering
    assert agg.duplicates == 2
    assert agg.sampled_events == 2
    assert agg.transport_drops == 0


def test_aggregator_tracks_sources_independently():
    agg = TelemetryAggregator()
    agg.ingest(_envelope(0, worker=1))
    agg.ingest(_envelope(0, worker=2))  # separate seq space, no dup
    agg.ingest(_envelope(0, run="a/b", worker=1))
    assert agg.duplicates == 0
    assert agg.sampled_events == 3


def test_aggregator_rollup_merges_histograms_with_percentiles():
    agg = TelemetryAggregator()

    def snapshot(run, counts):
        return _envelope(
            0,
            kind="snapshot",
            run=run,
            payload={
                "emitted": {},
                "dropped": {},
                "metrics": {
                    "counters": {},
                    "gauges": {},
                    "histograms": {
                        "tea.chain_length": {
                            "edges": [1, 2, 4],
                            "counts": counts,
                            "count": sum(counts),
                            "sum": 10,
                            "min": 1,
                            "max": 4,
                        }
                    },
                },
            },
        )

    # Two modes of the same workload merge bucket-wise.
    agg.ingest(snapshot("xz/tea", [1, 2, 3, 0]))
    agg.ingest(snapshot("xz/baseline", [2, 0, 1, 0]))
    rollup = agg.rollup()
    merged = rollup["histograms"]["xz"]["tea.chain_length"]
    assert merged["counts"] == [3, 2, 4, 0]
    assert merged["count"] == 9
    assert merged["p50"] is not None and merged["p99"] is not None


def test_aggregator_rollup_reports_sampling_drops():
    agg = TelemetryAggregator()
    agg.ingest(_envelope(0, kind="snapshot", payload={
        "emitted": {"branch_retire": 100},
        "dropped": {"branch_retire": 75},
    }))
    rollup = agg.rollup()
    assert rollup["drops"]["sampling"] == {"branch_retire": 75}
    assert rollup["drops"]["sampling_total"] == 75
    assert rollup["events"]["emitted"] == {"branch_retire": 100}


def test_aggregator_cell_lifecycle_and_eta():
    clock = {"t": 0.0}
    agg = TelemetryAggregator(jobs=2, clock=lambda: clock["t"])
    specs = [RunSpec("a", "tea"), RunSpec("b", "tea"), RunSpec("c", "tea")]
    agg.register_specs(specs)
    assert agg.rollup()["cells"]["pending"] == 3
    agg.on_run_started("a/tea")

    class Outcome:
        key = "a/tea"
        status = "ok"
        attempts = 1
        duration = 10.0
        stats = {"cycles": 1000}

    agg.on_run_settled(Outcome())
    rollup = agg.rollup()
    assert rollup["cells"]["ok"] == 1
    assert rollup["cells"]["pending"] == 2
    # 2 remaining cells x 10s mean / 2 jobs = 10s.
    assert rollup["throughput"]["eta_seconds"] == pytest.approx(10.0)
    assert rollup["throughput"]["simulated_cycles"] == 1000


def test_aggregator_never_raises_on_malformed_input():
    agg = TelemetryAggregator()
    agg.ingest("not a dict")
    agg.ingest({"seq": "NaN", "kind": "event"})
    agg.ingest({})
    assert agg.duplicates >= 1  # the non-dict is counted, not raised


# ======================================================================
# End-to-end campaigns
# ======================================================================
def test_inline_campaign_streams_telemetry():
    agg = TelemetryAggregator()
    executor = CampaignExecutor(jobs=0, telemetry=agg)
    specs = [RunSpec("xz", "tea", scale="tiny", max_cycles=200_000)]
    outcomes = executor.run(specs)
    assert all(o.ok for o in outcomes)
    assert current_relay() is None  # inline relay cleared afterwards
    rollup = agg.rollup()
    assert rollup["cells"]["ok"] == 1
    assert rollup["events"]["sampled"] > 0
    # Exact per-type totals come from the final worker snapshot.
    assert rollup["events"]["emitted"]["branch_resolved"] > 0
    assert rollup["drops"]["transport"] == 0
    assert rollup["drops"]["duplicates"] == 0
    # Sampling drops are declared, not silent.
    sampled_types = set(DEFAULT_SAMPLE_PERIODS) & set(
        rollup["events"]["emitted"]
    )
    assert any(t in rollup["drops"]["sampling"] for t in sampled_types)
    # Histograms made it across with percentiles.
    hists = rollup["histograms"]["xz"]
    assert hists["tea.cycles_saved"]["count"] > 0
    assert "p95" in hists["tea.cycles_saved"]


def test_pool_campaign_streams_telemetry():
    agg = TelemetryAggregator()
    executor = CampaignExecutor(jobs=2, telemetry=agg)
    specs = [
        RunSpec("xz", "tea", scale="tiny", max_cycles=200_000),
        RunSpec("xz", "baseline", scale="tiny", max_cycles=200_000),
    ]
    outcomes = executor.run(specs)
    assert all(o.ok for o in outcomes)
    rollup = agg.rollup()
    assert rollup["cells"] == {
        "total": 2, "ok": 2, "failed": 0, "timeout": 0,
        "running": 0, "pending": 0, "retried": 0,
    }
    assert rollup["events"]["sampled"] > 0
    assert rollup["drops"]["transport"] == 0
    assert rollup["throughput"]["simulated_cycles"] > 0


def _crashing_task(record):
    """Module-level (picklable) task that dies mid-telemetry-stream."""
    relay = current_relay()
    if relay is not None:
        for i in range(5):
            relay._post("event", {"type": "flush", "cycle": i})
    os._exit(17)


def test_pool_worker_crash_mid_stream():
    """A worker dying mid-stream must not wedge or corrupt the parent:
    pre-crash telemetry is kept, the cell retries and finally fails."""
    agg = TelemetryAggregator()
    executor = CampaignExecutor(
        jobs=1, retries=1, backoff=0.0, task=_crashing_task, telemetry=agg
    )
    outcomes = executor.run([RunSpec("xz", "tea", scale="tiny")])
    assert outcomes[0].status == "failed"
    assert outcomes[0].failure.exception == "WorkerDied"
    assert outcomes[0].attempts == 2
    assert agg.sampled_events == 10  # 5 from each attempt
    rollup = agg.rollup()
    assert rollup["cells"]["failed"] == 1
    assert rollup["cells"]["retried"] == 1


def test_pool_each_attempt_gets_fresh_worker_id():
    agg = TelemetryAggregator()
    executor = CampaignExecutor(
        jobs=1, retries=1, backoff=0.0, task=_crashing_task, telemetry=agg
    )
    executor.run([RunSpec("xz", "tea", scale="tiny")])
    # Two attempts -> two (run, worker) sources, no false duplicates.
    assert len(agg._last_seq) == 2
    assert agg.duplicates == 0


# ======================================================================
# Progress view
# ======================================================================
def _specs_matrix():
    return [
        RunSpec(w, m, scale="tiny")
        for w in ("bfs", "xz")
        for m in ("baseline", "tea")
    ]


def test_progress_view_non_tty_prints_status_lines():
    stream = io.StringIO()
    specs = _specs_matrix()
    view = CampaignProgressView(specs, stream=stream, min_interval=0.0)
    agg = TelemetryAggregator(on_update=view.render)
    agg.register_specs(specs)
    agg.on_run_started("bfs/baseline")

    class Outcome:
        key = "bfs/baseline"
        status = "ok"
        attempts = 1
        duration = 1.0
        stats = {"cycles": 10}

    agg.on_run_settled(Outcome())
    view.finish(agg)
    out = stream.getvalue()
    assert "campaign:" in out
    assert "1/4 done" in out
    assert "ok=1" in out


def test_progress_view_tty_renders_matrix_in_place():
    class Tty(io.StringIO):
        def isatty(self):
            return True

    stream = Tty()
    specs = _specs_matrix()
    view = CampaignProgressView(specs, stream=stream, min_interval=0.0)
    agg = TelemetryAggregator()
    agg.register_specs(specs)
    view.render(agg, force=True)
    out = stream.getvalue()
    assert "bfs" in out and "xz" in out
    assert "baseline" in out and "tea" in out
    view.render(agg, force=True)
    # Second render rewinds with cursor-up and erases lines.
    assert "\x1b[" in stream.getvalue()


def test_rollup_is_json_serializable():
    agg = TelemetryAggregator()
    agg.register_specs(_specs_matrix())
    agg.ingest(_envelope(0))
    json.dumps(agg.rollup())
