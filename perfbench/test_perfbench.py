"""Tests for the benchmark's own code (no simulation is run).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import suites  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
def test_metric_names_are_valid_and_unique():
    entries = SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry


def test_spec_matches_what_the_benchmark_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(suites.SUITES)
    assert set(layers.EXPECTED_CALLS) == set(suites.SUITES)
    for end_to_end in SPEC["end_to_end"]:
        assert 0 < end_to_end["bound"] <= 0.25


def test_self_time_metrics_name_wrapped_spans():
    wrapped = {t.span for t in layers.targets(spans.Tracer(), ROOT)}
    for span_names in layers.SELF_TIME.values():
        assert set(span_names) <= wrapped
    for expected in layers.EXPECTED_CALLS.values():
        assert set(expected) <= wrapped


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def traced_tree(tracer, clock, tree, start):
    """Replay ``(name, duration, children)`` with children laid out
    back to back from one second into their parent."""
    name, duration, children = tree
    clock.now = start
    frame = tracer.enter(name)
    cursor = start + 1.0
    for child in children:
        cursor = traced_tree(tracer, clock, child, cursor)
    clock.now = start + duration
    tracer.exit(frame)
    return start + duration


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock, keep=frozenset("ABCD"))
    tree = ("A", 10.0, [("B", 3.0, [("C", 1.0, [])]), ("B", 2.0, []),
                        ("D", 1.5, [])])
    traced_tree(tracer, clock, tree, 0.0)
    want = {"A": 10.0 - 3.0 - 2.0 - 1.5, "B": (3.0 - 1.0) + 2.0,
            "C": 1.0, "D": 1.5}
    assert dict(tracer.self_time) == pytest.approx(want)
    assert spans.self_times(tracer.spans) == pytest.approx(want)
    assert tracer.calls == {"A": 1, "B": 2, "C": 1, "D": 1}
    assert tracer.total["A"] == 10.0


def test_self_times_counts_overlapping_children_once():
    records = [
        ("p", "parent", 0.0, 10.0, None),
        ("c1", "child", 1.0, 5.0, "p"),
        ("c2", "child", 3.0, 8.0, "p"),    # overlaps c1 by 2 s
        ("c3", "child", 9.0, 12.0, "p"),   # runs past the parent's end
    ]
    got = spans.self_times(records)
    assert got["parent"] == pytest.approx(10.0 - 7.0 - 1.0)
    assert got["child"] == pytest.approx(4.0 + 5.0 + 3.0)


def test_merge_sums_process_dumps():
    a, b = spans.Tracer(), spans.Tracer()
    a.counters["core.cycles"] += 5
    b.counters["core.cycles"] += 7
    b.calls["Pipeline.step"] += 3
    merged = spans.merge([a.snapshot(), b.snapshot()])
    assert merged["counters"]["core.cycles"] == 12
    assert merged["calls"]["Pipeline.step"] == 3


# ----------------------------------------------------------------------
# Wrapper installation
# ----------------------------------------------------------------------
def test_instrumentation_wraps_imported_names_and_restores_them():
    import repro.fuzz.oracle as oracle
    import repro.isa.interpreter as interpreter
    from repro.core.scheduler import Scheduler

    original_run, original_select = interpreter.run_program, Scheduler.select
    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer, [
        spans.Target("run_program", "repro.isa.interpreter:run_program"),
        spans.Target("Scheduler.select", "repro.core.scheduler:Scheduler.select"),
    ])
    instrumentation.install()
    try:
        # The oracle imported run_program by name; it must be wrapped too.
        assert oracle.run_program is interpreter.run_program
        assert oracle.run_program is not original_run
        assert Scheduler.select is not original_select
    finally:
        instrumentation.remove()
    assert interpreter.run_program is original_run
    assert oracle.run_program is original_run
    assert Scheduler.select is original_select


def test_missing_calls_names_silent_wrappers():
    calls = Counter(dict.fromkeys(layers.EXPECTED_CALLS["fuzz"], 1))
    assert layers.missing_calls("fuzz", calls) == []
    del calls["InvariantChecker.maybe_audit"]
    assert layers.missing_calls("fuzz", calls) == ["InvariantChecker.maybe_audit"]


def test_layer_metrics_quiet_layers_are_zero():
    merged = spans.merge([])
    metrics = layers.layer_metrics(merged)
    assert set(metrics) <= set(layers.PER_LAYER)
    assert all(value == 0 for value in metrics.values())


# ----------------------------------------------------------------------
# Output checks and error_rate
# ----------------------------------------------------------------------
def golden_outcomes(campaign):
    from repro.harness.executor import RunOutcome

    return [RunOutcome(spec=spec, status="ok", validated=True,
                       stats=dict(campaign.golden[spec.key]))
            for spec in campaign.specs]


def test_campaign_check_counts_a_mismatched_cell():
    campaign = suites.Campaign(ROOT, 0, 1)
    outcomes = golden_outcomes(campaign)
    assert campaign.check(outcomes, ROOT) == []
    outcomes[3].stats["cycles"] += 1
    failed = campaign.check(outcomes, ROOT)
    assert failed == [outcomes[3].key]
    batch = run.Batch(1.0, {}, failed, campaign.digest(outcomes))
    assert run.error_rate([batch], campaign.operations) == pytest.approx(1 / 12)


def test_campaign_check_fails_unvalidated_and_missing_cells():
    campaign = suites.Campaign(ROOT, 0, 1)
    outcomes = golden_outcomes(campaign)
    outcomes[0].validated = False
    del outcomes[5]
    assert campaign.check(outcomes, ROOT) == [campaign.specs[0].key,
                                              campaign.specs[5].key]


def test_fuzz_check_counts_failing_seeds():
    fuzz = suites.Fuzz(ROOT, 2, 1)
    seeds = list(fuzz.seeds)
    report = {"seeds": seeds, "counts": {"pass": 62},
              "unique_failures": [{"seeds": [seeds[1], seeds[9]]}]}
    assert fuzz.check(report, ROOT) == [f"seed-{seeds[1]}", f"seed-{seeds[9]}"]
    report["counts"]["pass"] = 64
    assert len(fuzz.check(report, ROOT)) == 64


def test_divergent_digest_fails_every_operation():
    batches = [run.Batch(1.0, {}, [], "a"), run.Batch(1.0, {}, [], "b")]
    run.mark_divergent(batches, 8, None)
    assert batches[0].failed == [] and len(batches[1].failed) == 8
    assert run.error_rate(batches, 8) == 0.5
    fresh = [run.Batch(1.0, {}, [], "a")]
    run.mark_divergent(fresh, 8, "recorded-elsewhere")
    assert len(fresh[0].failed) == 8
    raised = [run.Batch(1.0, {}, ["op-0"], None), run.Batch(1.0, {}, [], "a")]
    run.mark_divergent(raised, 8, None)
    assert raised[1].failed == []


def test_recorded_digest_is_keyed_by_source(tmp_path):
    path = tmp_path / "digests.json"
    assert run.recorded_digest(path, "src1", "fuzz:0", None) is None
    assert not path.exists()
    assert run.recorded_digest(path, "src1", "fuzz:0", "a") == "a"
    assert run.recorded_digest(path, "src1", "fuzz:0", "b") == "a"
    # Changed code records afresh instead of failing against old output.
    assert run.recorded_digest(path, "src2", "fuzz:0", "b") == "b"
    assert run.recorded_digest(path, "src1", "fuzz:0", "c") == "c"


def test_settle_records_only_a_clean_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    suite = suites.Fuzz(ROOT, 0, 1)
    bad = [run.Batch(1.0, {}, ["seed-3"], "wrong")]
    run.settle(suite, bad)
    assert bad[0].failed == ["seed-3"]
    good = [run.Batch(1.0, {}, [], "right"), run.Batch(1.0, {}, [], "right")]
    run.settle(suite, good)
    assert all(b.failed == [] for b in good)
    later = [run.Batch(1.0, {}, [], "drifted")]
    run.settle(suite, later)
    assert len(later[0].failed) == suite.operations


# ----------------------------------------------------------------------
# rusage helpers
# ----------------------------------------------------------------------
def test_rusage_delta_and_peak_rss_arithmetic():
    before = {"self_cpu": 1.0, "child_cpu": 2.0, "self_rss_kib": 0,
              "child_rss_kib": 0}
    after = {"self_cpu": 1.5, "child_cpu": 6.0, "self_rss_kib": 2048,
             "child_rss_kib": 1024}
    assert run.rusage_delta(before, after) == {
        "coordinator_cpu_s": 0.5, "worker_cpu_s": 4.0}
    assert run.peak_rss_mb(after) == 3.0


def test_rusage_delta_attributes_child_cpu_to_workers():
    before = run.rusage_snapshot()
    subprocess.run([sys.executable, "-c",
                    "import time\nt = time.process_time()\n"
                    "while time.process_time() - t < 0.3: pass"], check=True)
    delta = run.rusage_delta(before, run.rusage_snapshot())
    assert delta["worker_cpu_s"] >= 0.25
    assert delta["coordinator_cpu_s"] < delta["worker_cpu_s"]


def test_benchmark_refuses_to_run_without_the_repository(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
