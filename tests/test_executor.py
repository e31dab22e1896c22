"""Tests for the fault-tolerant campaign executor: retry/backoff,
per-run timeouts, the cell store and kill-and-resume, failure records,
run-lifecycle telemetry, and parallel/serial determinism."""

import json
import multiprocessing as mp
import os
import time

import pytest

from repro.harness import (
    MODES,
    CampaignExecutor,
    CellStore,
    ExperimentSuite,
    RunSpec,
    cell_key,
    matrix_specs,
    summarize_outcomes,
)
from repro.harness.executor import (
    FATAL,
    RETRYABLE,
    TIMEOUT,
    RunFailure,
    RunOutcome,
    classify_exception,
    execute_spec,
)
from repro.obs import Observation


# ----------------------------------------------------------------------
# Module-level tasks: process-mode workers pickle the callable, so
# everything spawned with jobs >= 1 must live at module scope.
# ----------------------------------------------------------------------
def ok_task(record):
    return {
        "stats": {"cycles": 100, "retired_instructions": 250},
        "validated": True,
        "halted": True,
    }


def fatal_task(record):
    if record["workload"] == "bad":
        raise ValueError("deterministic model bug")
    return ok_task(record)


def flaky_task(record):
    """Fails with a transient OSError on the first attempt per cell,
    tracked through marker files so it works across processes."""
    marker = os.path.join(
        os.environ["FLAKY_DIR"], record["workload"] + "_" + record["mode"]
    )
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempted")
        raise OSError("transient worker failure")
    return ok_task(record)


def hang_task(record):
    if record["workload"] == "slow":
        time.sleep(60)
    return ok_task(record)


def dying_task(record):
    os._exit(3)


def faulty_fig5_task(record):
    """Real simulation, plus one injected transient failure (xz/tea,
    first attempt only) and one injected hang (mcf/tea)."""
    if record["workload"] == "mcf" and record["mode"] == "tea":
        time.sleep(60)
    if record["workload"] == "xz" and record["mode"] == "tea":
        marker = os.path.join(os.environ["FLAKY_DIR"], "xz_tea_fault")
        if not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write("attempted")
            raise OSError("injected transient fault")
    return execute_spec(record)


SPECS = [
    RunSpec("alpha", "baseline", "tiny"),
    RunSpec("beta", "baseline", "tiny"),
    RunSpec("gamma", "baseline", "tiny"),
    RunSpec("delta", "baseline", "tiny"),
]


class TestClassification:
    def test_os_errors_are_retryable(self):
        assert classify_exception("OSError") == RETRYABLE
        assert classify_exception("BrokenPipeError") == RETRYABLE
        assert classify_exception("WorkerDied") == RETRYABLE

    def test_model_errors_are_fatal(self):
        assert classify_exception("SimulationError") == FATAL
        assert classify_exception("ValidationError") == FATAL
        assert classify_exception("ConfigError") == FATAL
        assert classify_exception("ValueError") == FATAL

    def test_retryable_attribute_wins(self):
        assert classify_exception("ValueError", retryable_attr=True) == RETRYABLE


class TestInlineRetryBackoff:
    def test_flaky_run_retries_until_success(self):
        attempts = []

        def flaky(record):
            attempts.append(record["workload"])
            if len(attempts) < 3:
                raise OSError("transient")
            return ok_task(record)

        delays = []
        obs = Observation()
        executor = CampaignExecutor(
            jobs=0,
            retries=2,
            backoff=0.5,
            jitter=0.0,
            task=flaky,
            observation=obs,
            sleep=delays.append,
            clock=lambda: 0.0,
        )
        [outcome] = executor.run([SPECS[0]])
        assert outcome.ok
        assert outcome.attempts == 3
        assert len(attempts) == 3
        # Pure exponential backoff with jitter off: 0.5s then 1.0s.
        assert delays == pytest.approx([0.5, 1.0])
        assert obs.bus.counts["run_retried"] == 2
        assert obs.metrics.counter("campaign.run_retried").value == 2

    def test_retry_budget_exhausted(self):
        def always_down(record):
            raise OSError("still down")

        executor = CampaignExecutor(
            jobs=0, retries=2, task=always_down,
            sleep=lambda s: None, clock=lambda: 0.0,
        )
        [outcome] = executor.run([SPECS[0]])
        assert outcome.status == "failed"
        assert outcome.attempts == 3
        assert outcome.failure.kind == RETRYABLE

    def test_fatal_failure_not_retried(self):
        calls = []

        def fatal(record):
            calls.append(1)
            raise ValueError("model bug")

        obs = Observation()
        executor = CampaignExecutor(jobs=0, task=fatal, observation=obs)
        [outcome] = executor.run([SPECS[0]])
        assert outcome.status == "failed"
        assert len(calls) == 1
        failure = outcome.failure
        assert failure.kind == FATAL
        assert failure.exception == "ValueError"
        assert "model bug" in failure.message
        assert "ValueError" in failure.traceback
        assert len(failure.config_digest) == 12
        assert obs.bus.counts["run_failed"] == 1
        assert obs.metrics.counter("campaign.run_failed").value == 1

    def test_simulation_error_diagnostics_preserved(self):
        from repro import SimulationError

        def wedged(record):
            raise SimulationError(
                "no retirement", diagnostics={"cycle": 123, "rob_depth": 4}
            )

        executor = CampaignExecutor(jobs=0, task=wedged)
        [outcome] = executor.run([SPECS[0]])
        assert outcome.failure.kind == FATAL
        assert outcome.failure.diagnostics == {"cycle": 123, "rob_depth": 4}


def _stored_keys(path):
    return sorted(o.key for o in CellStore(path).outcomes())


def _failure(kind):
    return RunFailure(
        kind=kind, exception="E", message="m", traceback="",
        config_digest="0" * 12, seed=0,
    )


class TestCellStore:
    def _ok(self, spec=SPECS[0]):
        return RunOutcome(
            spec=spec, status="ok", attempts=3,
            stats={"cycles": 100, "retired_instructions": 250},
            validated=True, halted=True, duration=12.5,
        )

    def test_roundtrip_normalizes_wall_clock(self, tmp_path):
        store = CellStore(tmp_path)
        assert store.put(self._ok())
        got = store.get(SPECS[0])
        assert got.stats["cycles"] == 100 and got.resumed
        # Wall-clock facts of the original run do not replay.
        assert got.attempts == 1 and got.duration == 0.0
        assert store.hits == 1 and store.misses == 0

    def test_keeps_only_ok_and_fatal(self, tmp_path):
        store = CellStore(tmp_path)
        assert store.get(SPECS[0]) is None
        assert store.misses == 1
        for kind, stored in ((FATAL, True), (TIMEOUT, False),
                             (RETRYABLE, False)):
            outcome = self._ok()
            outcome.status = "timeout" if kind == TIMEOUT else "failed"
            outcome.failure = _failure(kind)
            assert store.put(outcome) is stored
            assert (store.get(SPECS[0]) is not None) is stored
            store.root.joinpath(f"{cell_key(SPECS[0])}.json").unlink(
                missing_ok=True
            )

    def test_corrupt_entry_detected_and_evicted(self, tmp_path):
        store = CellStore(tmp_path)
        store.put(self._ok())
        [entry] = list(tmp_path.glob("*.json"))
        tampered = json.loads(entry.read_text())
        tampered["payload"]["stats"]["cycles"] = 999  # bit rot
        entry.write_text(json.dumps(tampered))
        with pytest.warns(UserWarning, match="corrupt cell store entry"):
            assert store.get(SPECS[0]) is None
        assert store.integrity_failures == 1
        assert not entry.exists()  # evicted, will re-simulate

    def test_outcomes_evicts_torn_entry_and_returns_rest(self, tmp_path):
        specs = [RunSpec("xz", m, "tiny") for m in ("baseline", "tea", "runahead")]
        CampaignExecutor(jobs=0, task=ok_task).run(specs, checkpoint=tmp_path)
        torn = tmp_path / f"{cell_key(specs[2])}.json"
        torn.write_text(torn.read_text()[:40])   # crash mid-write
        store = CellStore(tmp_path)
        with pytest.warns(UserWarning, match="corrupt cell store entry"):
            outcomes = store.outcomes()
        assert {o.key for o in outcomes} == {"xz/baseline", "xz/tea"}
        assert store.integrity_failures == 1
        assert not torn.exists()

    def test_key_depends_on_spec_and_config(self):
        spec = SPECS[0]
        assert cell_key(spec) != cell_key(RunSpec("alpha", "tea", "tiny"))
        assert cell_key(spec) != cell_key(RunSpec("alpha", "baseline", "small"))
        assert cell_key(spec) != cell_key(
            RunSpec("alpha", "baseline", "tiny", seed=1)
        )


#: ``cell_key(RunSpec("xz", mode, "tiny"))`` as computed before specs
#: carried knobs: a knob-free spec must keep its key, so stores written
#: by older versions still resume.
PINNED_KEYS = {
    "baseline": "9f3198e6bb08811f5cfa907efa7a18d923844c6d2939613da17b7e7d6761d074",
    "tea": "dc022a831db58c970a591b4a43ea4ebd650c32e214254c2680a9214ab3180073",
    "tea_dedicated":
        "15e8c5e8de604b6dab438bde71d6400eb679597cf07632589bd3144f00b0caa7",
    "tea_prefetch_only":
        "dc8360e06e9fb68ab589fa4cdbd24b5fb23f1c28dbf64a8b6d86f8d33606d640",
    "tea_only_loops":
        "1d4df00eededb5495a1ec7aacfb32689e44b9825811eb3a8987f77f4371a29d1",
    "tea_no_masks":
        "7bf812bd928caf3628c14ce19f6719e8ae91e67cb52596c08e390d388c1e15cb",
    "tea_no_mem":
        "bcc3fb3f944aed90519ed07125970d781f5f0653e52a9be06623864da4a9e5e0",
    "tea_no_features":
        "e29b29da41dc25ed02ece7f822c2fa9d48544dbe1afa0e8a9449c7f29f663df2",
    "runahead": "a9aa26daf35ea0005150f7681b73935149225e588760c57cd2b99b67dae061c8",
    "crisp": "bcb6652ee4a8ca002e2759d2c68fdf081ad63c614d91b9c2ddb16e447608703c",
}


def knob_echo_task(record):
    """Reports the cell's h2p threshold knob as its cycle count."""
    knobs = dict(RunSpec.from_record(record).knobs)
    return {
        "stats": {"cycles": knobs.get("tea.h2p_threshold", 0) + 100,
                  "retired_instructions": 250},
        "validated": True,
        "halted": True,
    }


class TestKnobs:
    @pytest.mark.parametrize("mode", sorted(PINNED_KEYS))
    def test_knob_free_cell_keys_are_pinned(self, mode):
        assert cell_key(RunSpec("xz", mode, "tiny")) == PINNED_KEYS[mode]

    def test_every_mode_is_pinned(self):
        assert set(PINNED_KEYS) == set(MODES)

    def test_knobs_are_canonical(self):
        a = RunSpec("xz", "tea", knobs={"tea.walk_cycles": 9,
                                        "frontend.ftq_capacity": 8})
        b = RunSpec("xz", "tea", knobs=(("frontend.ftq_capacity", 8),
                                        ("tea.walk_cycles", 9)))
        assert a == b and hash(a) == hash(b)
        assert a.knobs == (("frontend.ftq_capacity", 8), ("tea.walk_cycles", 9))
        assert "knobs" not in RunSpec("xz", "tea").as_record()

    def test_tuple_knob_roundtrips_through_json(self):
        spec = RunSpec("bfs", "tea", "tiny",
                       knobs={"tea.branch_mask": (4, 8, 12)})
        back = RunSpec.from_record(json.loads(json.dumps(spec.as_record())))
        assert back == spec
        assert back.knobs == (("tea.branch_mask", (4, 8, 12)),)
        assert cell_key(back) == cell_key(spec)
        assert back.config_digest() != RunSpec("bfs", "tea", "tiny").config_digest()

    def test_cells_differing_only_in_knobs_settle_separately(self, tmp_path):
        specs = [RunSpec("xz", "tea", "tiny", knobs={"tea.h2p_threshold": t})
                 for t in (1, 4)]
        assert specs[0].key != specs[1].key
        outcomes = CampaignExecutor(jobs=0, task=knob_echo_task).run(
            specs, checkpoint=tmp_path
        )
        assert [o.spec for o in outcomes] == specs
        assert [o.stats["cycles"] for o in outcomes] == [101, 104]
        assert len(list(tmp_path.glob("*.json"))) == 2
        store = CellStore(tmp_path)
        assert [store.get(s).stats["cycles"] for s in specs] == [101, 104]

    def test_identical_specs_run_once(self):
        calls = []

        def counting_task(record):
            calls.append(record["workload"])
            return ok_task(record)

        spec = RunSpec("xz", "baseline", "tiny")
        outcomes = CampaignExecutor(jobs=0, task=counting_task).run(
            [spec, RunSpec("xz", "tea", "tiny"), spec]
        )
        assert len(outcomes) == 3 and outcomes[0] is outcomes[2]
        assert len(calls) == 2

    @pytest.mark.parametrize("knobs", [
        {"tea.no_such_knob": 1},
        {"tea.h2p_threshold": 99},
    ])
    def test_bad_knob_settles_as_fatal_config_error(self, knobs, tmp_path):
        spec = RunSpec("xz", "tea", "tiny", knobs=knobs)
        [outcome] = CampaignExecutor(jobs=0).run([spec], checkpoint=tmp_path)
        assert outcome.status == "failed"
        assert outcome.failure.kind == FATAL
        assert outcome.failure.exception == "ConfigError"
        assert outcome.attempts == 1
        # Fatal outcomes are stored, so a resume does not re-run them.
        assert CellStore(tmp_path).get(spec).failure.exception == "ConfigError"


class TestCheckpointResume:
    def test_store_written_per_run(self, tmp_path):
        path = tmp_path / "cp"
        CampaignExecutor(jobs=0, task=ok_task).run(SPECS, checkpoint=path)
        assert len(list(path.glob("*.json"))) == 4
        assert _stored_keys(path) == sorted(s.key for s in SPECS)

    def test_kill_and_resume_skips_stored_runs(self, tmp_path):
        path = tmp_path / "cp"
        CampaignExecutor(jobs=0, task=ok_task).run(SPECS, checkpoint=path)
        # Simulate a crash after two completed cells: lose the others.
        for spec in SPECS[2:]:
            (path / f"{cell_key(spec)}.json").unlink()

        executed = []

        def counting(record):
            executed.append(record["workload"])
            return ok_task(record)

        outcomes = CampaignExecutor(jobs=0, task=counting).run(
            SPECS, checkpoint=path, resume=True
        )
        assert sorted(executed) == ["delta", "gamma"]
        assert [o.key for o in outcomes] == [s.key for s in SPECS]
        assert [o.resumed for o in outcomes] == [True, True, False, False]
        # The store holds the full campaign again.
        assert len(_stored_keys(path)) == 4

    def test_torn_entry_evicted_with_warning_and_rerun(self, tmp_path):
        path = tmp_path / "cp"
        CampaignExecutor(jobs=0, task=ok_task).run(SPECS, checkpoint=path)
        entry = path / f"{cell_key(SPECS[3])}.json"
        text = entry.read_text()
        entry.write_text(text[: len(text) // 2])   # a torn write
        executed = []

        def counting(record):
            executed.append(record["workload"])
            return ok_task(record)

        store = CellStore(path)
        with pytest.warns(UserWarning, match="corrupt cell store entry"):
            CampaignExecutor(jobs=0, task=counting).run(
                SPECS, checkpoint=store, resume=True
            )
        assert executed == ["delta"]
        assert store.integrity_failures == 1
        assert len(_stored_keys(path)) == 4

    def test_failed_cells_are_journaled_and_not_rerun(self, tmp_path):
        path = tmp_path / "cp"
        specs = [RunSpec("bad", "baseline", "tiny"), SPECS[0]]
        outcomes = CampaignExecutor(jobs=0, task=fatal_task).run(
            specs, checkpoint=path
        )
        assert outcomes[0].status == "failed"
        executed = []

        def counting(record):
            executed.append(record["workload"])
            return ok_task(record)

        resumed = CampaignExecutor(jobs=0, task=counting).run(
            specs, checkpoint=path, resume=True
        )
        assert executed == []
        assert resumed[0].status == "failed"
        assert resumed[0].failure.exception == "ValueError"

    def test_exhausted_retryable_cells_are_not_stored(self, tmp_path):
        path = tmp_path / "cp"

        def always_down(record):
            raise OSError("still down")

        [outcome] = CampaignExecutor(
            jobs=0, retries=0, task=always_down
        ).run(SPECS[:1], checkpoint=path)
        assert outcome.failure.kind == RETRYABLE
        assert _stored_keys(path) == []

    def test_without_resume_stored_cells_rerun(self, tmp_path):
        path = tmp_path / "cp"
        CampaignExecutor(jobs=0, task=ok_task).run(SPECS, checkpoint=path)
        executed = []

        def counting(record):
            executed.append(record["workload"])
            return ok_task(record)

        outcomes = CampaignExecutor(jobs=0, task=counting).run(
            SPECS[:1], checkpoint=path
        )
        assert executed == ["alpha"]
        assert not outcomes[0].resumed

    def test_resume_at_another_scale_resimulates(self, tmp_path):
        path = tmp_path / "cells"
        executed = []

        def scaled(record):
            executed.append(record["scale"])
            return ok_task(record)

        CampaignExecutor(jobs=0, task=scaled).run(
            [RunSpec("bfs", "tea", "tiny")], checkpoint=path
        )
        [outcome] = CampaignExecutor(jobs=0, task=scaled).run(
            [RunSpec("bfs", "tea", "small")], checkpoint=path, resume=True
        )
        assert executed == ["tiny", "small"]
        assert outcome.spec.scale == "small"
        assert not outcome.resumed


class TestProcessPool:
    def test_parallel_flaky_worker_retries(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLAKY_DIR", str(tmp_path))
        obs = Observation()
        executor = CampaignExecutor(
            jobs=2, retries=2, backoff=0.05, task=flaky_task, observation=obs
        )
        outcomes = executor.run(SPECS)
        assert all(o.ok for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)
        assert obs.metrics.counter("campaign.run_retried").value == 4
        assert obs.metrics.counter("campaign.run_finished").value == 4

    def test_timeout_terminates_worker_and_marks_cell(self):
        specs = [
            RunSpec("slow", "baseline", "tiny"),
            RunSpec("quick", "baseline", "tiny"),
        ]
        obs = Observation()
        executor = CampaignExecutor(
            jobs=2, timeout=1.0, task=hang_task, observation=obs
        )
        started = time.monotonic()
        outcomes = executor.run(specs)
        assert time.monotonic() - started < 30  # not the 60s sleep
        by_key = {o.key: o for o in outcomes}
        assert by_key["slow/baseline"].status == "timeout"
        assert by_key["slow/baseline"].attempts == 1  # timeouts not retried
        assert by_key["slow/baseline"].failure.kind == TIMEOUT
        assert by_key["quick/baseline"].ok
        assert obs.bus.counts["run_failed"] == 1

    def test_dead_worker_is_retryable(self):
        executor = CampaignExecutor(jobs=1, retries=0, task=dying_task)
        [outcome] = executor.run(SPECS[:1])
        assert outcome.status == "failed"
        assert outcome.failure.exception == "WorkerDied"
        assert outcome.failure.kind == RETRYABLE
        assert "code 3" in outcome.failure.message


class TestDeterminism:
    def test_parallel_and_serial_results_identical(self):
        specs = matrix_specs(("xz",), ("baseline", "tea"), scale="tiny")
        serial = CampaignExecutor(jobs=0).run(specs)
        parallel = CampaignExecutor(jobs=2).run(specs)
        assert [o.key for o in serial] == [o.key for o in parallel]
        for a, b in zip(serial, parallel):
            assert a.stats == b.stats
            assert a.validated and b.validated


class TestFig5CampaignWithInjectedFaults:
    """The acceptance scenario: a fig5 campaign survives one injected
    timeout and one injected transient exception, marks the failed
    cell, retries the transient one, and resumes from its checkpoint
    after a simulated crash."""

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("fig5")
        os.environ["FLAKY_DIR"] = str(tmp_path)
        checkpoint = tmp_path / "fig5"
        workloads = ("xz", "mcf")
        executor = CampaignExecutor(
            jobs=2, timeout=10.0, retries=2, backoff=0.05,
            task=faulty_fig5_task,
        )
        suite = ExperimentSuite(
            scale="tiny", workloads=workloads, executor=executor
        )
        outcomes = suite.run_matrix(
            ("baseline", "tea"), checkpoint=checkpoint
        )
        return suite, outcomes, checkpoint, workloads

    def test_transient_fault_retried_to_success(self, campaign):
        _, outcomes, _, _ = campaign
        by_key = {o.key: o for o in outcomes}
        assert by_key["xz/tea"].ok
        assert by_key["xz/tea"].attempts == 2

    def test_hung_cell_marked_timeout(self, campaign):
        _, outcomes, _, _ = campaign
        by_key = {o.key: o for o in outcomes}
        assert by_key["mcf/tea"].status == "timeout"
        assert by_key["xz/baseline"].ok
        assert by_key["mcf/baseline"].ok

    def test_fig5_renders_with_failed_cell_marked(self, campaign):
        suite, _, _, _ = campaign
        data = suite.fig5()
        assert data["failures"] == {"mcf/tea": "timeout"}
        assert data["speedup_pct"]["mcf"] is None
        assert data["speedup_pct"]["xz"] is not None
        rendered = suite.render_fig5()
        assert "FAILED(timeout)" in rendered
        # The geomean is computed over the surviving workloads only.
        assert data["geomean_pct"] == pytest.approx(
            suite._gm_speedup("tea", ("xz",))
        )

    def test_resume_after_simulated_crash(self, campaign):
        _, _, checkpoint, workloads = campaign
        # Crash simulation: lose one stored cell.
        lost = RunSpec("xz", "baseline", "tiny")
        (checkpoint / f"{cell_key(lost)}.json").unlink()

        executor = CampaignExecutor(
            jobs=2, timeout=10.0, retries=2, backoff=0.05,
            task=faulty_fig5_task,
        )
        suite = ExperimentSuite(
            scale="tiny", workloads=workloads, executor=executor
        )
        outcomes = suite.run_matrix(
            ("baseline", "tea"), checkpoint=checkpoint, resume=True
        )
        # The lost cell re-simulates; the timed-out cell was never
        # stored (a timeout is not a pure function of the cell), so it
        # is re-attempted too.
        assert {o.key for o in outcomes if not o.resumed} == {
            lost.key, "mcf/tea"
        }
        summary = summarize_outcomes(outcomes)
        assert summary["ok"] + summary["timeout"] == 4


class TestOutcomeRoundtrip:
    def test_as_record_roundtrip(self):
        spec = RunSpec("xz", "tea", "tiny", max_cycles=1000, seed=7)
        outcome = RunOutcome(
            spec=spec, status="ok", attempts=2,
            stats={"cycles": 10, "retired_instructions": 20},
            validated=True, halted=True,
        )
        back = RunOutcome.from_record(
            json.loads(json.dumps(outcome.as_record()))
        )
        assert back.spec == spec
        assert back.stats == outcome.stats
        assert back.resumed is True
        assert back.sim_stats().ipc == pytest.approx(2.0)


def hang_once_task(record):
    """Hangs on the first attempt per cell (marker files, so it works
    across worker processes), then completes — exercises hung-worker
    replacement under ``retry_timeouts``."""
    marker = os.path.join(
        os.environ["FLAKY_DIR"], "hang_" + record["workload"]
    )
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempted")
        time.sleep(60)
    return ok_task(record)


def marker_task(record):
    """Completes normally but drops a marker file the parent's ``stop``
    hook can watch — cross-process drain trigger."""
    marker = os.path.join(os.environ["FLAKY_DIR"], "drain_marker")
    with open(marker, "w") as fh:
        fh.write(record["workload"])
    return ok_task(record)


def gated_task(record):
    """Blocks until the parent's ``stop`` hook opens a gate file, then
    completes — lets a drain test order "result in the pipe" before
    "hook turns true" without timing assumptions."""
    gate = os.path.join(os.environ["FLAKY_DIR"], "gate")
    deadline = time.monotonic() + 30.0
    while not os.path.exists(gate) and time.monotonic() < deadline:
        time.sleep(0.01)
    return ok_task(record)


def sleepy_task(record):
    """Half a second per attempt; a ``flaky`` cell fails its first
    attempt at once (marker files, so it works across processes)."""
    if record["workload"] == "flaky":
        marker = os.path.join(os.environ["FLAKY_DIR"], "sleepy_flaky")
        if not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write("attempted")
            raise OSError("transient worker failure")
    time.sleep(0.5)
    return ok_task(record)


class TestBackoffJitter:
    def test_jitter_is_seeded_and_bounded(self):
        def always_down(record):
            raise OSError("still down")

        def delays_for(seed):
            delays = []
            CampaignExecutor(
                jobs=0, retries=3, backoff=0.5, jitter=0.25,
                jitter_seed=seed, task=always_down,
                sleep=delays.append, clock=lambda: 0.0,
            ).run([SPECS[0]])
            return delays

        first = delays_for(7)
        assert len(first) == 3
        for attempt, delay in enumerate(first, start=1):
            base = 0.5 * 2 ** (attempt - 1)
            assert base <= delay < base * 1.25
        # Same seed replays the same schedule; another seed desyncs,
        # so a burst of failures does not re-launch in lockstep.
        assert delays_for(7) == first
        assert delays_for(8) != first

    def test_run_retried_event_carries_backoff_schedule(self):
        def always_down(record):
            raise OSError("still down")

        obs = Observation()
        got = []
        obs.bus.subscribe(got.append, ("run_retried",))
        executor = CampaignExecutor(
            jobs=0, retries=2, backoff=0.5, jitter=0.5, jitter_seed=3,
            task=always_down, observation=obs,
            sleep=lambda s: None, clock=lambda: 0.0,
        )
        [outcome] = executor.run([SPECS[0]])
        assert outcome.status == "failed"
        assert [e.data["attempt"] for e in got] == [1, 2]
        assert got[0].data["backoff"] == pytest.approx(0.5)
        assert got[1].data["backoff"] == pytest.approx(1.0)
        for event in got:
            base = event.data["backoff"]
            assert base <= event.data["delay"] <= base * 1.5

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError, match="jitter"):
            CampaignExecutor(jobs=0, jitter=-0.1)


class TestRetryTimeouts:
    def test_hung_worker_replaced_and_cell_retried(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("FLAKY_DIR", str(tmp_path))
        obs = Observation()
        executor = CampaignExecutor(
            jobs=1, timeout=1.0, retries=1, backoff=0.05,
            retry_timeouts=True, task=hang_once_task, observation=obs,
        )
        [outcome] = executor.run([RunSpec("slow", "baseline", "tiny")])
        assert outcome.ok
        assert outcome.attempts == 2
        assert obs.bus.counts["run_retried"] == 1

    def test_timeout_retry_budget_exhausted(self):
        executor = CampaignExecutor(
            jobs=1, timeout=0.5, retries=1, backoff=0.05,
            retry_timeouts=True, task=hang_task,
        )
        [outcome] = executor.run([RunSpec("slow", "baseline", "tiny")])
        assert outcome.status == "timeout"
        assert outcome.attempts == 2


class TestDrainStop:
    def test_inline_stop_leaves_cells_unsettled_and_resumable(
        self, tmp_path
    ):
        path = tmp_path / "cp"
        done = []

        def task(record):
            done.append(record["workload"])
            return ok_task(record)

        outcomes = CampaignExecutor(
            jobs=0, task=task, stop=lambda: len(done) >= 2,
        ).run(SPECS, checkpoint=path)
        # run() returns only settled cells; the rest stay unsettled.
        assert len(outcomes) == 2
        assert done == ["alpha", "beta"]

        resumed = CampaignExecutor(jobs=0, task=task).run(
            SPECS, checkpoint=path, resume=True
        )
        assert len(resumed) == 4
        assert done == ["alpha", "beta", "gamma", "delta"]

    def test_pool_stop_drains_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLAKY_DIR", str(tmp_path))
        marker = tmp_path / "drain_marker"
        path = tmp_path / "cp"
        outcomes = CampaignExecutor(
            jobs=1, task=marker_task, stop=marker.exists,
        ).run(SPECS, checkpoint=path)
        assert 0 < len(outcomes) < len(SPECS)
        assert all(o.ok for o in outcomes)
        # Settled cells were stored before the drain; a resume
        # completes exactly the remainder.
        assert len(_stored_keys(path)) == len(outcomes)
        resumed = CampaignExecutor(jobs=0, task=ok_task).run(
            SPECS, checkpoint=path, resume=True
        )
        assert len(resumed) == len(SPECS)
        assert all(o.ok for o in resumed)


    def test_pool_stop_settles_results_already_in_pipes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("FLAKY_DIR", str(tmp_path))
        path = tmp_path / "cp"
        calls = []

        def stop():
            calls.append(1)
            if len(calls) == 1:
                return False   # let the first cell launch
            # Open the gate and wait for the worker to exit: its
            # ("ok", ...) now sits unread in the pipe as the hook
            # turns true.
            (tmp_path / "gate").write_text("open")
            for child in mp.active_children():
                child.join(30.0)
                assert not child.is_alive()
            return True

        outcomes = CampaignExecutor(
            jobs=1, task=gated_task, stop=stop,
        ).run(SPECS, checkpoint=path)
        assert [o.key for o in outcomes] == [SPECS[0].key]
        assert outcomes[0].ok
        assert _stored_keys(path) == [SPECS[0].key]


class TestNoBusyWait:
    """The coordinator blocks on worker pipes, deadlines and backoff
    expiries; it must not spin while every slot is busy."""

    @pytest.mark.parametrize(
        "workloads",
        [
            ["a", "b", "c", "d", "e", "f"],
            ["a", "b", "flaky", "c", "d", "e"],
        ],
        ids=["cells-wait-for-slots", "retry-backs-off-while-slots-busy"],
    )
    def test_coordinator_cpu_stays_small(
        self, tmp_path, monkeypatch, workloads
    ):
        monkeypatch.setenv("FLAKY_DIR", str(tmp_path))
        specs = [RunSpec(w, "baseline", "tiny") for w in workloads]
        executor = CampaignExecutor(jobs=2, backoff=0.05, task=sleepy_task)
        cpu, wall = time.process_time(), time.monotonic()
        outcomes = executor.run(specs)
        cpu = time.process_time() - cpu
        wall = time.monotonic() - wall
        assert all(o.ok for o in outcomes)
        assert sum(o.attempts for o in outcomes) == len(specs) + (
            "flaky" in workloads
        )
        assert cpu <= 0.1 * wall, f"coordinator used {cpu:.3f}s CPU in {wall:.3f}s"
