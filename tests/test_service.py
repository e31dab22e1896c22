"""Tests for the campaign service: job model, queue, journal, and the
HTTP server end to end (submit/status/result/SSE, 429 backpressure,
idempotency tokens, cancel, drain 503, the cell store rule)."""

import asyncio
import hashlib
import json
import os
import threading
import time

import pytest

from repro.harness.executor import RunOutcome, RunSpec
from repro.service import (
    Job,
    JobSpec,
    JobValidationError,
    PriorityJobQueue,
    QueueFull,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceJournal,
    SimulationService,
    build_job_report,
    replay_journal,
)
from repro.service.jobs import DONE, RUNNING
from repro.service.journal import read_journal_lines

# ----------------------------------------------------------------------
# Module-level tasks (process-mode workers pickle the callable).
# ----------------------------------------------------------------------
def ok_task(record):
    return {
        "stats": {"cycles": 100, "retired_instructions": 250},
        "validated": True,
        "halted": True,
    }


def slow_ok_task(record):
    time.sleep(0.5)
    return ok_task(record)


def fatal_or_hang_task(record):
    """Counts each attempt in ``$RULE_DIR``; ``xz`` fails with a model
    bug (fatal), ``mcf`` hangs past any per-cell timeout."""
    with open(os.path.join(os.environ["RULE_DIR"], record["workload"]),
              "a") as fh:
        fh.write("x")
    if record["workload"] == "xz":
        raise ValueError("deterministic model bug")
    if record["workload"] == "mcf":
        time.sleep(60)
    return ok_task(record)


def _spec(workload="alpha", mode="baseline"):
    return RunSpec(workload, mode, "tiny")


def _ok_outcome(workload="alpha", mode="baseline", cycles=100):
    return RunOutcome(
        spec=_spec(workload, mode),
        status="ok",
        attempts=3,
        stats={"cycles": cycles, "retired_instructions": 250},
        validated=True,
        halted=True,
        duration=12.5,
    )


def _job(jid="j000001", seq=1, token="", **spec_kw):
    record = {"workloads": ["xz"], "modes": ["baseline"],
              "scale": "tiny", **spec_kw}
    return Job(id=jid, spec=JobSpec.from_record(record), token=token, seq=seq)


# ======================================================================
# JobSpec validation
# ======================================================================
class TestJobSpecValidation:
    def test_comma_strings_and_roundtrip(self):
        spec = JobSpec.from_record(
            {"workloads": "xz,mcf", "modes": "baseline,tea"}
        )
        assert spec.workloads == ("xz", "mcf")
        assert spec.modes == ("baseline", "tea")
        assert JobSpec.from_record(spec.as_record()) == spec
        assert len(spec.cell_specs()) == 4

    def test_unknown_workload_mode_field_rejected(self):
        with pytest.raises(JobValidationError, match="unknown workload"):
            JobSpec.from_record({"workloads": ["nope"], "modes": ["baseline"]})
        with pytest.raises(JobValidationError, match="unknown mode"):
            JobSpec.from_record({"workloads": ["xz"], "modes": ["warp"]})
        with pytest.raises(JobValidationError, match="unknown job field"):
            JobSpec.from_record({"workloads": ["xz"], "bogus": 1})

    def test_priority_bounds_and_duplicates(self):
        with pytest.raises(JobValidationError, match="priority"):
            JobSpec.from_record({"workloads": ["xz"], "priority": 11})
        with pytest.raises(JobValidationError, match="duplicate"):
            JobSpec.from_record({"workloads": ["xz", "xz"]})

    def test_fault_kind_validated(self):
        spec = JobSpec.from_record(
            {"workloads": ["xz"], "fault_kind": "mem_delay", "fault_seed": 3}
        )
        assert spec.cell_specs()[0].fault_kind == "mem_delay"
        with pytest.raises(JobValidationError, match="fault kind"):
            JobSpec.from_record({"workloads": ["xz"], "fault_kind": "nope"})

    def test_fuzz_workloads_allowed(self):
        spec = JobSpec.from_record({"workloads": ["fuzz/seed-17"]})
        assert spec.workloads == ("fuzz/seed-17",)


# ======================================================================
# Priority queue
# ======================================================================
class TestPriorityJobQueue:
    def test_priority_order_fifo_within_level(self):
        queue = PriorityJobQueue(depth=8)
        low1 = _job("j1", 1, priority=1)
        high = _job("j2", 2, priority=9)
        low2 = _job("j3", 3, priority=1)
        for job in (low1, high, low2):
            queue.push(job)
        assert [queue.pop().id for _ in range(3)] == ["j2", "j1", "j3"]
        assert queue.pop() is None

    def test_bounded_depth(self):
        queue = PriorityJobQueue(depth=1)
        queue.push(_job("j1", 1))
        assert queue.full
        with pytest.raises(QueueFull):
            queue.push(_job("j2", 2))

    def test_cancelled_jobs_skipped(self):
        queue = PriorityJobQueue(depth=4)
        job = _job("j1", 1)
        queue.push(job)
        queue.push(_job("j2", 2))
        job.state = "cancelled"
        assert queue.pop().id == "j2"
        assert queue.pop() is None


# ======================================================================
# Write-ahead journal
# ======================================================================
class TestServiceJournal:
    def test_read_journal_lines_resyncs_glued_record(self):
        good = json.dumps({"k": 1})
        text = good + "\n" + '{"torn": ' + good + "\nnot json at all\n"
        records, counters = read_journal_lines(text)
        assert [record for _, record in records] == [{"k": 1}, {"k": 1}]
        assert counters["recovered"] == 1
        assert counters["skipped"] == 1

    def test_replay_folds_lifecycle(self, tmp_path):
        path = tmp_path / "service.journal.jsonl"
        journal = ServiceJournal(path)
        a, b, c = _job("j1", 1, token="t1"), _job("j2", 2), _job("j3", 3)
        for job in (a, b, c):
            journal.submit(job)
        a.state, a.checksum = "done", "abc"
        journal.done(a)
        journal.cancel(c)
        replay = replay_journal(path)
        assert replay.jobs["j1"].state == "done"
        assert replay.jobs["j1"].checksum == "abc"
        assert replay.jobs["j1"].token == "t1"
        assert replay.jobs["j3"].state == "cancelled"
        assert replay.unfinished == ["j2"]   # re-enqueued on restart
        assert replay.next_seq == 4
        assert not replay.duplicate_terminals

    def test_torn_record_tolerated(self, tmp_path):
        path = tmp_path / "service.journal.jsonl"
        journal = ServiceJournal(path)
        journal.submit(_job("j1", 1))
        good = path.read_text()
        # A torn submit glued to a good one on a single line.
        torn = '{"op": "submit", "seq": 2, "id": "j2", "jo'
        path.write_text(good + torn + good.replace("j1", "j3").strip() + "\n")
        replay = replay_journal(path)
        assert set(replay.jobs) == {"j1", "j3"}
        assert replay.recovered == 1

    def test_duplicate_terminal_counted(self, tmp_path):
        path = tmp_path / "service.journal.jsonl"
        journal = ServiceJournal(path)
        job = _job("j1", 1)
        journal.submit(job)
        job.state = "done"
        journal.done(job)
        journal.done(job)  # exactly-once violation
        replay = replay_journal(path)
        assert replay.duplicate_terminals == {"j1": 1}


# ======================================================================
# Deterministic report
# ======================================================================
class TestJobReport:
    def test_wall_clock_facts_excluded(self):
        spec = JobSpec.from_record({"workloads": ["xz"],
                                    "modes": ["baseline"]})
        fresh = _ok_outcome()
        cached = _ok_outcome()
        cached.attempts, cached.duration, cached.resumed = 1, 0.0, True
        assert build_job_report(spec, [fresh]) == build_job_report(
            spec, [cached]
        )

    def test_fault_attribution_surfaces(self):
        from repro.harness.executor import RunFailure

        spec = JobSpec.from_record({"workloads": ["xz"],
                                    "modes": ["baseline"]})
        outcome = _ok_outcome()
        outcome.status = "failed"
        outcome.failure = RunFailure(
            kind="fatal", exception="ValidationError", message="m",
            traceback="tb", config_digest="d", seed=0,
            diagnostics={"fault_context": {"kind": "mem_bit"}},
        )
        report = json.loads(build_job_report(spec, [outcome]))
        cell = report["cells"][0]
        assert cell["failure"]["fault_attributed"] is True
        assert "traceback" not in cell["failure"]
        assert "message" not in cell["failure"]


# ======================================================================
# HTTP end to end (in-process server on a background thread)
# ======================================================================
class ServiceThread:
    """Run a SimulationService event loop on a daemon thread."""

    def __init__(self, tmp_path, task=ok_task, **config_kw):
        config_kw.setdefault("workers", 0)   # inline executor: fast
        config_kw.setdefault("queue_depth", 4)
        config_kw.setdefault("heartbeat_timeout", 30.0)
        self.config = ServiceConfig(state_dir=tmp_path / "state", **config_kw)
        self.service = SimulationService(self.config, task=task)
        self.exit_code = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.exit_code = asyncio.run(self.service.serve())

    def __enter__(self):
        self.thread.start()
        self.client = ServiceClient.from_endpoint(
            self.config.state_dir, wait=10.0
        )
        return self

    def __exit__(self, *exc):
        self.service.request_drain()
        self.thread.join(timeout=30.0)


@pytest.fixture()
def service(tmp_path):
    with ServiceThread(tmp_path) as running:
        yield running


class TestServiceHTTP:
    def test_submit_status_result_roundtrip(self, service):
        client = service.client
        assert client.health()["ok"] is True
        response = client.submit(
            {"workloads": ["xz"], "modes": ["baseline"], "scale": "tiny"}
        )
        summary = client.wait(response["id"], timeout=30.0)
        assert summary["state"] == "done"
        assert summary["cells"] == {
            "total": 1, "done": 1, "cached": 0, "simulated": 1,
        }
        report = client.result_bytes(response["id"])
        assert hashlib.sha256(report).hexdigest() == summary["checksum"]
        parsed = json.loads(report)
        assert parsed["summary"] == {"total": 1, "ok": 1, "failed": 0}

    def test_identical_cells_served_from_cache(self, service):
        client = service.client
        first = client.submit({"workloads": ["xz"], "modes": ["baseline"]})
        client.wait(first["id"], timeout=30.0)
        second = client.submit({"workloads": ["xz"], "modes": ["baseline"]})
        summary = client.wait(second["id"], timeout=30.0)
        assert summary["cells"]["cached"] == 1
        assert summary["cells"]["simulated"] == 0
        # Byte-identical report despite never re-simulating.
        assert client.result_bytes(first["id"]) == client.result_bytes(
            second["id"]
        )
        assert service.service.cache.hits == 1

    def test_token_dedupes_resubmit(self, service):
        client = service.client
        first = client.submit({"workloads": ["xz"], "token": "tok-1"})
        again = client.submit({"workloads": ["xz"], "token": "tok-1"})
        assert again["id"] == first["id"]
        assert again["duplicate"] is True
        assert len(client.jobs()) == 1

    def test_invalid_job_is_400(self, service):
        with pytest.raises(ServiceError) as err:
            service.client.submit({"workloads": ["nope"]})
        assert err.value.status == 400

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError) as err:
            service.client.status("j999999")
        assert err.value.status == 404

    def test_result_before_terminal_is_409(self, tmp_path):
        with ServiceThread(tmp_path, task=slow_ok_task) as running:
            response = running.client.submit({"workloads": ["xz"]})
            with pytest.raises(ServiceError) as err:
                running.client.result_bytes(response["id"])
            assert err.value.status == 409
            running.client.wait(response["id"], timeout=30.0)

    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        with ServiceThread(
            tmp_path, task=slow_ok_task, queue_depth=1
        ) as running:
            ids = []
            rejected = None
            # Feed fast enough that the depth-1 queue overflows behind
            # the 0.5 s/cell task.
            for index in range(6):
                status, payload, _ = running.client._request(
                    "POST", "/jobs",
                    {"workloads": ["xz"], "seed": index},
                )
                if status == 429:
                    rejected = payload
                    break
                ids.append(payload["id"])
            assert rejected is not None, "queue never filled"
            assert "retry_after" in rejected
            for job_id in ids:
                running.client.wait(job_id, timeout=60.0)
            metrics = running.client.metrics()
            assert metrics["counters"]["service.job_rejected"] >= 1

    def test_cancel_queued_only(self, tmp_path):
        with ServiceThread(
            tmp_path, task=slow_ok_task, queue_depth=4
        ) as running:
            first = running.client.submit({"workloads": ["xz"]})
            second = running.client.submit({"workloads": ["mcf"]})
            cancelled = running.client.cancel(second["id"])
            assert cancelled["state"] == "cancelled"
            summary = running.client.wait(first["id"], timeout=30.0)
            assert summary["state"] == "done"
            with pytest.raises(ServiceError) as err:
                running.client.cancel(first["id"])
            assert err.value.status == 409
            with pytest.raises(ServiceError) as err:
                running.client.result_bytes(second["id"])
            assert err.value.status == 409

    def test_sse_stream_ends_with_done(self, service):
        client = service.client
        response = client.submit({"workloads": ["xz"], "modes": ["tea"]})
        events = list(client.events(response["id"]))
        assert events, "no SSE events received"
        kinds = [kind for kind, _ in events]
        assert kinds[-1] == "done"
        assert events[-1][1]["state"] in ("done", "failed")

    def test_drain_rejects_submits_with_503(self, tmp_path):
        gate = threading.Event()

        def gated_task(record):
            gate.wait(30.0)
            return ok_task(record)

        with ServiceThread(tmp_path, task=gated_task) as running:
            # An in-flight job, held on the gate until the 503 is seen,
            # keeps the drain window open: the server must keep
            # answering (with 503s) while the job settles.
            try:
                response = running.client.submit({"workloads": ["xz"]})
                deadline = time.monotonic() + 5.0
                while (
                    running.client.status(response["id"])["state"]
                    != "running"
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                running.service.request_drain()
                while (
                    not running.service.draining
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                with pytest.raises(ServiceError) as err:
                    running.client.submit(
                        {"workloads": ["mcf"]}, deadline=0.0
                    )
                assert err.value.status == 503
            finally:
                gate.set()
        assert running.exit_code == 0

    def test_fatal_cell_reused_and_timeout_cell_rerun(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("RULE_DIR", str(tmp_path))
        with ServiceThread(
            tmp_path, task=fatal_or_hang_task, workers=1,
            run_timeout=1.0, retries=0,
        ) as running:
            client = running.client
            job = {"workloads": ["xz", "mcf"], "modes": ["baseline"]}
            first = client.wait(client.submit(job)["id"], timeout=60.0)
            second = client.wait(client.submit(job)["id"], timeout=60.0)
        for summary in (first, second):
            assert summary["state"] == "failed"
        assert first["cells"]["simulated"] == 2
        # The fatal cell is a pure function of its key: stored, reused.
        # The timeout depends on the host: re-run by the second job.
        assert second["cells"]["cached"] == 1
        assert second["cells"]["simulated"] == 1
        assert (tmp_path / "xz").read_text() == "x"
        assert (tmp_path / "mcf").read_text() == "xx"

    def test_metrics_payload_shape(self, service):
        client = service.client
        client.wait(
            client.submit({"workloads": ["xz"]})["id"], timeout=30.0
        )
        metrics = client.metrics()
        assert metrics["jobs"]["done"] == 1
        assert metrics["queue"]["capacity"] == 4
        assert metrics["cache"]["integrity_failures"] == 0
        assert metrics["counters"]["service.job_submitted"] == 1
        assert metrics["counters"]["service.job_finished"] == 1


# ======================================================================
# Dispatcher and drain wakeups (no fixed-interval polling)
# ======================================================================
class _Writer:
    """Stand-in for an HTTP response stream."""

    def write(self, data):
        self.data = data


async def _yield_loop(turns=5):
    for _ in range(turns):
        await asyncio.sleep(0)


class TestServiceWakeups:
    def test_submit_wakes_dispatcher_and_drain_follows_settle(
        self, tmp_path
    ):
        started, gate = threading.Event(), threading.Event()

        def gated_task(record):
            started.set()
            gate.wait(10.0)
            return ok_task(record)

        service = SimulationService(
            ServiceConfig(state_dir=tmp_path / "state", workers=0),
            task=gated_task,
        )

        async def scenario():
            service._stop_event = asyncio.Event()
            dispatcher = asyncio.create_task(service._dispatch_loop())
            await _yield_loop()   # the dispatcher parks on the empty queue
            service._submit(json.dumps({"workloads": ["xz"]}).encode(),
                            _Writer())
            [job] = service.jobs.values()
            # A few loop turns, no timer: the submit itself woke it.
            await _yield_loop()
            assert job.state == RUNNING
            assert await asyncio.to_thread(started.wait, 10.0)
            drain = asyncio.create_task(service._drain())
            await _yield_loop()
            assert not drain.done()   # the job is still running
            gate.set()
            await asyncio.wait_for(dispatcher, 10.0)
            assert job.state == DONE
            # The drain returns a few loop turns after the settle.
            await _yield_loop()
            assert drain.done()
            assert service._stop_event.is_set()

        asyncio.run(scenario())
