"""Crash-recovery acceptance tests for the campaign service.

The durability contract, end to end against a real server subprocess
running real (tiny-scale) simulations:

* SIGKILL mid-campaign → the killed server's pool workers exit too →
  restart on the same state dir → the job resumes, already-settled
  cells are NOT re-simulated, and the final report is byte-identical
  to a fault-free serial run;
* SIGTERM → graceful drain exits 0 quickly, the unfinished job
  survives in the journal, and a restart completes it.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.harness.executor import CampaignExecutor
from repro.service import JobSpec, ServiceClient, build_job_report

SRC = str(Path(repro.__file__).resolve().parents[1])


def start_server(state_dir, extra=()):
    (Path(state_dir) / "endpoint.json").unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--state-dir", str(state_dir),
            "--port", "0", "--workers", "1",
            "--run-timeout", "120", "--drain-deadline", "20",
            *extra,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def reference_report(record) -> bytes:
    spec = JobSpec.from_record(record)
    outcomes = {
        o.key: o for o in CampaignExecutor(jobs=0, retries=0).run(
            spec.cell_specs()
        )
    }
    return build_job_report(spec, [outcomes[s.key] for s in spec.cell_specs()])


def children(pid):
    """Pids of the processes whose parent is ``pid``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def alive(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def wait_for(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    pytest.fail(f"timed out waiting for {message}")


class TestSigkillRecovery:
    def test_kill_restart_resumes_byte_identical(self, tmp_path):
        record = {"workloads": ["xz"], "modes": ["baseline", "tea"],
                  "scale": "tiny", "token": "recovery-1"}
        reference = reference_report(record)

        proc = start_server(tmp_path)
        try:
            client = ServiceClient.from_endpoint(tmp_path, wait=30.0)
            job_id = client.submit(record, deadline=60.0)["id"]
            # Let exactly part of the campaign settle, then murder the
            # server: at least one cell stored, job still running.
            store = tmp_path / "cache"
            wait_for(
                lambda: any(store.glob("*.json")),
                timeout=300.0,
                message="first cell to be stored",
            )
            wait_for(
                lambda: children(proc.pid),
                timeout=60.0,
                message="the next cell's worker to start",
            )
            workers = children(proc.pid)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
        # The orphaned worker finds its pipe broken and exits instead
        # of blocking forever on a write nobody will read.
        wait_for(
            lambda: not any(alive(pid) for pid in workers),
            timeout=30.0,
            message=f"workers {workers} of the killed server to exit",
        )

        # An acknowledged job is never lost: restart resumes it.
        proc = start_server(tmp_path)
        try:
            client = ServiceClient.from_endpoint(tmp_path, wait=30.0)
            summary = client.wait(job_id, timeout=300.0)
            assert summary["state"] == "done"
            assert summary["resumed"] is True
            # The pre-kill cell came back from the cell store, not a
            # re-simulation.
            assert summary["cells"]["cached"] >= 1
            assert summary["cells"]["simulated"] <= 1
            report = client.result_bytes(job_id)
            assert report == reference
            # A token resubmit after recovery dedupes to the same job.
            again = client.submit(record, deadline=60.0)
            assert again["id"] == job_id
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60.0) == 0


class TestSigtermDrain:
    def test_drain_exits_zero_and_restart_completes(self, tmp_path):
        record = {"workloads": ["xz"], "modes": ["baseline"],
                  "scale": "tiny", "token": "drain-1"}
        proc = start_server(tmp_path)
        client = ServiceClient.from_endpoint(tmp_path, wait=30.0)
        job_id = client.submit(record, deadline=60.0)["id"]
        wait_for(
            lambda: client.status(job_id)["state"] == "running",
            timeout=60.0,
            message="job to start",
        )
        proc.send_signal(signal.SIGTERM)
        # Graceful: exit 0 within the drain deadline, not killed.
        assert proc.wait(timeout=30.0) == 0
        # The interrupted job is still in the journal, unfinished.
        journal = (tmp_path / "service.journal.jsonl").read_text()
        ops = [json.loads(line)["op"] for line in journal.splitlines()]
        assert ops.count("submit") == 1
        assert ops.count("done") == 0

        proc = start_server(tmp_path)
        try:
            client = ServiceClient.from_endpoint(tmp_path, wait=30.0)
            summary = client.wait(job_id, timeout=300.0)
            assert summary["state"] == "done"
            assert summary["resumed"] is True
            assert json.loads(client.result_bytes(job_id))["summary"]["ok"] == 1
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60.0) == 0
