"""The campaign service: a long-running asyncio simulation server.

``repro serve`` turns the :class:`CampaignExecutor` into a
fault-tolerant HTTP/JSON service: clients submit campaign *jobs*
(workload × mode matrices), the service queues them by priority,
executes them over the process pool against one content-addressed
:class:`~repro.harness.executor.CellStore` (``state_dir/cache/``), and
survives both worker failures (timeout + retry + backoff, inherited
from the executor) and its *own* death (write-ahead journal + restart
replay).  Everything is hand-rolled on
``asyncio.start_server`` — no third-party HTTP stack.

API (JSON request/response unless noted)::

    GET  /healthz                liveness + drain state
    GET  /metrics                service counters, cache, queue, jobs
    POST /jobs                   submit a job (JobSpec record; optional
                                 idempotency "token"); 201 on accept,
                                 200 on token-duplicate, 400 invalid,
                                 429 + Retry-After queue full,
                                 503 + Retry-After draining
    GET  /jobs                   all jobs (summaries)
    GET  /jobs/<id>              one job summary
    GET  /jobs/<id>/result       the stored report bytes (verbatim;
                                 checksum-verified); 409 non-terminal
    GET  /jobs/<id>/events       SSE progress stream until terminal
    POST /jobs/<id>/cancel       cancel a *queued* job; 409 otherwise

Durability contract
-------------------
A submit is acknowledged only after its journal record is fsynced, so
an acknowledged job is never lost: ``kill -9`` the server mid-campaign,
restart it on the same ``--state-dir``, and replay re-enqueues every
unfinished job.  Every job runs with ``resume=True`` on the shared cell
store, so cells that settled before the crash (or in any earlier job)
are read back instead of re-simulated, and because reports are built
deterministically (wall-clock facts excluded), the resumed report is
**byte-identical** to an uninterrupted run —
``tests/test_service_recovery.py`` asserts exactly this.

Graceful drain
--------------
SIGTERM (or SIGINT) stops admission (503s), lets the in-flight job
store its settled cells through the executor's ``stop`` hook, and exits
0 within ``drain_deadline`` seconds.  Unfinished work resumes on
restart.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..harness.executor import CampaignExecutor, CellStore, RunOutcome
from ..obs import Observation, TelemetryAggregator
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    Job,
    JobSpec,
    JobValidationError,
    PriorityJobQueue,
    QUEUED,
    QueueFull,
    RUNNING,
    TERMINAL_STATES,
)
from .journal import ServiceJournal, replay_journal

#: How long clients should wait before retrying a backpressured submit.
RETRY_AFTER_SECONDS = 2

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


@dataclass
class ServiceConfig:
    """Tunables for one service instance (all CLI-exposed)."""

    state_dir: Path
    host: str = "127.0.0.1"
    port: int = 0                    # 0 = ephemeral (written to endpoint.json)
    workers: int = 1                 # executor process-pool width per job
    queue_depth: int = 16
    run_timeout: float | None = 120.0   # per-cell wall-clock limit
    retries: int = 3
    backoff: float = 0.25
    jitter: float = 0.1
    drain_deadline: float = 30.0
    heartbeat_timeout: float = 15.0  # running job silent this long → miss
    chaos_dir: Path | None = None    # enables the chaos worker task

    def __post_init__(self):
        self.state_dir = Path(self.state_dir)


def build_job_report(spec: JobSpec, outcomes: list[RunOutcome]) -> bytes:
    """Serialize a job's final report **deterministically**.

    The report is a pure function of the job spec and each cell's
    simulation result: wall-clock facts (attempts, durations, retry
    messages, tracebacks) are excluded, so a report assembled from any
    mix of fresh runs and stored cells after a crash is byte-identical
    to the fault-free serial run.  The chaos
    classifier (:mod:`repro.verify.chaos`) byte-compares on this.
    """
    cells = []
    for outcome in outcomes:
        cell = {
            "spec": outcome.spec.as_record(),
            "status": outcome.status,
            "stats": outcome.stats,
            "validated": outcome.validated,
            "halted": outcome.halted,
        }
        if outcome.failure is not None:
            diagnostics = outcome.failure.diagnostics or {}
            cell["failure"] = {
                "kind": outcome.failure.kind,
                "exception": outcome.failure.exception,
                "fault_attributed": bool(diagnostics.get("fault_context")),
            }
        cells.append(cell)
    report = {
        "job": spec.as_record(),
        "cells": cells,
        "summary": {
            "total": len(cells),
            "ok": sum(1 for c in cells if c["status"] == "ok"),
            "failed": sum(1 for c in cells if c["status"] != "ok"),
        },
    }
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


class SimulationService:
    """One service instance bound to a durable ``state_dir``."""

    def __init__(self, config: ServiceConfig, task=None):
        self.config = config
        self.state_dir = config.state_dir
        self.state_dir.mkdir(parents=True, exist_ok=True)
        (self.state_dir / "results").mkdir(exist_ok=True)
        self.journal = ServiceJournal(self.state_dir / "service.journal.jsonl")
        self.cache = CellStore(self.state_dir / "cache")
        self.obs = Observation(record_events=False)
        self.queue = PriorityJobQueue(depth=config.queue_depth)
        self.jobs: dict[str, Job] = {}
        self.tokens: dict[str, str] = {}
        self.draining = False
        self.journal_damage = {"recovered": 0, "skipped": 0}
        self._task = task
        self._next_seq = 1
        self._active_job: Job | None = None
        # Wakeups instead of fixed-interval polling: ``_work`` rouses
        # the idle dispatcher (submit, restart replay, drain); ``_idle``
        # is set while no job runs, which is what a drain waits for.
        self._work = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._replay()

    # -- lifecycle ------------------------------------------------------
    def _emit(self, type_: str, **data) -> None:
        self.obs.bus.emit(type_, **data)
        self.obs.metrics.counter(f"service.{type_}").inc()

    def _replay(self) -> None:
        """Rebuild the job table from the write-ahead journal."""
        replay = replay_journal(self.journal.path)
        self.jobs = replay.jobs
        self._next_seq = replay.next_seq
        self.journal_damage = {
            "recovered": replay.recovered,
            "skipped": replay.skipped,
        }
        for job in self.jobs.values():
            if job.token:
                self.tokens[job.token] = job.id
        for job_id in replay.unfinished:
            job = self.jobs[job_id]
            job.state = QUEUED
            self._enqueue(job)
            self._emit("job_resumed", job_id=job.id, priority=job.spec.priority)

    async def serve(self) -> int:
        """Run until drained; returns the process exit code (0)."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop_event = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self._drain())
                )
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-POSIX loop, or the server runs on a non-main
                # thread (tests): drain via request_drain() instead.
                pass
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        port = server.sockets[0].getsockname()[1]
        endpoint = self.state_dir / "endpoint.json"
        endpoint.write_text(
            json.dumps(
                {"host": self.config.host, "port": port, "pid": os.getpid()}
            )
        )
        dispatcher = asyncio.create_task(self._dispatch_loop())
        heartbeat = asyncio.create_task(self._heartbeat_loop())
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in (dispatcher, heartbeat):
                task.cancel()
            await asyncio.gather(dispatcher, heartbeat, return_exceptions=True)
            endpoint.unlink(missing_ok=True)
        return 0

    def request_drain(self) -> None:
        """Thread-safe drain trigger (what SIGTERM does, callable from
        any thread — tests and embedding harnesses)."""
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self._drain())
            )
        except RuntimeError:
            pass  # loop already closed: the server is down, i.e. drained

    async def _drain(self) -> None:
        """SIGTERM path: stop admission, store in-flight cells, exit."""
        if self.draining:
            return
        self.draining = True
        self._work.set()   # an idle dispatcher wakes up and exits
        self._emit("service_drain", active=self._active_job is not None)
        # The executor's ``stop`` hook sees ``self.draining`` and halts
        # between cells; we wait for the in-flight job to settle.
        try:
            await asyncio.wait_for(
                self._idle.wait(), self.config.drain_deadline
            )
        except asyncio.TimeoutError:
            pass
        assert self._stop_event is not None
        self._stop_event.set()

    # -- dispatch -------------------------------------------------------
    def _enqueue(self, job: Job) -> None:
        self.queue.push(job)
        self._work.set()

    async def _dispatch_loop(self) -> None:
        while not self.draining:
            job = self.queue.pop()
            if job is None:
                self._work.clear()
                await self._work.wait()
                continue
            self._active_job = job
            self._idle.clear()
            job.state = RUNNING
            job.last_beat = time.monotonic()
            self._emit("job_started", job_id=job.id, resumed=job.resumed)
            try:
                status, checksum, error = await asyncio.to_thread(
                    self._execute_job, job
                )
            except Exception as exc:  # noqa: BLE001 - job fails, server lives
                status, checksum, error = FAILED, None, (
                    f"{type(exc).__name__}: {exc}"
                )
            if status == "drained":
                # No terminal record: the journal still shows the job
                # unfinished, so restart replay re-enqueues it.
                job.state = QUEUED
            else:
                job.state = status
                job.checksum = checksum
                job.error = error
                self.journal.done(job)
                self._emit("job_finished", job_id=job.id, status=status)
            self._active_job = None
            self._idle.set()

    def _execute_job(self, job: Job):
        """Runner-thread body: executor over the cell store → report.

        Returns ``(state, checksum, error)``; ``("drained", None, None)``
        when the drain hook cut the campaign short.
        """
        specs = job.spec.cell_specs()
        aggregator = TelemetryAggregator(
            jobs=max(1, self.config.workers),
            on_update=lambda agg, j=job: self._beat(j, agg),
        )
        executor = CampaignExecutor(
            jobs=self.config.workers,
            timeout=self.config.run_timeout,
            retries=self.config.retries,
            backoff=self.config.backoff,
            jitter=self.config.jitter,
            jitter_seed=job.seq,
            retry_timeouts=True,
            task=self._task,
            observation=self.obs,
            telemetry=aggregator,
            stop=lambda: self.draining,
        )
        outcomes = executor.run(specs, checkpoint=self.cache, resume=True)
        for outcome in outcomes:
            spec = outcome.spec
            if outcome.resumed:
                job.cache_hits += 1
                self._emit("cell_cached", workload=spec.workload, mode=spec.mode)
            else:
                job.simulated += 1
                self._emit(
                    "cell_simulated",
                    workload=spec.workload,
                    mode=spec.mode,
                    status=outcome.status,
                )
        job.done_cells = len(outcomes)
        if len(outcomes) < len(specs):
            # Only a drain legitimately leaves cells unsettled.
            return "drained", None, None
        report = build_job_report(job.spec, outcomes)
        result_path = self.state_dir / "results" / f"{job.id}.json"
        tmp = result_path.with_suffix(".tmp")
        tmp.write_bytes(report)
        os.replace(tmp, result_path)
        checksum = hashlib.sha256(report).hexdigest()
        failed = sorted(o.key for o in outcomes if not o.ok)
        if failed:
            return FAILED, checksum, f"failed cells: {', '.join(failed)}"
        return DONE, checksum, None

    def _beat(self, job: Job, aggregator: TelemetryAggregator) -> None:
        """Telemetry callback (runner thread): progress + heartbeat."""
        job.last_beat = time.monotonic()
        cells = aggregator.rollup()["cells"]
        job.progress = json.dumps(cells, sort_keys=True)

    async def _heartbeat_loop(self) -> None:
        interval = max(0.2, self.config.heartbeat_timeout / 4)
        while True:
            await asyncio.sleep(interval)
            job = self._active_job
            if job is None or job.state != RUNNING:
                continue
            silent = time.monotonic() - job.last_beat
            if silent > self.config.heartbeat_timeout:
                job.heartbeat_misses += 1
                job.last_beat = time.monotonic()  # one miss per window
                self._emit(
                    "heartbeat_missed",
                    job_id=job.id,
                    silent_seconds=round(silent, 1),
                )

    # -- HTTP -----------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, body = request
            await self._route(method, path, body, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader):
        line = await asyncio.wait_for(reader.readline(), timeout=10.0)
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            header = await asyncio.wait_for(reader.readline(), timeout=10.0)
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
        body = b""
        if content_length:
            body = await asyncio.wait_for(
                reader.readexactly(content_length), timeout=30.0
            )
        return method, path, body

    def _respond(
        self, writer, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self._respond_raw(
            writer, status, body, "application/json", headers
        )

    def _respond_raw(
        self, writer, status, body, content_type, headers=None
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)

    async def _route(self, method, path, body, writer) -> None:
        parts = [p for p in path.split("?")[0].split("/") if p]
        if path.split("?")[0] == "/healthz" and method == "GET":
            self._respond(
                writer, 200, {"ok": True, "draining": self.draining}
            )
        elif parts == ["metrics"] and method == "GET":
            self._respond(writer, 200, self.metrics_payload())
        elif parts == ["jobs"] and method == "POST":
            self._submit(body, writer)
        elif parts == ["jobs"] and method == "GET":
            self._respond(
                writer,
                200,
                {
                    "jobs": [
                        job.summary()
                        for job in sorted(
                            self.jobs.values(), key=lambda j: j.seq
                        )
                    ]
                },
            )
        elif len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            job = self.jobs.get(parts[1])
            if job is None:
                self._respond(writer, 404, {"error": "no such job"})
            else:
                self._respond(writer, 200, job.summary())
        elif (
            len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result"
            and method == "GET"
        ):
            self._result(parts[1], writer)
        elif (
            len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events"
            and method == "GET"
        ):
            await self._stream_events(parts[1], writer)
        elif (
            len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel"
            and method == "POST"
        ):
            self._cancel(parts[1], writer)
        else:
            self._respond(writer, 404, {"error": f"no route {method} {path}"})
        await writer.drain()

    def metrics_payload(self) -> dict:
        states = [job.state for job in self.jobs.values()]
        return {
            "draining": self.draining,
            "jobs": {
                state: states.count(state)
                for state in (QUEUED, RUNNING, *sorted(TERMINAL_STATES))
            },
            "queue": {"depth": len(self.queue), "capacity": self.queue.depth},
            "cache": self.cache.counters(),
            "journal": dict(self.journal_damage),
            "counters": self.obs.metrics.snapshot().get("counters", {}),
        }

    def _submit(self, body: bytes, writer) -> None:
        retry = {"Retry-After": str(RETRY_AFTER_SECONDS)}
        if self.draining:
            self._emit("job_rejected", reason="draining")
            self._respond(
                writer, 503, {"error": "service is draining"}, retry
            )
            return
        try:
            record = json.loads(body.decode() or "{}")
            spec = JobSpec.from_record(record)
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._respond(writer, 400, {"error": "body is not valid JSON"})
            return
        except JobValidationError as exc:
            self._respond(writer, 400, {"error": str(exc)})
            return
        token = str(record.get("token", "") or "")
        if token and token in self.tokens:
            # Idempotent resubmit: same token → same job, no new work.
            job = self.jobs[self.tokens[token]]
            self._respond(
                writer, 200,
                {"id": job.id, "state": job.state, "duplicate": True},
            )
            return
        if self.queue.full:
            self._emit("job_rejected", reason="queue_full")
            self._respond(
                writer, 429,
                {"error": f"queue full ({self.queue.depth} jobs)"}, retry,
            )
            return
        job = Job(
            id=f"j{self._next_seq:06d}", spec=spec, token=token,
            seq=self._next_seq,
        )
        self._next_seq += 1
        # Durability before acknowledgement: fsync the submit record,
        # THEN admit + 201.  A crash between the two re-runs the job —
        # never loses an acked one.
        self.journal.submit(job)
        self.jobs[job.id] = job
        if token:
            self.tokens[token] = job.id
        self._enqueue(job)
        self._emit(
            "job_submitted", job_id=job.id, priority=spec.priority,
            cells=len(spec.workloads) * len(spec.modes),
        )
        self._respond(writer, 201, {"id": job.id, "state": job.state})

    def _result(self, job_id: str, writer) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            self._respond(writer, 404, {"error": "no such job"})
            return
        if job.state == CANCELLED or job.checksum is None:
            self._respond(
                writer, 409,
                {"error": f"job is {job.state}; no result available"},
            )
            return
        path = self.state_dir / "results" / f"{job_id}.json"
        try:
            report = path.read_bytes()
        except OSError:
            self._respond(writer, 500, {"error": "result file missing"})
            return
        if hashlib.sha256(report).hexdigest() != job.checksum:
            self._respond(
                writer, 500, {"error": "result checksum mismatch"}
            )
            return
        self._respond_raw(
            writer, 200, report, "application/json",
            {"X-Repro-Checksum": job.checksum},
        )

    def _cancel(self, job_id: str, writer) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            self._respond(writer, 404, {"error": "no such job"})
            return
        if job.state != QUEUED:
            self._respond(
                writer, 409, {"error": f"cannot cancel a {job.state} job"}
            )
            return
        job.state = CANCELLED
        self.journal.cancel(job)
        self._emit("job_cancelled", job_id=job.id)
        self._respond(writer, 200, {"id": job.id, "state": job.state})

    async def _stream_events(self, job_id: str, writer) -> None:
        """SSE: push progress snapshots until the job goes terminal."""
        job = self.jobs.get(job_id)
        if job is None:
            self._respond(writer, 404, {"error": "no such job"})
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        last = None
        while True:
            payload = job.summary()
            if job.progress:
                payload["telemetry"] = json.loads(job.progress)
            text = json.dumps(payload, sort_keys=True)
            if text != last:
                writer.write(f"event: progress\ndata: {text}\n\n".encode())
                await writer.drain()
                last = text
            if job.terminal:
                writer.write(
                    f"event: done\ndata: {text}\n\n".encode()
                )
                await writer.drain()
                return
            await asyncio.sleep(0.1)


def run_service(config: ServiceConfig, task=None) -> int:
    """Blocking entry point for ``repro serve``."""
    service = SimulationService(config, task=task)
    return asyncio.run(service.serve())
