"""Fault-tolerant campaign execution: process fan-out, timeouts, retry.

The paper's evaluation is a large (workload × mode × scale) run matrix;
executing it serially in one process means a single hung or crashing
run throws away hours of completed simulation.  This module fans the
matrix out over worker processes and turns every failure into data:

* **per-run wall-clock timeouts** — a wedged simulation is terminated
  (SIGTERM to its worker) and journaled as a ``timeout`` cell;
* **bounded retry with exponential backoff** — *retryable* failures
  (worker death, OS-level errors, anything raising with a truthy
  ``retryable`` attribute) are re-attempted up to ``retries`` times;
  deterministic model failures (:class:`~repro.core.SimulationError`,
  :class:`~repro.harness.runner.ValidationError`, config errors) are
  *fatal* — retrying a deterministic simulator cannot change the
  outcome — and fail the cell immediately;
* **structured failure records** — exception class, message, traceback,
  config digest, and seed are captured per failed cell instead of a
  propagated crash;
* **checkpoint/resume** — every completed cell is appended to a JSONL
  journal as it finishes (flushed + fsynced), so an interrupted
  campaign resumes by skipping already-journaled cells.

Determinism: each run is an isolated, seeded simulation, so parallel
and serial execution produce bit-identical per-run results; only the
completion *order* differs, and results are returned in spec order.

Run-lifecycle events (``run_started`` / ``run_finished`` /
``run_failed`` / ``run_retried``) are emitted on a
:class:`~repro.obs.Observation`'s event bus when one is supplied, and
counted in its metrics registry under ``campaign.*``.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import multiprocessing as mp
import os
import random as _random
import time
import traceback
import warnings
from dataclasses import dataclass, field, fields
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path

from ..core.stats import SimStats
from ..obs.aggregate import TelemetryRelay, current_relay, set_current_relay

# Failure taxonomy (see HACKING.md).
RETRYABLE = "retryable"
FATAL = "fatal"
TIMEOUT = "timeout"

#: Exception class names treated as transient infrastructure failures.
RETRYABLE_EXCEPTION_NAMES = frozenset(
    {
        "OSError",
        "IOError",
        "EOFError",
        "BrokenPipeError",
        "ConnectionError",
        "ConnectionResetError",
        "MemoryError",
        "WorkerDied",
    }
)

#: SimStats counter fields serialized across the worker boundary.
STAT_FIELDS = tuple(
    spec.name for spec in fields(SimStats) if spec.name not in ("extra",)
)


class WorkerDied(RuntimeError):
    """A worker process exited without reporting a result."""


def classify_exception(name: str, retryable_attr: bool = False) -> str:
    """Map an exception class name to a failure kind."""
    if retryable_attr or name in RETRYABLE_EXCEPTION_NAMES:
        return RETRYABLE
    return FATAL


# ======================================================================
# Specs, failures, outcomes
# ======================================================================
@dataclass(frozen=True)
class RunSpec:
    """One cell of the campaign matrix."""

    workload: str
    mode: str
    scale: str = "bench"
    max_cycles: int = 30_000_000
    seed: int = 0
    check_invariants: int = 0   # repro.verify audit period (0 = off)
    # Deterministic microarchitectural fault injection (repro.verify):
    # when ``fault_kind`` is set the worker attaches a single-fault
    # FaultPlan seeded with ``fault_seed``.  The campaign service's
    # chaos harness uses this to run faulted cells through the normal
    # job path.
    fault_kind: str = ""
    fault_seed: int = 0

    @property
    def key(self) -> str:
        return f"{self.workload}/{self.mode}"

    def as_record(self) -> dict:
        record = {
            "workload": self.workload,
            "mode": self.mode,
            "scale": self.scale,
            "max_cycles": self.max_cycles,
            "seed": self.seed,
            "check_invariants": self.check_invariants,
        }
        if self.fault_kind:
            record["fault_kind"] = self.fault_kind
            record["fault_seed"] = self.fault_seed
        return record

    @classmethod
    def from_record(cls, record: dict) -> "RunSpec":
        # Tolerant of journals written before a field existed (the
        # defaulted dataclass field fills the gap), so old checkpoint
        # journals stay resumable.
        return cls(
            **{f.name: record[f.name] for f in fields(cls) if f.name in record}
        )

    def config_digest(self) -> str:
        """Stable digest of the machine configuration this cell runs."""
        from .runner import make_config

        text = repr(make_config(self.mode))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class RunFailure:
    """Structured record of why a cell failed (journal-safe)."""

    kind: str                 # RETRYABLE / FATAL / TIMEOUT
    exception: str            # exception class name
    message: str
    traceback: str
    config_digest: str
    seed: int
    diagnostics: dict | None = None   # watchdog state dump, if any

    def as_record(self) -> dict:
        return {
            "kind": self.kind,
            "exception": self.exception,
            "message": self.message,
            "traceback": self.traceback,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_record(cls, record: dict) -> "RunFailure":
        return cls(**{f.name: record.get(f.name) for f in fields(cls)})


@dataclass
class RunOutcome:
    """Final state of one campaign cell (after all retries)."""

    spec: RunSpec
    status: str                       # "ok" / "failed" / "timeout"
    attempts: int = 1
    stats: dict | None = None         # raw SimStats counters
    validated: bool = False
    halted: bool = False
    failure: RunFailure | None = None
    resumed: bool = False             # loaded from a checkpoint journal
    duration: float = 0.0             # wall seconds (not deterministic)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def key(self) -> str:
        return self.spec.key

    def sim_stats(self) -> SimStats:
        """Rebuild a SimStats (zeroed for failed cells) — derived
        properties (ipc, coverage, ...) come back exactly."""
        if not self.stats:
            return SimStats()
        return SimStats(**{k: v for k, v in self.stats.items()
                           if k in STAT_FIELDS})

    def run_result(self):
        """Adapt to the harness :class:`~repro.harness.runner.RunResult`
        shape the :class:`ExperimentSuite` caches."""
        from .runner import RunResult

        failure_kind = None if self.ok else (
            TIMEOUT if self.status == "timeout" else self.failure.kind
        )
        return RunResult(
            workload=self.spec.workload,
            mode=self.spec.mode,
            stats=self.sim_stats(),
            validated=self.validated,
            halted=self.halted,
            failure=failure_kind,
            error=self.failure.message if self.failure else None,
        )

    def as_record(self) -> dict:
        return {
            "spec": self.spec.as_record(),
            "status": self.status,
            "attempts": self.attempts,
            "stats": self.stats,
            "validated": self.validated,
            "halted": self.halted,
            "failure": self.failure.as_record() if self.failure else None,
            "duration": round(self.duration, 3),
        }

    @classmethod
    def from_record(cls, record: dict) -> "RunOutcome":
        return cls(
            spec=RunSpec.from_record(record["spec"]),
            status=record["status"],
            attempts=record.get("attempts", 1),
            stats=record.get("stats"),
            validated=record.get("validated", False),
            halted=record.get("halted", False),
            failure=(
                RunFailure.from_record(record["failure"])
                if record.get("failure")
                else None
            ),
            resumed=True,
            duration=record.get("duration", 0.0),
        )


# ======================================================================
# Checkpoint journal (JSONL, append-only, corruption-tolerant)
# ======================================================================
def read_journal_lines(
    text: str,
) -> tuple[list[tuple[int, dict]], dict[str, int]]:
    """Parse newline-delimited JSON records, tolerating torn records.

    A crash mid-append can leave a *torn* record anywhere in the file —
    a partial line with the next record appended to it without an
    intervening newline (``{"spe{"spec": ...}``).  A plain
    line-by-line loader would discard the good record glued to the torn
    prefix; this reader *resynchronizes*: on a line that fails to parse
    whole, it scans forward for the next position where a complete JSON
    object decodes and recovers every object embedded in the line.

    Returns ``(records, counters)`` where records are ``(lineno, dict)``
    pairs in file order and ``counters`` tallies the damage:
    ``{"recovered": objects salvaged from torn lines,
    "skipped": lines with nothing salvageable}`` — callers surface
    these as warnings/metrics rather than silently dropping data.
    """
    decoder = json.JSONDecoder()
    records: list[tuple[int, dict]] = []
    counters = {"recovered": 0, "skipped": 0}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError:
            pass
        else:
            if isinstance(obj, dict):
                records.append((lineno, obj))
            else:
                counters["skipped"] += 1
            continue
        # Torn line: resynchronize on the next decodable JSON object.
        pos, salvaged = 0, 0
        while True:
            start = stripped.find("{", pos)
            if start < 0:
                break
            try:
                obj, end = decoder.raw_decode(stripped, start)
            except json.JSONDecodeError:
                pos = start + 1
                continue
            if isinstance(obj, dict):
                records.append((lineno, obj))
                salvaged += 1
                pos = end
            else:
                pos = start + 1
        counters["recovered"] += salvaged
        if not salvaged:
            counters["skipped"] += 1
    return records, counters


def load_checkpoint(path: str | Path) -> dict[str, RunOutcome]:
    """Load a JSONL campaign journal, tolerating corruption anywhere in
    the file: a truncated trailing line (the normal aftermath of a
    crash mid-append) *and* a torn mid-file record are handled by
    resynchronizing on the next decodable JSON object
    (:func:`read_journal_lines`); unrecoverable lines are skipped with
    a warning, never raised.  Later records for the same cell win."""
    path = Path(path)
    outcomes: dict[str, RunOutcome] = {}
    if not path.exists():
        return outcomes
    records, counters = read_journal_lines(path.read_text())
    if counters["recovered"] or counters["skipped"]:
        warnings.warn(
            f"{path}: journal damage — recovered {counters['recovered']} "
            f"torn record(s), skipped {counters['skipped']} "
            f"unrecoverable line(s)",
            stacklevel=2,
        )
    for lineno, record in records:
        try:
            outcome = RunOutcome.from_record(record)
        except (KeyError, TypeError) as exc:
            warnings.warn(
                f"{path}:{lineno}: skipping corrupt checkpoint record "
                f"({type(exc).__name__}: {exc})",
                stacklevel=2,
            )
            continue
        outcomes[outcome.key] = outcome
    return outcomes


class CheckpointJournal:
    """Append-only JSONL writer; each record is flushed and fsynced so
    a crash loses at most the record being written."""

    def __init__(self, path: str | Path, fresh: bool = False):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fresh and self.path.exists():
            self.path.unlink()

    def append(self, outcome: RunOutcome) -> None:
        with open(self.path, "a") as fh:
            fh.write(json.dumps(outcome.as_record(), sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())


# ======================================================================
# The worker side (runs in a subprocess; must stay picklable)
# ======================================================================
def execute_spec(record: dict) -> dict:
    """Default task: simulate one cell and return its result payload.

    When a telemetry relay is ambient (installed by :func:`_worker_main`
    or the inline runner), the run is observed with event recording off
    and the relay streams sampled events + a final metrics snapshot
    back to the campaign aggregator.
    """
    from ..obs import Observation
    from .runner import run_workload

    spec = RunSpec.from_record(record)
    relay = current_relay()
    observe = None
    if relay is not None:
        observe = Observation(record_events=False)
        relay.attach(observe)
    fault_plan = None
    if spec.fault_kind:
        from ..verify import FaultPlan

        fault_plan = FaultPlan(
            seed=spec.fault_seed, kinds=(spec.fault_kind,)
        )
    result = run_workload(
        spec.workload,
        spec.mode,
        spec.scale,
        max_cycles=spec.max_cycles,
        observe=observe,
        check_invariants=spec.check_invariants,
        fault_plan=fault_plan,
    )
    if relay is not None:
        relay.send_snapshot(stats=result.stats, final=True)
    return {
        "stats": {name: getattr(result.stats, name) for name in STAT_FIELDS},
        "validated": result.validated,
        "halted": result.halted,
    }


def _error_message(exc: BaseException) -> tuple:
    """The ``("err", name, message, traceback, retryable, diagnostics)``
    message an attempt reports when its task raised ``exc``."""
    return (
        "err",
        type(exc).__name__,
        str(exc),
        traceback.format_exc(),
        bool(getattr(exc, "retryable", False)),
        dict(getattr(exc, "diagnostics", None) or {}) or None,
    )


def _worker_main(conn, task, record: dict, telemetry: dict | None = None) -> None:
    """Subprocess entry: run the task, ship ok/err through the pipe.

    ``telemetry`` (when campaign telemetry is enabled) carries the
    relay's ``{"run", "worker"}`` and installs a
    :class:`~repro.obs.aggregate.TelemetryRelay` streaming through the
    same ``conn`` as interleaved ``("telemetry", envelope)`` tuples.
    """
    if telemetry is not None:
        set_current_relay(TelemetryRelay(conn.send, **telemetry))
    try:
        conn.send(("ok", task(record)))
    except BaseException as exc:  # noqa: BLE001 - everything becomes data
        conn.send(_error_message(exc))
    finally:
        set_current_relay(None)
        conn.close()


# ======================================================================
# The executor
# ======================================================================
#: Growth factor of the retry backoff: ``backoff * 2**(attempt - 1)``.
BACKOFF_FACTOR = 2.0

#: Longest single wait while a ``stop`` hook needs polling (seconds).
STOP_POLL = 0.25


@dataclass(order=True)
class _Attempt:
    """One attempt at a cell; the queue pops by ``(ready_at, index)``."""

    ready_at: float
    index: int                        # spec order: breaks ready_at ties
    spec: RunSpec = field(compare=False)
    attempt: int = field(default=1, compare=False)
    started: float = field(default=0.0, compare=False)


class CampaignExecutor:
    """Fault-tolerant runner for a list of :class:`RunSpec` cells.

    ``jobs=0`` executes inline in this process (no isolation, timeouts
    unenforced — the mode unit tests and debuggers want); ``jobs>=1``
    fans out over that many worker processes with per-run wall-clock
    ``timeout`` seconds enforced by terminating the worker.  Both go
    through the same scheduling loop; only how an attempt runs differs.

    ``task`` maps a spec record dict to a result payload dict and
    defaults to :func:`execute_spec`; tests inject flaky tasks through
    it (module-level functions only when ``jobs>=1`` — workers pickle
    the callable).  ``sleep``/``clock`` are injectable for backoff
    tests.

    Retry backoff is exponential with seeded multiplicative *jitter*
    (``delay = backoff * 2**(attempt-1) * (1 + jitter * u)``,
    ``u ~ U[0,1)`` from ``random.Random(jitter_seed)``), so a burst of
    simultaneous failures does not re-launch in lockstep; ``jitter=0``
    restores the pure exponential schedule.

    ``retry_timeouts=True`` reclassifies per-run wall-clock timeouts as
    retryable: the hung worker is terminated and *replaced* by a fresh
    attempt (within the ``retries`` budget) instead of journaling a
    terminal ``timeout`` cell.  The campaign service uses this as its
    hung-worker replacement mechanism.

    ``stop`` is a zero-argument drain hook polled between launches:
    once it returns true, no further cell is started, results already
    waiting in worker pipes are settled and journaled, the remaining
    workers are terminated *without journaling* their unfinished cells,
    and :meth:`run` returns only the cells that settled — the journal
    plus a later ``resume=True`` run picks up exactly where the drain
    cut off.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: float | None = None,
        retries: int = 2,
        backoff: float = 0.5,
        jitter: float = 0.1,
        jitter_seed: int = 0,
        retry_timeouts: bool = False,
        task=None,
        observation=None,
        sleep=time.sleep,
        clock=time.monotonic,
        telemetry=None,
        stop=None,
    ):
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.jitter = jitter
        self.retry_timeouts = retry_timeouts
        self.task = task or execute_spec
        self.observation = observation
        # Campaign telemetry: a repro.obs.aggregate.TelemetryAggregator
        # receiving worker relay streams (None = telemetry off).
        self.telemetry = telemetry
        self.stop = stop
        self._jitter_rng = _random.Random(jitter_seed)
        self._worker_counter = 0
        self._sleep = sleep
        self._clock = clock

    # -- lifecycle telemetry -------------------------------------------
    def _emit(self, type_: str, spec: RunSpec, **data) -> None:
        obs = self.observation
        if obs is None:
            return
        obs.bus.emit(type_, workload=spec.workload, mode=spec.mode, **data)
        obs.metrics.counter(f"campaign.{type_}").inc()

    # -- public API ----------------------------------------------------
    def run(
        self,
        specs,
        checkpoint: str | Path | None = None,
        resume: bool = False,
    ) -> list[RunOutcome]:
        """Execute every spec; returns outcomes in spec order.

        With ``checkpoint``, completed cells are journaled as they
        finish; with ``resume`` additionally set, cells already in the
        journal are skipped and returned as ``resumed`` outcomes.
        """
        specs = list(specs)
        journal = None
        completed: dict[str, RunOutcome] = {}
        if checkpoint is not None:
            if resume:
                completed = load_checkpoint(checkpoint)
            journal = CheckpointJournal(checkpoint, fresh=not resume)

        if self.telemetry is not None:
            self.telemetry.register_specs(specs)

        outcomes: dict[str, RunOutcome] = {}
        queue: list[_Attempt] = []    # in (ready_at, index) order: a heap
        for index, spec in enumerate(specs):
            if spec.key in completed:
                outcomes[spec.key] = completed[spec.key]
                if self.telemetry is not None:
                    self.telemetry.on_run_settled(completed[spec.key])
            else:
                queue.append(_Attempt(0.0, index, spec))

        if queue:
            self._schedule(queue, outcomes, journal)
        # A drain (``stop`` hook) leaves unfinished cells unsettled;
        # they are simply absent from the returned list and stay
        # resumable from the journal.
        return [outcomes[spec.key] for spec in specs if spec.key in outcomes]

    def _backoff_delay(self, attempt: int) -> tuple[float, float]:
        """``(base, jittered)`` delay before re-attempting."""
        base = self.backoff * (BACKOFF_FACTOR ** (attempt - 1))
        if self.jitter <= 0:
            return base, base
        return base, base * (1.0 + self.jitter * self._jitter_rng.random())

    # -- the scheduling loop -------------------------------------------
    def _schedule(self, queue: list[_Attempt], outcomes: dict, journal) -> None:
        """Run every queued attempt to a settled outcome (or a drain).

        One loop for both modes: launch due attempts into free slots,
        wait for the next event, and settle each result through
        ``on_message``.  An inline attempt (``jobs=0``) calls the task
        in this process and finishes inside ``launch``; a pool attempt
        forks a worker and holds a slot until its pipe reports, closes,
        or its deadline passes.  Both speak the messages
        :func:`_worker_main` sends.
        """
        slots = max(self.jobs, 1)
        active: dict = {}   # pool only: result pipe -> (process, attempt)
        ctx = mp.get_context()

        def on_message(item: _Attempt, msg: tuple) -> None:
            """Relay telemetry; on the final message, settle or retry."""
            if msg[0] == "telemetry":
                if self.telemetry is not None:
                    self.telemetry.ingest(msg[1])
                return
            payload: dict = {}
            failure: RunFailure | None = None
            if msg[0] == "ok":
                status, payload = "ok", msg[1]
            else:
                if msg[0] == "timeout":
                    status = kind = TIMEOUT
                    retry = self.retry_timeouts
                    name, tb, diag = "RunTimeout", "", None
                    message = f"exceeded {self.timeout}s wall-clock limit"
                else:  # ("err", name, message, traceback, retryable, diag)
                    _, name, message, tb, retryable, diag = msg
                    kind = classify_exception(name, retryable)
                    status, retry = "failed", kind == RETRYABLE
                if retry and item.attempt <= self.retries:
                    backoff, delay = self._backoff_delay(item.attempt)
                    self._emit(
                        "run_retried", item.spec,
                        attempt=item.attempt, backoff=backoff, delay=delay,
                    )
                    if self.telemetry is not None:
                        self.telemetry.on_run_retried(item.spec.key)
                    heapq.heappush(queue, _Attempt(
                        self._clock() + delay, item.index, item.spec,
                        attempt=item.attempt + 1,
                    ))
                    return
                failure = RunFailure(
                    kind=kind,
                    exception=name,
                    message=message,
                    traceback=tb,
                    config_digest=item.spec.config_digest(),
                    seed=item.spec.seed,
                    diagnostics=diag,
                )
            outcome = RunOutcome(
                spec=item.spec,
                status=status,
                attempts=item.attempt,
                stats=payload.get("stats"),
                validated=payload.get("validated", False),
                halted=payload.get("halted", False),
                failure=failure,
                duration=self._clock() - item.started,
            )
            outcomes[item.spec.key] = outcome
            if journal is not None:
                journal.append(outcome)
            if self.telemetry is not None:
                self.telemetry.on_run_settled(outcome)
            if outcome.ok:
                self._emit("run_finished", item.spec, attempts=item.attempt)
            else:
                self._emit(
                    "run_failed",
                    item.spec,
                    kind=failure.kind,
                    exception=failure.exception,
                    attempts=item.attempt,
                )

        def launch(item: _Attempt) -> None:
            relay = None
            if self.telemetry is not None:
                # A fresh worker id per launch gives every attempt its
                # own sequence-number space in the aggregator.
                self._worker_counter += 1
                relay = {"run": item.spec.key, "worker": self._worker_counter}
            item.started = self._clock()
            self._emit("run_started", item.spec, attempt=item.attempt)
            if self.telemetry is not None:
                self.telemetry.on_run_started(item.spec.key, item.attempt)
            if self.jobs:
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, self.task, item.spec.as_record(), relay),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                active[parent_conn] = (proc, item)
                return
            if relay is not None:
                # Inline mode short-circuits the pipe: the relay's
                # messages go straight to on_message.
                set_current_relay(TelemetryRelay(
                    lambda msg: on_message(item, msg), **relay
                ))
            try:
                msg = ("ok", self.task(item.spec.as_record()))
            except Exception as exc:  # noqa: BLE001
                msg = _error_message(exc)
            finally:
                if relay is not None:
                    set_current_relay(None)
            on_message(item, msg)

        def retire(conn, terminate: bool = False):
            """Free a worker's slot and reap its process."""
            proc, _ = active.pop(conn)
            conn.close()
            if terminate:
                proc.terminate()
            proc.join()
            return proc

        def read(conn) -> None:
            """Handle every message waiting on a worker's pipe."""
            item = active[conn][1]
            while True:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # The pipe closed without a report: the worker died.
                    proc = retire(conn)
                    on_message(item, (
                        "err", "WorkerDied",
                        f"worker exited with code {proc.exitcode}",
                        "", True, None,
                    ))
                    return
                if msg[0] != "telemetry":
                    retire(conn)
                    on_message(item, msg)
                    return
                on_message(item, msg)
                if not conn.poll():
                    return

        while queue or active:
            if self.stop is not None and self.stop():
                # Drain: settle every result already waiting in a pipe,
                # then terminate the rest without journaling their
                # cells (the journal keeps only *settled* cells, so a
                # resume recomputes exactly these).
                for conn in [c for c in active if c.poll()]:
                    read(conn)
                for conn in list(active):
                    retire(conn, terminate=True)
                return
            # Launch due attempts into free slots.  With nothing
            # running, sleep until the next backoff expires (in short
            # slices when a drain hook could fire).
            for _ in range(slots - len(active)):
                if not queue:
                    break
                delay = queue[0].ready_at - self._clock()
                if delay > 0:
                    if active:
                        break
                    if self.stop is not None and delay > STOP_POLL:
                        self._sleep(STOP_POLL)
                        break
                    self._sleep(delay)
                launch(heapq.heappop(queue))
            if not active:
                continue
            # Wait for a result, the nearest deadline, or — while a
            # slot is free — the next backoff expiry.
            wake = []
            if self.timeout is not None:
                wake = [item.started + self.timeout for _, item in active.values()]
            if queue and len(active) < slots:
                wake.append(queue[0].ready_at)
            timeout = STOP_POLL if self.stop is not None else None
            if wake:
                until = max(0.0, min(wake) - self._clock())
                timeout = until if timeout is None else min(timeout, until)
            for conn in _conn_wait(list(active), timeout):
                read(conn)
            if self.timeout is not None:
                now = self._clock()
                for conn, (_, item) in list(active.items()):
                    if now - item.started >= self.timeout:
                        retire(conn, terminate=True)
                        on_message(item, ("timeout",))


# ======================================================================
# Convenience: full-matrix campaign
# ======================================================================
def matrix_specs(
    workloads,
    modes,
    scale: str = "bench",
    max_cycles: int = 30_000_000,
) -> list[RunSpec]:
    """The cross product of workloads × modes as run specs."""
    return [
        RunSpec(workload=w, mode=m, scale=scale, max_cycles=max_cycles)
        for w in workloads
        for m in modes
    ]


def summarize_outcomes(outcomes) -> dict:
    """Counts by status plus the failed-cell keys (for CLI reporting)."""
    summary = {
        "total": len(outcomes),
        "ok": sum(1 for o in outcomes if o.ok),
        "failed": sum(1 for o in outcomes if o.status == "failed"),
        "timeout": sum(1 for o in outcomes if o.status == "timeout"),
        "resumed": sum(1 for o in outcomes if o.resumed),
        "retried": sum(1 for o in outcomes if o.attempts > 1),
        "failed_cells": {
            o.key: o.failure.kind for o in outcomes if not o.ok
        },
    }
    return summary
