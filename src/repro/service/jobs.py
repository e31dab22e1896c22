"""Job model and bounded priority queue for the campaign service.

A *job* is one client-submitted campaign: a workload × mode matrix at
one scale/seed, queued at a priority and executed as a unit over the
:class:`~repro.harness.executor.CampaignExecutor`.  The queue is
deliberately bounded — admission control is the service's backpressure
mechanism (HTTP 429 + ``Retry-After``), not an unbounded buffer that
hides overload until memory runs out.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from ..harness import MODES, RunSpec
from ..workloads import workload_names

#: Job lifecycle states.  ``queued -> running -> done | failed``;
#: ``cancelled`` is reachable from ``queued`` only.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: Priority bounds (inclusive).  Higher runs earlier.
MIN_PRIORITY, MAX_PRIORITY = 0, 9


class JobValidationError(ValueError):
    """A submitted job payload is malformed (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """The client-visible description of one campaign job."""

    workloads: tuple[str, ...]
    modes: tuple[str, ...]
    scale: str = "tiny"
    seed: int = 0
    max_cycles: int = 30_000_000
    check_invariants: int = 0
    priority: int = 0
    fault_kind: str = ""
    fault_seed: int = 0

    def as_record(self) -> dict:
        record = {
            "workloads": list(self.workloads),
            "modes": list(self.modes),
            "scale": self.scale,
            "seed": self.seed,
            "max_cycles": self.max_cycles,
            "check_invariants": self.check_invariants,
            "priority": self.priority,
        }
        if self.fault_kind:
            record["fault_kind"] = self.fault_kind
            record["fault_seed"] = self.fault_seed
        return record

    @classmethod
    def from_record(cls, record: dict) -> "JobSpec":
        """Build and *validate* a spec from an untrusted payload."""
        if not isinstance(record, dict):
            raise JobValidationError("job payload must be a JSON object")
        unknown = set(record) - {
            "workloads", "modes", "scale", "seed", "max_cycles",
            "check_invariants", "priority", "fault_kind", "fault_seed",
            "token",
        }
        if unknown:
            raise JobValidationError(
                f"unknown job field(s): {', '.join(sorted(unknown))}"
            )
        workloads = record.get("workloads")
        modes = record.get("modes", ["baseline"])
        if isinstance(workloads, str):
            workloads = workloads.split(",")
        if isinstance(modes, str):
            modes = modes.split(",")
        if not workloads or not isinstance(workloads, list):
            raise JobValidationError("workloads must be a non-empty list")
        if not modes or not isinstance(modes, list):
            raise JobValidationError("modes must be a non-empty list")
        known = set(workload_names())
        for workload in workloads:
            if workload not in known and not str(workload).startswith("fuzz/"):
                raise JobValidationError(f"unknown workload {workload!r}")
        for mode in modes:
            if mode not in MODES:
                raise JobValidationError(f"unknown mode {mode!r}")
        if len(set(workloads)) != len(workloads):
            raise JobValidationError("duplicate workloads in one job")
        if len(set(modes)) != len(modes):
            raise JobValidationError("duplicate modes in one job")
        priority = int(record.get("priority", 0))
        if not MIN_PRIORITY <= priority <= MAX_PRIORITY:
            raise JobValidationError(
                f"priority must be in [{MIN_PRIORITY}, {MAX_PRIORITY}]"
            )
        fault_kind = str(record.get("fault_kind", "") or "")
        if fault_kind:
            from ..verify import FAULT_KINDS

            if fault_kind not in FAULT_KINDS:
                raise JobValidationError(
                    f"unknown fault kind {fault_kind!r}"
                )
        max_cycles = int(record.get("max_cycles", 30_000_000))
        if max_cycles < 1:
            raise JobValidationError("max_cycles must be >= 1")
        return cls(
            workloads=tuple(str(w) for w in workloads),
            modes=tuple(str(m) for m in modes),
            scale=str(record.get("scale", "tiny")),
            seed=int(record.get("seed", 0)),
            max_cycles=max_cycles,
            check_invariants=int(record.get("check_invariants", 0)),
            priority=priority,
            fault_kind=fault_kind,
            fault_seed=int(record.get("fault_seed", 0)),
        )

    def cell_specs(self) -> list[RunSpec]:
        """The workload × mode matrix as executor run specs."""
        return [
            RunSpec(
                workload=workload,
                mode=mode,
                scale=self.scale,
                max_cycles=self.max_cycles,
                seed=self.seed,
                check_invariants=self.check_invariants,
                fault_kind=self.fault_kind,
                fault_seed=self.fault_seed,
            )
            for workload in self.workloads
            for mode in self.modes
        ]


@dataclass
class Job:
    """Server-side job state (journal-backed; never trusted to memory)."""

    id: str
    spec: JobSpec
    token: str = ""
    state: str = QUEUED
    seq: int = 0                  # submission order (journal replay key)
    error: str | None = None
    checksum: str | None = None   # sha256 of the stored report bytes
    resumed: bool = False         # re-enqueued by journal replay
    cache_hits: int = 0
    simulated: int = 0
    # Runner-thread progress: (json_text, monotonic_stamp) tuples are
    # swapped in atomically; the event loop only ever reads them.
    progress: str | None = None
    last_beat: float = 0.0
    heartbeat_misses: int = 0
    done_cells: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def summary(self) -> dict:
        """JSON-safe status payload for ``GET /jobs/<id>``."""
        cells = len(self.spec.workloads) * len(self.spec.modes)
        return {
            "id": self.id,
            "state": self.state,
            "priority": self.spec.priority,
            "job": self.spec.as_record(),
            "cells": {
                "total": cells,
                "done": self.done_cells,
                "cached": self.cache_hits,
                "simulated": self.simulated,
            },
            "resumed": self.resumed,
            "token": self.token,
            "error": self.error,
            "checksum": self.checksum,
            "heartbeat_misses": self.heartbeat_misses,
        }


class QueueFull(Exception):
    """The bounded job queue is at capacity (HTTP 429)."""


class PriorityJobQueue:
    """Bounded max-priority queue, FIFO within a priority level."""

    def __init__(self, depth: int = 16):
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        self.depth = depth
        self._heap: list[tuple[int, int, Job]] = []
        self._tick = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.depth

    def push(self, job: Job) -> None:
        if self.full:
            raise QueueFull(
                f"job queue is full ({self.depth} job(s) queued)"
            )
        heapq.heappush(
            self._heap, (-job.spec.priority, next(self._tick), job)
        )

    def pop(self) -> Job | None:
        """Highest-priority queued job, skipping cancelled entries."""
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            if job.state == QUEUED:
                return job
        return None

    def snapshot(self) -> list[Job]:
        """Queued jobs in dispatch order (for listings; non-destructive)."""
        return [
            job for _, _, job in sorted(self._heap) if job.state == QUEUED
        ]
