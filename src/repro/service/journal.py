"""Write-ahead job journal: the service's single source of truth.

Every job state transition is appended to ``service.journal.jsonl`` as
one JSON object per line, flushed **and fsynced before the transition
is acknowledged** to any client — a submit is only 201'd after its
``submit`` record is durable, so a ``kill -9`` can lose at most work
the client was never told succeeded.

Record taxonomy (``op`` field)::

    submit   {op, seq, id, token, job}        job accepted into the queue
    done     {op, id, status, checksum}       job reached done/failed
    cancel   {op, id}                         queued job cancelled

Replay (:func:`replay_journal`) folds the log into the job table: jobs
with a ``submit`` but no terminal record are *unfinished* and must be
re-enqueued on restart — the service's cell store
(:class:`~repro.harness.executor.CellStore`) holds whichever of their
cells already settled, so resume recomputes only the cells that were
genuinely in flight.

The reader is the torn-record-tolerant resynchronizing parser
:func:`read_journal_lines`, so a record torn by a crash mid-append
never takes healthy neighbours down with it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .jobs import DONE, FAILED, Job, JobSpec

#: Journal operations.
OP_SUBMIT = "submit"
OP_DONE = "done"
OP_CANCEL = "cancel"


def read_journal_lines(
    text: str,
) -> tuple[list[tuple[int, dict]], dict[str, int]]:
    """Parse newline-delimited JSON records, tolerating torn records.

    A crash mid-append can leave a *torn* record anywhere in the file —
    a partial line with the next record appended to it without an
    intervening newline (``{"op": "sub{"op": "submit", ...}``).  A plain
    line-by-line loader would discard the good record glued to the torn
    prefix; this reader *resynchronizes*: on a line that fails to parse
    whole, it scans forward for the next position where a complete JSON
    object decodes and recovers every object embedded in the line.

    Returns ``(records, counters)`` where records are ``(lineno, dict)``
    pairs in file order and ``counters`` tallies the damage:
    ``{"recovered": objects salvaged from torn lines,
    "skipped": lines with nothing salvageable}`` — the service surfaces
    these in ``/metrics`` rather than silently dropping data.
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


class ServiceJournal:
    """Append-only fsynced JSONL writer for job lifecycle records."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, record: dict) -> None:
        """Durably append one record (flush + fsync before returning)."""
        with open(self.path, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    # -- convenience wrappers ------------------------------------------
    def submit(self, job: Job) -> None:
        self.append(
            {
                "op": OP_SUBMIT,
                "seq": job.seq,
                "id": job.id,
                "token": job.token,
                "job": job.spec.as_record(),
            }
        )

    def done(self, job: Job) -> None:
        self.append(
            {
                "op": OP_DONE,
                "id": job.id,
                "status": job.state,
                "checksum": job.checksum,
                "error": job.error,
            }
        )

    def cancel(self, job: Job) -> None:
        self.append({"op": OP_CANCEL, "id": job.id})


@dataclass
class JournalReplay:
    """The folded state of a service journal."""

    jobs: dict[str, Job] = field(default_factory=dict)
    #: Unfinished job ids in original submission order (to re-enqueue).
    unfinished: list[str] = field(default_factory=list)
    #: Duplicate terminal records per id (exactly-once violations if >0;
    #: the chaos classifier asserts this stays empty).
    duplicate_terminals: dict[str, int] = field(default_factory=dict)
    next_seq: int = 1
    recovered: int = 0
    skipped: int = 0


def replay_journal(path: str | Path) -> JournalReplay:
    """Fold a service journal back into the job table."""
    path = Path(path)
    replay = JournalReplay()
    if not path.exists():
        return replay
    records, counters = read_journal_lines(path.read_text())
    replay.recovered = counters["recovered"]
    replay.skipped = counters["skipped"]
    for _, record in records:
        op = record.get("op")
        if op == OP_SUBMIT:
            try:
                spec = JobSpec.from_record(record.get("job") or {})
            except Exception:
                replay.skipped += 1
                continue
            job_id = str(record.get("id", ""))
            if not job_id or job_id in replay.jobs:
                replay.skipped += 1
                continue
            seq = int(record.get("seq", 0))
            replay.jobs[job_id] = Job(
                id=job_id,
                spec=spec,
                token=str(record.get("token", "") or ""),
                seq=seq,
                resumed=True,
            )
            replay.next_seq = max(replay.next_seq, seq + 1)
        elif op == OP_DONE:
            job = replay.jobs.get(str(record.get("id", "")))
            if job is None:
                replay.skipped += 1
                continue
            if job.terminal:
                replay.duplicate_terminals[job.id] = (
                    replay.duplicate_terminals.get(job.id, 0) + 1
                )
                continue
            status = record.get("status")
            job.state = DONE if status == DONE else FAILED
            job.checksum = record.get("checksum")
            job.error = record.get("error")
        elif op == OP_CANCEL:
            job = replay.jobs.get(str(record.get("id", "")))
            if job is None or job.terminal:
                replay.skipped += 1
                continue
            job.state = "cancelled"
        else:
            replay.skipped += 1
    replay.unfinished = [
        job.id
        for job in sorted(replay.jobs.values(), key=lambda j: j.seq)
        if not job.terminal
    ]
    return replay
