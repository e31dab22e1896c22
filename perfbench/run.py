#!/usr/bin/env python3
"""Repository benchmark: host time of a campaign, a sampled run and a
fuzz batch, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats the workload's batch while it fits in
``--seconds`` and reports the end-to-end metrics (medians over
batches).  ``--trace 1`` runs one untraced and one traced batch and
reports the per-layer metrics; the spans go to
``.perfbench_out/trace-<workload>.json``.  The last line of standard
output is one JSON object; the exit code is 1 when an output check
fails and 2 when the repository cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Set-up is timed in this many fresh interpreters before the batches
#: and as many after them (after one untimed interpreter that compiles
#: bytecode); the median is reported.  Spreading the samples over the
#: run damps the host's speed drift.
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


# ======================================================================
# rusage helpers
# ======================================================================
def rusage_snapshot() -> dict:
    """CPU seconds and peak RSS (KiB) of this process and of its
    waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "self_cpu": me.ru_utime + me.ru_stime,
        "child_cpu": kids.ru_utime + kids.ru_stime,
        "self_rss_kib": me.ru_maxrss,
        "child_rss_kib": kids.ru_maxrss,
    }


def rusage_delta(before: dict, after: dict) -> dict:
    """Coordinator and worker CPU seconds spent between two snapshots."""
    return {
        "coordinator_cpu_s": after["self_cpu"] - before["self_cpu"],
        "worker_cpu_s": after["child_cpu"] - before["child_cpu"],
    }


def peak_rss_mb(snapshot: dict) -> float:
    """Peak RSS of the coordinator plus that of the largest child."""
    return (snapshot["self_rss_kib"] + snapshot["child_rss_kib"]) / 1024


def host_jobs() -> int:
    return len(os.sched_getaffinity(0))


# ======================================================================
# One batch
# ======================================================================
@dataclass
class Batch:
    wall_s: float
    cpu: dict
    failed: list[str]
    digest: str | None
    extra: dict = field(default_factory=dict)


def run_batch(suite, workdir: Path) -> Batch:
    workdir.mkdir(parents=True)
    try:
        before = rusage_snapshot()
        start = time.perf_counter()
        result = suite.call(workdir)
        wall = time.perf_counter() - start
        cpu = rusage_delta(before, rusage_snapshot())
        if result is None:
            return Batch(wall, cpu, suite.check(None, workdir), None)
        return Batch(wall, cpu, suite.check(result, workdir),
                     suite.digest(result), suite.extra(result, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def error_rate(batches: list[Batch], operations: int) -> float:
    """Failed operations over attempted operations."""
    return sum(len(b.failed) for b in batches) / (operations * len(batches))


def mark_divergent(batches: list[Batch], operations: int,
                   expected: str | None) -> None:
    """Fail every operation of a batch whose output digest differs from
    ``expected`` (or, without one, from the first digest in the run)."""
    digests = [b.digest for b in batches if b.digest is not None]
    reference = expected or (digests[0] if digests else None)
    for batch in batches:
        if batch.digest is not None and batch.digest != reference:
            batch.failed = [f"op-{i}" for i in range(operations)]


def source_hash() -> str:
    """Fingerprint of the code that makes and digests the outputs: every
    ``.py`` file under ``src/repro`` and in this directory."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "repro").rglob("*.py"),
                        *HERE.glob("*.py")]):
        digest.update(f"{path.relative_to(ROOT)}\0".encode())
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def recorded_digest(path: Path, source: str, key: str,
                    digest: str | None) -> str | None:
    """The digest an earlier run of the same source recorded for inputs
    ``key``; records ``digest`` when there was none.  Entries recorded
    for other source are dropped, so a code change never meets a stale
    digest."""
    known = json.loads(path.read_text()) if path.exists() else {}
    if known.get("source") != source:
        known = {"source": source, "digests": {}}
    if key not in known["digests"] and digest is not None:
        known["digests"][key] = digest
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(path)
    return known["digests"].get(key)


# ======================================================================
# Set-up time
# ======================================================================
def measure_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter to the end of the
    workload's construction (``time.monotonic`` is system-wide)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1]) - start


# ======================================================================
# The two kinds of run
# ======================================================================
def settle(suite, batches: list[Batch]) -> None:
    """Apply the cross-batch and cross-run output checks.  A digest is
    recorded for later runs only when every batch passed every check."""
    mark_divergent(batches, suite.operations, None)
    clean = all(not b.failed for b in batches)
    expected = recorded_digest(OUT / "digests.json", source_hash(),
                               suite.input_key,
                               batches[0].digest if clean else None)
    mark_divergent(batches, suite.operations, expected)


def untraced_run(args, suite, scratch: Path):
    """Batches while another fits in ``--seconds``; end-to-end metrics."""
    def setups():
        return [measure_setup(args.workload, args.seed)
                for _ in range(SETUP_REPEATS)]

    measure_setup(args.workload, args.seed)   # compiles bytecode
    setup_times = setups()
    started = time.perf_counter()
    batches = [run_batch(suite, scratch / "batch-0")]
    while (time.perf_counter() - started
           + statistics.median(b.wall_s for b in batches) <= args.seconds):
        batches.append(run_batch(suite, scratch / f"batch-{len(batches)}"))
    setup_times += setups()
    settle(suite, batches)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(b.wall_s for b in batches),
        "cpu_s": statistics.median(
            b.cpu["coordinator_cpu_s"] + b.cpu["worker_cpu_s"] for b in batches),
        "peak_rss_mb": peak_rss_mb(rusage_snapshot()),
    }
    metrics = {name: report(name, values[name], unit)
               for name, unit in END_TO_END.items()}
    report("error_rate", error_rate(batches, suite.operations), "fraction")
    return batches, metrics, []


def traced_run(args, suite, scratch: Path, jobs: int, host: dict):
    """One untraced and one traced batch; per-layer metrics."""
    import layers
    import spans

    plain = run_batch(suite, scratch / "plain")
    tracer = spans.Tracer(keep=layers.KEEP)
    span_dir = scratch / "spans"
    span_dir.mkdir(parents=True)
    instrumentation = spans.Instrumentation(
        tracer, layers.targets(tracer, span_dir))
    instrumentation.install()
    try:
        traced = run_batch(suite, scratch / "traced")
    finally:
        instrumentation.remove()
    dumps = [tracer.snapshot()] + spans.load_dumps(span_dir)
    (OUT / f"trace-{args.workload}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "host": host,
         "processes": dumps}))
    batches = [plain, traced]
    settle(suite, batches)

    merged = spans.merge(dumps)
    values = dict.fromkeys(layers.PER_LAYER, 0)
    values.update(layers.layer_metrics(merged))
    worker = plain.cpu["worker_cpu_s"]
    values.update({
        "harness.coordinator_cpu_s": plain.cpu["coordinator_cpu_s"],
        "harness.worker_cpu_s": worker,
        "harness.pool_busy_frac": worker / (jobs * plain.wall_s),
        "harness.idle_s_per_cell":
            max(0.0, jobs * plain.wall_s - worker) / suite.operations,
        "trace.overhead_frac": traced.wall_s / plain.wall_s - 1,
        "error_rate": error_rate(batches, suite.operations),
    })
    values.update(traced.extra)
    metrics = {name: report(name, values[name], unit)
               for name, unit in layers.PER_LAYER.items()}
    guard_errors = [f"wrapper {name} recorded no call"
                    for name in layers.missing_calls(args.workload,
                                                     merged["calls"])]
    return batches, metrics, guard_errors


# ======================================================================
# Main
# ======================================================================
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "sample", "fuzz"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_repro() -> str | None:
    """Make this checkout's ``src/repro`` importable, and only it;
    returns an error message when that is not possible."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return f"{src}/repro not found; run from a checkout of the repository"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        return f"imported repro from {repro.__file__}, not {src}"
    return None


def report(name: str, value: float, unit: str) -> dict:
    print(f"{name:28s} {value!r:>24} {unit}")
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    # Exit through SystemExit on SIGTERM, so that multiprocessing's exit
    # handler terminates and joins the pool's daemon workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    problem = import_repro()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from repro.harness.bench import calibrate
    from suites import SUITES

    jobs = host_jobs()
    if args.setup_only:
        SUITES[args.workload](ROOT, args.seed, jobs)
        print(time.monotonic())
        return 0

    suite = SUITES[args.workload](ROOT, args.seed, jobs)
    host = {"nproc": jobs, "python": platform.python_version(),
            "calibrate_miter_s": calibrate()}
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    try:
        if args.trace:
            batches, metrics, guard_errors = traced_run(args, suite, scratch,
                                                        jobs, host)
        else:
            batches, metrics, guard_errors = untraced_run(args, suite, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"workload={args.workload} seed={args.seed} batches={len(batches)} "
          f"operations/batch={suite.operations}")

    failed = [op for batch in batches for op in batch.failed]
    for op in sorted(set(failed)):
        print(f"FAILED output check: {op}", file=sys.stderr)
    for error in guard_errors:
        print(f"FAILED trace guard: {error}", file=sys.stderr)
    correct = not failed and not guard_errors
    print(json.dumps({
        "correct": correct,
        "attempted": suite.operations * len(batches),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
