"""In-memory span tracing of the calls the benchmark makes into ``repro``.

The traced pass replaces selected public functions and methods of the
simulator with wrappers that time every call.  Nothing in ``src/`` is
edited: the wrappers are installed on the live classes and module
namespaces, and removed again afterwards.

Each call becomes a span with a name, start, end and parent.  A span's
*self time* is its duration minus the part of it that nested child
spans cover.  Within one process spans nest strictly, so the tracer
computes self time online by subtracting the durations of direct
children; :func:`self_times` computes the same quantity from recorded
span records, and the tests check that the two agree.

Hot calls (``Pipeline.step``, predictor and cache accesses) happen
millions of times per batch, so only their per-name aggregates (calls,
total, self) are kept.  Cold calls (a simulation run, a workload build,
a fuzz seed) are additionally kept as individual span records and
written out at the end.

Pool workers are forked from the coordinator and inherit the installed
wrappers.  :class:`TracedTask` wraps the executor's task so that each
worker resets its copy of the tracer, runs the cell, and writes its
spans to a file the coordinator merges after the batch.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class Tracer:
    """A stack of open spans plus per-name aggregates and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep: frozenset[str] = frozenset()):
        self.clock = clock
        self.keep = keep
        self.reset()

    def reset(self, request: str = "coordinator", parent: str | None = None):
        """Forget everything; later spans belong to ``request`` and
        their root spans point at ``parent`` (a span in another
        process, as ``"<pid>:<id>"``)."""
        self.request = request
        self.root_parent = parent
        self.pid = os.getpid()
        self._stack: list[list] = []   # [name, start, child_time, id]
        self._next_id = 0
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self.spans: list[tuple] = []   # (id, name, start, end, parent)

    def ref(self, span_id: int) -> str:
        return f"{self.pid}:{span_id}"

    def current(self) -> str | None:
        """Reference to the innermost open span, if any."""
        return self.ref(self._stack[-1][3]) if self._stack else self.root_parent

    def enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, self.clock(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if stack:
            stack[-1][2] += duration
            parent = self.ref(stack[-1][3])
        else:
            parent = self.root_parent
        if name in self.keep:
            self.spans.append((self.ref(span_id), name, start, end, parent))

    def snapshot(self) -> dict:
        """JSON-safe dump of this process's spans and aggregates."""
        return {
            "pid": self.pid,
            "request": self.request,
            "spans": [list(span) for span in self.spans],
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
        }


def self_times(spans) -> dict[str, float]:
    """Self time per span name from ``(id, name, start, end, parent)``
    records: each span's duration minus the union of its children's
    intervals, clipped to the span."""
    children: defaultdict[object, list] = defaultdict(list)
    for span in spans:
        children[span[4]].append(span)
    result: defaultdict[str, float] = defaultdict(float)
    for span_id, name, start, end, _ in spans:
        covered, cursor = 0.0, start
        for _, _, c_start, c_end, _ in sorted(
            children.get(span_id, ()), key=lambda s: s[2]
        ):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[name] += (end - start) - covered
    return dict(result)


def merge(dumps) -> dict:
    """Sum the aggregates and counters of several process dumps."""
    merged = {"calls": Counter(), "total": Counter(), "self": Counter(),
              "counters": Counter()}
    for dump in dumps:
        for key in merged:
            merged[key].update(dump[key])
    return merged


# ======================================================================
# Wrapper installation
# ======================================================================
@dataclass(frozen=True)
class Target:
    """One public function or method to wrap.

    ``where`` is ``"module:Class.method"`` or ``"module:function"``.
    ``before(args)`` returns a token handed to
    ``after(tracer, args, result, token)`` once the call returns.
    """

    span: str
    where: str
    before: Callable | None = None
    after: Callable | None = None


def _wrap(tracer: Tracer, target: Target, fn):
    name, before, after = target.span, target.before, target.after
    enter, exit_ = tracer.enter, tracer.exit

    if before is None and after is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
        return traced

    @functools.wraps(fn)
    def traced_with_hooks(*args, **kwargs):
        token = before(args) if before is not None else None
        frame = enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_(frame)
        if after is not None:
            after(tracer, args, result, token)
        return result
    return traced_with_hooks


class Instrumentation:
    """Install wrappers for ``targets``; :meth:`remove` restores every
    original.  Module-level functions are replaced in every loaded
    ``repro`` module that imported them by name."""

    def __init__(self, tracer: Tracer, targets):
        self.tracer = tracer
        self.targets = tuple(targets)
        self._undo: list[tuple] = []

    def install(self) -> None:
        for target in self.targets:
            module_name, _, path = target.where.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, _wrap(self.tracer, target, original))
            else:
                self._install_function(getattr(module, path), target)

    def _install_function(self, original, target: Target) -> None:
        wrapped = _wrap(self.tracer, target, original)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class TracedTask:
    """Executor task wrapper: runs a cell under a forked worker's copy
    of the tracer and writes that process's spans to ``out_dir``."""

    def __init__(self, inner, tracer: Tracer, out_dir: Path):
        self.inner = inner
        self.tracer = tracer
        self.owner_pid = os.getpid()
        self.out_dir = Path(out_dir)

    def __call__(self, record: dict) -> dict:
        tracer = self.tracer
        if os.getpid() == self.owner_pid:
            return self.inner(record)   # inline executor: same tracer
        # The forked copy still holds the coordinator's open spans; the
        # innermost one (the executor run) becomes this cell's parent.
        tracer.reset(request=f"{record['workload']}/{record['mode']}",
                     parent=tracer.current())
        frame = tracer.enter("harness.cell")
        try:
            return self.inner(record)
        finally:
            tracer.exit(frame)
            path = self.out_dir / f"spans-{os.getpid()}-{time.monotonic_ns()}.json"
            path.write_text(json.dumps(tracer.snapshot()))


def load_dumps(out_dir: Path) -> list[dict]:
    return [json.loads(path.read_text())
            for path in sorted(Path(out_dir).glob("spans-*.json"))]
