"""Span tracer that wraps a running program's functions from outside.

A span records a name, its start and end (``time.perf_counter``), the span
that was open when it began (its parent) and the run id of the traced run.
Spans are appended to flat arrays while the program runs and written to
``<out_dir>/spans-<pid>-<n>.npz`` at the end: by the traced process when
:meth:`Tracer.flush` is called, and by forked pool workers when their
outermost span closes and when they exit.  :func:`aggregate` reads the files
back and reduces them to per-name call counts, total time and self time, where
self time is a span's duration minus the durations of its direct children.

Each function is wrapped once and the wrapper is installed at every place the
name is looked up: for a module-level function, every attribute of every
loaded module of the package that is bound to it (so ``from x import y``
sites are covered); for a method, the class attribute.  A name that no longer
exists is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util as mp_util
import os
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Errors a counter hook may hit when a traced function changes its signature
# or return type; the hook is skipped and counted, the traced call is not.
_HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError)


@dataclass(frozen=True)
class Target:
    """One function to trace, named ``<module without package>.<qualname>``."""

    module: str
    qualname: str
    # (args, kwargs) -> label; the span is then named "<name>.<label>"
    split: Callable | None = None
    # (tracer, args, kwargs, result) -> None; records counters after the call
    after: Callable | None = None

    def name(self, package: str) -> str:
        short = self.module[len(package) + 1:] if self.module.startswith(package + ".") else self.module
        return f"{short}.{self.qualname}"


class Tracer:
    """Records spans of the wrapped functions of one package."""

    def __init__(self, package: str, out_dir, run_id: int = 0):
        self.package = package
        self.out_dir = Path(out_dir)
        self.run_id = run_id
        self.absent: dict[str, str] = {}
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._worker = False
        self._flushes = 0
        self._reset_buffers()

    # -- recording --

    def _reset_buffers(self) -> None:
        self._nid = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._last_flush = time.perf_counter()
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def _wrap(self, fn, name: str, target: Target):
        tracer = self
        base = self.name_id(name)
        split, after = target.split, target.after
        split_ids: dict[object, int] = {}
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = tracer
            nid = base
            if split is not None:
                try:
                    label = split(args, kwargs)
                except _HOOK_ERRORS:
                    label = "unknown"
                nid = split_ids.get(label)
                if nid is None:
                    nid = split_ids[label] = t.name_id(f"{name}.{label}")
            idx = len(t._nid)
            t._nid.append(nid)
            t._parent.append(t._stack[-1])
            t._end.append(0.0)
            t._stack.append(idx)
            t._start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t._end[idx] = clock()
                t._stack.pop()
            if after is not None:
                try:
                    after(t, args, kwargs, result)
                except _HOOK_ERRORS:
                    t.count("trace.hook_failures")
            if t._worker and len(t._stack) == 1:
                t._worker_span_closed()
            return result

        return wrapper

    # -- installing --

    def install(self, targets) -> None:
        """Wrap every target that exists; record the others in ``absent``."""
        for target in targets:
            name = target.name(self.package)
            try:
                module = importlib.import_module(target.module)
                *owner_path, attr = target.qualname.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr] if owner_path else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError) as exc:
                self.absent[name] = f"{type(exc).__name__}: {exc}"
                continue
            if not callable(original):
                self.absent[name] = f"{target.module}.{target.qualname} is not callable"
                continue
            wrapper = self._wrap(original, name, target)
            if owner_path:
                sites = [(owner, attr)]
            else:
                sites = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name == self.package or mod_name.startswith(self.package + ".")
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for owner_obj, key in sites:
                self._patches.append((owner_obj, key, original))
                setattr(owner_obj, key, wrapper)
        mp_util.register_after_fork(self, Tracer._after_fork)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- forked workers --

    def _after_fork(self) -> None:
        if not self._patches:
            return
        self._reset_buffers()
        self._worker = True
        mp_util.Finalize(self, self.flush, exitpriority=100)

    def _worker_span_closed(self) -> None:
        # An outermost span closed in a worker: its tree is complete, so the
        # buffer can be written without cutting a parent from its children.
        if len(self._nid) >= 200_000 or time.perf_counter() - self._last_flush >= 1.0:
            self.flush()

    # -- output --

    def flush(self) -> Path | None:
        """Write the buffered spans and counters to a new file and clear them."""
        if not self._nid and not self.counters:
            return None
        import numpy as np

        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}-{self._flushes}.npz"
        self._flushes += 1
        np.savez(
            path,
            name_id=np.frombuffer(self._nid, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            names=np.array(self._names or [""]),
            run_id=np.int64(self.run_id),
            pid=np.int64(os.getpid()),
            worker=np.bool_(self._worker),
            counters=np.array(json.dumps(self.counters)),
        )
        self._reset_buffers()
        return path


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Aggregate:
    spans: dict[str, SpanStats]
    counters: dict[str, float]
    worker_pids: set[int]
    files: int

    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())

    def family(self, name: str) -> SpanStats:
        """Sum of ``name`` and every split span ``name.<label>``."""
        out = SpanStats()
        for key, s in self.spans.items():
            if key == name or key.startswith(name + "."):
                out.calls += s.calls
                out.total_s += s.total_s
                out.self_s += s.self_s
        return out


def aggregate(out_dir) -> Aggregate:
    """Reduce every span file under ``out_dir`` to per-name statistics."""
    import numpy as np

    spans: dict[str, SpanStats] = {}
    counters: dict[str, float] = {}
    worker_pids: set[int] = set()
    paths = sorted(Path(out_dir).glob("spans-*.npz"))
    for path in paths:
        with np.load(path) as data:
            nid, parent = data["name_id"], data["parent"]
            duration = data["end"] - data["start"]
            names = [str(n) for n in data["names"]]
            if bool(data["worker"]):
                worker_pids.add(int(data["pid"]))
            for key, value in json.loads(str(data["counters"])).items():
                counters[key] = counters.get(key, 0.0) + value
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(nid)
        )
        own = duration - child_time
        calls = np.bincount(nid, minlength=len(names))
        total = np.bincount(nid, weights=duration, minlength=len(names))
        self_time = np.bincount(nid, weights=own, minlength=len(names))
        for i, name in enumerate(names):
            if calls[i] == 0:
                continue
            s = spans.setdefault(name, SpanStats())
            s.calls += int(calls[i])
            s.total_s += float(total[i])
            s.self_s += float(self_time[i])
    return Aggregate(spans=spans, counters=counters, worker_pids=worker_pids, files=len(paths))
