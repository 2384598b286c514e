"""In-memory spans around calls into the wavebank modules.

`Tracer.install` replaces the public functions of each module by wrappers,
as module attributes.  The CLI and the modules look their collaborators up
through the module at call time, so the wrappers see those calls too.  Spans
stay in memory and are written out once, when the run ends.  A span's self
time is its duration minus the duration of the wrapped calls nested in it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import statistics
import time
from collections import defaultdict

from wavebank import cascade, cli, cuntz, filters, loops, storage, transform

LAYERS = {
    "filters": filters,
    "loops": loops,
    "cuntz": cuntz,
    "cascade": cascade,
    "transform": transform,
    "storage": storage,
    "cli": cli,
}

# Argument position of the file path whose size is counted as the call's bytes.
_PATH_ARG = {"storage.save": 1, "storage.load": 0}
# Counts read off a call's result.
_RESULT_COUNTS = {
    "cascade.cascade_iterate": lambda r: {"iterations": r.iterations, "converged": int(r.converged)},
}


def public_functions(module) -> list[str]:
    names = getattr(module, "__all__", ("main",))  # cli has no __all__; main is its entry
    return [n for n in names if inspect.isfunction(getattr(module, n, None))]


class Tracer:
    def __init__(self):
        # name, start, end, parent index (-1 at top), case id, raised
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)  # "<span>.bytes", "<span>.iterations", ...
        self.case = ""
        self.active = False
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        for layer, module in LAYERS.items():
            for fname in public_functions(module):
                fn = getattr(module, fname)
                self._originals.append((module, fname, fn))
                setattr(module, fname, self._wrap(f"{layer}.{fname}", fn))

    def uninstall(self) -> None:
        for module, fname, fn in reversed(self._originals):
            setattr(module, fname, fn)
        self._originals.clear()

    @contextlib.contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name: str, fn):
        tracer = self
        path_arg = _PATH_ARG.get(name)
        result_counts = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.case, False]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if path_arg is not None and len(args) > path_arg:
                    with contextlib.suppress(OSError):
                        tracer.counts[f"{name}.bytes"] += os.path.getsize(args[path_arg])
            if result_counts is not None:
                for key, value in result_counts(result).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def span_cost(self, calls: int = 20000, repeats: int = 5) -> float:
        """Seconds one recorded span adds to a call: wrapped minus plain calls of a no-op, median of batches."""

        def noop():
            return None

        wrapped = self._wrap("span_cost", noop)
        saved, self.spans = self.spans, []
        costs = []
        try:
            with self.recording():
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    for _ in range(calls):
                        noop()
                    t1 = time.perf_counter()
                    for _ in range(calls):
                        wrapped()
                    t2 = time.perf_counter()
                    costs.append((t2 - t1 - (t1 - t0)) / calls)
                    self.spans.clear()
        finally:
            self.spans = saved
        return statistics.median(costs)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, calls that raised, total and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "failed": 0, "total_s": 0.0, "busy_s": 0.0})
        for i, (name, start, end, _, _, raised) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["failed"] += int(raised)
            row["total_s"] += end - start
            row["busy_s"] += end - start - child[i]
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, case, raised in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "case": case, "raised": raised}
                    )
                    + "\n"
                )
