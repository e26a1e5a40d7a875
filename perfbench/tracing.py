"""In-memory spans recorded around calls into estbound's public functions.

The benchmark changes nothing in the library: `Tracer.install` replaces a
function or method with a wrapper that records one span per call (name,
start, end, parent) and calls the original. Spans stay in memory until the
run ends; `summary` derives per-name call counts, total time and self time
(a span's duration minus the time covered by its child spans), and `dump`
writes the raw spans as CSV.
"""

from __future__ import annotations

import functools
import sys
import time
import types


class Tracer:
    def __init__(self) -> None:
        # One record per span: [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """fn, recording one span called name per call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def install(self, owner, attr: str, name: str) -> None:
        """Trace owner.attr for the rest of the process. For a module-level
        function, every loaded estbound module that imported it by name gets
        the wrapper too, so calls through `from .x import f` are seen."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original)
        targets = [owner]
        if isinstance(owner, types.ModuleType):
            targets = [
                module
                for mod_name, module in sys.modules.items()
                if mod_name.startswith("estbound")
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            setattr(target, attr, traced)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - inner
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
