"""Spans around calls into the mpemba modules, recorded from outside the library.

A span is ``[name, start, end, parent, op, counters]``: ``name`` is
``<module>.<function>``, ``start``/``end`` are ``time.perf_counter`` readings,
``parent`` is the index of the enclosing span (or ``None``), ``op`` the id of
the benchmark op that was running, and ``counters`` the work units the call
did (time points, proposals, bytes).  Spans stay in memory until the run
writes them out.  Only traced runs wrap anything; timed runs call the library
directly.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name, fn, counters=None):
        """Return ``fn`` timed as span ``name``.

        ``counters(args, kwargs, result) -> dict`` is evaluated after the
        span has closed, so its cost is not charged to the span.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.op, None])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if counters is not None:
                spans[idx][5] = counters(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, counters=None):
        """Replace ``owner.attr`` by its traced form until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, counters))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, summed counters.

        Self time is a span's duration minus the durations of its direct
        children (one thread, so children never overlap).
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, _, _, counters) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counters": {}})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
            for key, value in (counters or {}).items():
                row["counters"][key] = row["counters"].get(key, 0) + value
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "counters")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
