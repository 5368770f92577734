"""In-memory spans recorded from outside the program, and what they add up to.

A :class:`Tracer` wraps public functions and methods of the program
(:meth:`Tracer.patch`) so every call records a span: name, start, end and
the span that was open when it started.  Spans stay in memory; the run
writes them out at the end as a Chrome-trace JSON file that Perfetto
opens.  A layer's *self time* is its spans' durations minus the part of
each covered by the span's children.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index or None, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, attrs])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - misuse
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str, **attrs):
        index = self.begin(name, **attrs)
        try:
            yield index
        finally:
            self.end(index)

    def record(self, name: str, start: float, end: float, parent: int | None,
               **attrs) -> None:
        """Add a finished span (for concurrent work the stack cannot nest)."""
        self.spans.append([name, start, end, parent, attrs])

    # -- wrapping the program -------------------------------------------

    def _timed(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return wrapper

    def patch(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is a module (patch the global its callers look up) or a
        class (plain methods, classmethods and property getters).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, property):
            new = property(self._timed(raw.fget, name), raw.fset, raw.fdel, raw.__doc__)
        elif isinstance(raw, classmethod):
            new = classmethod(self._timed(raw.__func__, name))
        else:
            new = self._timed(raw, name)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis -------------------------------------------------------

    def _descendants(self, root: int) -> list[int]:
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                children[s[3]].append(i)
        out, todo = [], [root]
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(children[i])
        return out

    def self_times(self, root: int) -> dict[str, tuple[float, int]]:
        """Self time and call count per span name, over ``root``'s subtree."""
        subtree = self._descendants(root)
        intervals = defaultdict(list)
        for i in subtree:
            parent = self.spans[i][3]
            if i != root and parent is not None:
                intervals[parent].append((self.spans[i][1], self.spans[i][2]))
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i in subtree:
            name, start, end, _, _ = self.spans[i]
            covered, reach = 0.0, start
            for lo, hi in sorted(intervals[i]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[name][0] += (end - start) - covered
            totals[name][1] += 1
        return {name: (t, n) for name, (t, n) in totals.items()}

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def export_chrome(self, path: Path, process_name: str) -> None:
        """Write every span as Chrome-trace JSON (opens in Perfetto)."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        events = [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": process_name}},
        ]
        for i, (name, start, end, parent, attrs) in enumerate(self.spans):
            args = {"span": i, "parent": parent, **attrs}
            if "request" in attrs:
                # Concurrent requests overlap without nesting: async events.
                common = {"name": name, "cat": "request", "pid": 1,
                          "id": f"{attrs.get('phase', '')}-{attrs['request']}"}
                events.append({**common, "ph": "b", "ts": (start - t0) * 1e6,
                               "args": args})
                events.append({**common, "ph": "e", "ts": (end - t0) * 1e6})
            else:
                events.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                               "ts": (start - t0) * 1e6,
                               "dur": (end - start) * 1e6, "args": args})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


def ledger_lines(times: dict[str, tuple[float, int]], wall: float) -> list[str]:
    """The per-layer self-time table, largest first, as printable lines."""
    lines = [f"  {'layer':<28} {'self s':>9} {'share':>7} {'calls':>7}"]
    for name, (secs, calls) in sorted(times.items(), key=lambda kv: -kv[1][0]):
        share = 100.0 * secs / wall if wall > 0 else 0.0
        lines.append(f"  {name:<28} {secs:9.4f} {share:6.1f}% {calls:7d}")
    return lines
