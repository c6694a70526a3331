"""In-memory span recorder that times vrusim's layers from outside.

``Tracer.patch`` replaces a function that one vrusim module imported from
another (``harness.simulate_run``, ``aeb.sense_frame``, ...), so every call
across that boundary becomes a span with a name, start, end, parent span and
sweep cell.  Per-step kernels (contact tests, per-sensor sensing, occlusion)
run up to millions of times, so their calls are aggregated per name and not
stored one by one; that keeps the trace small and the overhead low.  A
layer's self time is its duration minus the time of the spans it caused.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, cell)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self.cell: str | None = None
        self._stack: list[list] = []  # [name, start, child time, span id]
        self._patches: list[tuple] = []
        self._next_id = 0

    def _enter(self, name: str, keep: bool) -> list:
        span_id = None
        if keep:
            span_id, self._next_id = self._next_id, self._next_id + 1
        frame = [name, 0.0, 0.0, span_id]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if span_id is not None:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans.append((span_id, name, start, end, parent, self.cell))

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    def patch(self, owner, attr: str, name: str, *, keep: bool = True,
              before=None, after=None) -> None:
        """Wrap ``owner.attr``.

        ``before(args, kwargs)`` may return a span name that replaces
        ``name`` for this call; ``after(name, args, kwargs, result)`` runs
        once the call has returned.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            label = (before(args, kwargs) if before else None) or name
            frame = self._enter(label, keep)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(frame)
            if after:
                after(label, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def write(self, path) -> None:
        """Stored spans as JSON lines, then one line of per-name aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, cell in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "cell": cell}) + "\n")
            fh.write(json.dumps({"aggregates": {
                name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name]}
                for name in sorted(self.calls)
            }}) + "\n")
