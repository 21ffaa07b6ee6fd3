"""Span recorder for the benchmark.

The benchmark wraps the program's public functions where they are looked up
(a name bound with ``from ... import`` is patched in the importing module)
and records one span per call: name, start, end, parent span and the id of
the pass it belongs to. Spans stay in memory and are written out when the
run ends. A span's self time is its duration minus the time its direct
children cover.

Untraced passes install the host-speed-corrected clock of ``hostclock.py``
and record one span around the program call; traced passes install the
full set of spans.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, RUN = range(5)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, count=None):
        """``fn`` timed as a span. ``name`` is a string or a function of the
        call's arguments; ``count(counts, args, result)`` adds counters."""

        def wrapper(*args, **kwargs):
            idx = self._open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def wrap_generator(self, fn, name, count=None):
        """A generator function whose every ``next`` is a span, so the
        caller's own work between items is not charged to it."""

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                if count is not None:
                    count(self.counts, args, item)
                yield item

        return wrapper

    # -- patching ------------------------------------------------------------

    def timed(self, owner, attr: str, name, count=None, generator=False):
        """A patch (see ``installed``) that records a span per call."""
        make = self.wrap_generator if generator else self.wrap
        return owner, attr, lambda fn: make(fn, name, count)

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            fn = getattr(owner, attr)
        else:
            fn = raw
        wrapped = make(fn)
        setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
        self._patched.append((owner, attr, raw))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, patches):
        """Apply ``patches`` ((owner, attr, make) tuples) for the duration
        of the block."""
        try:
            for owner, attr, make in patches:
                self.patch(owner, attr, make)
            yield self
        finally:
            self.unpatch()

    # -- analysis ------------------------------------------------------------

    def of_run(self, run_id: str) -> list[tuple[str, float, float]]:
        """(name, duration, self time) of every span of one pass."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [
            (s[NAME], s[END] - s[START], s[END] - s[START] - child[i])
            for i, s in enumerate(self.spans)
            if s[RUN] == run_id
        ]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                f.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent if parent >= 0 else None, "run": run}
                ) + "\n")


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for name, dur, self_s in spans:
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += self_s
    return out
