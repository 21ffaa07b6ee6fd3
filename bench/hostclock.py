"""Host-speed-corrected timing for the benchmark.

On a shared host the CPU speed a process gets moves by up to ~1.8x within
seconds (a neighbour on a sibling core or hyperthread), and the mix of fast
and slow moments drifts over minutes. Wall times taken minutes apart then
differ by more than a regression worth catching. The clock here measures
that speed as it goes: between pieces of the program's work it runs a
fixed calibration unit (stdlib or numpy only, no qcmine code) and scales
each piece of wall time by how long the adjacent calibration units took.

    corrected = wall * REF_S[kind] / mean(calibration before, calibration after)

``REF_S`` is the calibration unit's time on a quiet 2-vCPU x86_64 host, so
corrected seconds read close to wall seconds there. A change to the
program moves the wall time of its pieces but not the calibration units,
so it shows in full in the corrected time. Calibration time is excluded
from both the wall and the corrected sums, and the garbage collector is
paused while a unit runs, so the program's heap size does not leak into
the measure of host speed.

A pass opens a work window around one public call (``window``); hooks
on the program's per-item boundaries call ``tick``, which closes the
current piece once it is ``interval_s`` long. Work pieces are calibrated
with the unit of the workload's kind. Set-up calls (artifact loaders,
dump readers) are timed whole (``measured``), with a ``python`` unit right
before and right after them, because they parse JSON and text whatever
the workload.
"""

from __future__ import annotations

import gc
import json
import re
from dataclasses import dataclass
from html.parser import HTMLParser
from time import perf_counter

import numpy as np

_DOC = json.dumps({
    "title": "How do I sort a list of dictionaries by a value of the dictionary",
    "tags": ["python", "list", "sorting"],
    "body": "<p>I have a <code>list</code> of dicts and want to sort it by the name key.</p>"
            "<pre><code>for item in sorted(items, key=lambda d: d['name']):\n"
            "    print(item)\n</code></pre>"
            "<ul><li>first point here</li><li>second point</li></ul>",
})
_WORD = re.compile(r"\w+|[^\w\s]")


class _Collector(HTMLParser):
    def __init__(self):
        super().__init__()
        self.parts: list[str] = []

    def handle_starttag(self, tag, attrs):
        self.parts.append(tag)

    def handle_data(self, data):
        self.parts.append(data)


@dataclass
class _Token:
    text: str
    pos: int


def python_unit() -> int:
    """Read a JSON record, parse its HTML, tokenize, count and write JSON:
    the kind of work the pre-ensemble pipeline does."""
    n = 0
    for _ in range(3):
        record = json.loads(_DOC)
        parser = _Collector()
        parser.feed(record["body"])
        parser.close()
        text = " ".join([record["title"], *parser.parts])
        tokens = [_Token(t.lower(), i) for i, t in enumerate(_WORD.findall(text))]
        counts: dict[str, int] = {}
        for tok in tokens:
            counts[tok.text] = counts.get(tok.text, 0) + 1
        n += len(json.dumps({"tokens": len(tokens), "types": len(counts)}))
    return n


_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((12, 150))
_W = _RNG.standard_normal((150, 192)) * 0.1
_U = _RNG.standard_normal((64, 192)) * 0.1


def numpy_unit() -> float:
    """Small GRU-shaped steps (150-wide inputs, 64-wide state), the kind
    of work the ensemble and training do."""
    h = np.zeros(64)
    for x in _X:
        gates = x @ _W + h @ _U
        z = 1.0 / (1.0 + np.exp(-gates[:64]))
        r = 1.0 / (1.0 + np.exp(-gates[64:128]))
        h = (1.0 - z) * h + z * np.tanh(gates[128:] * r)
    return float(h.sum())


UNITS = {"python": python_unit, "numpy": numpy_unit}
# Seconds per calibration unit on a quiet 2-vCPU x86_64 host.
REF_S = {"python": 0.00035, "numpy": 0.00038}


SETUP_KIND = "python"


class HostClock:
    def __init__(self, kind: str, interval_s: float = 0.02):
        self.kind = kind
        self.interval_s = interval_s
        self.setup_wall = self.setup_s = 0.0
        self.work_wall = self.work_s = 0.0
        self.calibrations: list[float] = []  # work-kind units, in seconds
        self._open = False
        self._t0 = 0.0
        self._cal = 0.0

    def _calibrate(self, kind: str | None = None) -> float:
        """Seconds one calibration unit takes now, scaled to the work kind's
        reference so that units of either kind compare."""
        kind = kind or self.kind
        gc.disable()
        try:
            t = perf_counter()
            UNITS[kind]()
            dur = perf_counter() - t
        finally:
            gc.enable()
        if kind == self.kind:
            self.calibrations.append(dur)
        return dur * REF_S[self.kind] / REF_S[kind]

    def _corrected(self, wall: float, before: float, after: float) -> float:
        return wall * REF_S[self.kind] / ((before + after) / 2)

    def _close_piece(self) -> None:
        wall = perf_counter() - self._t0
        before, self._cal = self._cal, self._calibrate()
        self.work_wall += wall
        self.work_s += self._corrected(wall, before, self._cal)
        self._t0 = perf_counter()

    def tick(self) -> None:
        if self._open and perf_counter() - self._t0 >= self.interval_s:
            self._close_piece()

    def window(self, fn):
        """``fn`` with every call timed as work, minus its ``measured`` calls."""

        def wrapper(*args, **kwargs):
            self._cal = self._calibrate()
            self._open = True
            self._t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close_piece()
                self._open = False

        return wrapper

    def measured(self, fn):
        """``fn`` timed whole as set-up."""

        def wrapper(*args, **kwargs):
            if self._open:
                self._close_piece()
            before = self._calibrate(SETUP_KIND)
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = perf_counter() - t
                self.setup_wall += wall
                self.setup_s += self._corrected(wall, before, self._calibrate(SETUP_KIND))
                if self._open:
                    self._cal = self._calibrate()
                    self._t0 = perf_counter()

        return wrapper

    def ticking(self, fn):
        """``fn`` with a tick before every call."""

        def wrapper(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)

        return wrapper

    def ticking_generator(self, fn):
        """A generator function with a tick before every item it yields."""

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.tick()
                yield item

        return wrapper
