"""Spans and call counts recorded from the benchmark's own calls.

Spans wrap only the benchmark's calls into twistlab's public functions;
nothing inside the package is instrumented.  A span records its name,
start, end, parent span, op id and any work counts the caller attaches.
Replayed lower-layer calls (the same inputs run one layer down, right
after the op) are spans whose parent is the span they replay, so a
layer's self time is its span minus the replayed children.

Call counts come from ``CountingMap``, a ``LiftedMap`` subclass that
tallies calls and elements through the five kernel methods.  Counts are
diagnostic: they stay valid only while the engine calls these methods.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from pathlib import Path

from twistlab.maps import LiftedMap

SCALAR_METHODS = ("apply_scalar", "apply_inverse_scalar", "jacobian_scalar")
ARRAY_METHODS = ("apply_array", "jacobian_array")


class CountingMap(LiftedMap):
    """A LiftedMap that tallies kernel calls into a shared Counter.

    Scalar methods add one call each; array methods add one call and the
    number of elements they process (``<method>.elems``).
    """

    def __init__(self, base: LiftedMap, counts: Counter) -> None:
        super().__init__(base.family, base.params, base.twist_sign)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "plain", base)

    def apply_scalar(self, x, y):
        self.counts["apply_scalar"] += 1
        return super().apply_scalar(x, y)

    def apply_inverse_scalar(self, x, y):
        self.counts["apply_inverse_scalar"] += 1
        return super().apply_inverse_scalar(x, y)

    def jacobian_scalar(self, x, y):
        self.counts["jacobian_scalar"] += 1
        return super().jacobian_scalar(x, y)

    def apply_array(self, x, y):
        self.counts["apply_array"] += 1
        self.counts["apply_array.elems"] += x.size
        return super().apply_array(x, y)

    def jacobian_array(self, x, y):
        self.counts["jacobian_array"] += 1
        self.counts["jacobian_array.elems"] += x.size
        return super().jacobian_array(x, y)


def plain(m: LiftedMap) -> LiftedMap:
    """The uncounted map behind a CountingMap (or the map itself)."""
    return getattr(m, "plain", m)


class NullTracer:
    """Tracing off: spans cost one shared no-op context manager."""

    active = False
    op = None

    def __init__(self) -> None:
        self._null = contextlib.nullcontext({})

    def span(self, name: str, parent: int | None = None, **work):
        return self._null


class Tracer:
    """In-memory span recorder; write() dumps the spans as JSON."""

    active = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self.phase = "main"
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, **work):
        idx = len(self.spans)
        if parent is None and self._stack:
            parent = self._stack[-1]
        rec = {"name": name, "parent": parent, "op": self.op, "phase": self.phase, **work}
        self.spans.append(rec)
        self._stack.append(idx)
        before = dict(self.counts)
        rec["id"] = idx
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            delta = {k: v - before.get(k, 0) for k, v in self.counts.items()}
            rec["counts"] = {k: v for k, v in delta.items() if v}

    def scale(self, cal) -> None:
        """Scale every span to the reference kernel's speed (see calibrate.py)."""
        for rec in self.spans:
            rec["dur"] = (rec["end"] - rec["start"]) * cal.factor(rec["start"])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


def duration(rec: dict) -> float:
    """A span's scaled duration once Tracer.scale ran, else its wall time."""
    return rec.get("dur", rec["end"] - rec["start"])
