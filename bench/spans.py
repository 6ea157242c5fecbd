"""In-memory span recorder that wraps functions from outside the program.

A span is one call of a wrapped function: its name, start and end on the
`time.perf_counter` clock, the index of the span that was open when it began
(-1 for none), the id of the operation it belongs to (-1 outside any
operation), and an optional note taken from the call's arguments and result.
Spans stay in memory until the caller writes them out.

`Tracer.patch` replaces an attribute of a module or class with a recording
wrapper and `Tracer.restore` puts every original back. A name imported by
value (`from .optim import train_step`) must be patched where it is looked
up, i.e. in the importing module.
"""

from __future__ import annotations

import csv
import functools
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    note: Any = None
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the functions it wraps; single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._n_ops = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def _open(self, name: str, op: bool) -> int:
        if op:
            self._op = self._n_ops
            self._n_ops += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self._op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, op: bool, outer_op: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()
        if op:
            self._op = outer_op

    def wrap(self, name: str, fn: Callable, *, op: bool = False,
             note: Callable[[tuple], Callable[[Any], Any]] | None = None) -> Callable:
        """Wrapper of `fn` that records one span per call.

        `op=True` starts a new operation id for the call and everything under
        it. `note(args)` runs before the call and returns a function of the
        result whose value is stored on the span.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            finish = note(args) if note is not None else None
            outer_op = self._op
            idx = self._open(name, op)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[idx].failed = True
                self._close(idx, op, outer_op)
                raise
            self._close(idx, op, outer_op)
            if finish is not None:
                self.spans[idx].note = finish(result)
            return result

        return wrapper

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call `fn` inside a span named `name`."""
        return self.wrap(name, fn)(*args, **kwargs)

    def patch(self, owner: Any, attr: str, name: str, **kw) -> None:
        """Replace `owner.attr` with a recording wrapper until `restore`."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def write_csv(path, groups: Sequence[Sequence[Span]]) -> None:
    """Write spans to CSV, one row each; `group` numbers the sequences."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["group", "name", "start", "end", "parent", "op", "failed"])
        for g, group in enumerate(groups):
            for s in group:
                w.writerow([g, s.name, repr(s.start), repr(s.end), s.parent, s.op, int(s.failed)])


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = s.start
        for j in sorted(children.get(i, ()), key=lambda k: spans[k].start):
            a, b = max(spans[j].start, lo), min(spans[j].end, s.end)
            if b > a:
                covered += b - a
                lo = b
        out.append(s.duration - covered)
    return out


# Tail percentiles tried from the highest down; the tail is the highest one
# with at least MIN_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(n: int, ceiling: float = TAIL_LADDER[0]) -> float:
    """Highest ladder percentile <= `ceiling` with MIN_BEYOND samples beyond it
    among `n`; 50 when even the median has fewer."""
    for q in TAIL_LADDER:
        if q <= ceiling and n * (100.0 - q) / 100.0 >= MIN_BEYOND:
            return q
    return 50.0


def percentile(values: Iterable[float], q: float) -> float:
    """Linearly interpolated percentile (numpy's default); 0.0 when empty."""
    vals = sorted(values)
    if not vals:
        return 0.0
    pos = (len(vals) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)
