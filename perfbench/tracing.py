"""Probes, spans and self-time arithmetic for the rampopt benchmark.

The benchmark never edits the package.  For the length of one repetition it
rebinds the package's public functions (``Recorder.instrument``) and puts the
originals back afterwards.  A rebinding can carry

* a probe: the call's duration is appended to a sample list.  Probes run in
  the untraced and the traced run alike; the end-to-end latency percentiles
  come from them;
* a span (traced run only): name, layer, start, end and parent span;
* an observer: a cheap callback that counts work (rows, points, bytes) or
  keeps a result for inspection after the timed section.

A span's self time is its duration minus the durations of its direct
children, so the self times of one tree add up to the root's duration.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# Float slack when comparing sums of perf_counter differences, seconds.
EPS = 1e-6
# Smallest allowance for time outside every layer span, as a share of the
# traced wall time; the measured tracing overhead is noisy and can be ~0.
UNATTRIBUTED_FLOOR = 0.01


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = float("nan")
    parent: int = -1


class Timed:
    """Duration of a ``Recorder.section`` block, set when the block ends."""

    seconds = float("nan")


class Recorder:
    """Spans, probe samples and counters of one repetition."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[Span] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.kept: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def open(self, name: str, layer: str, start: float | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, time.perf_counter() if start is None else start,
                               parent=parent))
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self._stack.pop()
        self.spans[idx].end = time.perf_counter() if end is None else end

    @contextmanager
    def section(self, name: str, layer: str):
        """Time the block, as a span when traced; yields a ``Timed``."""
        timed = Timed()
        t0 = time.perf_counter()
        idx = self.open(name, layer, t0) if self.traced else -1
        try:
            yield timed
        finally:
            t1 = time.perf_counter()
            if self.traced:
                self.close(idx, t1)
            timed.seconds = t1 - t0

    def instrument(self, owner, attr: str, span: tuple[str, str] | None = None,
                   probe: str | None = None, observe=None) -> None:
        """Rebind ``owner.attr`` until ``restore``.

        span    : (name, layer), recorded in the traced run only
        probe   : sample key for the call's duration, recorded in both runs
        observe : ``observe(recorder, args, result)`` after each call
        """
        if not self.traced:
            span = None
        if span is None and probe is None and observe is None:
            return
        fn = getattr(owner, attr)
        rec = self

        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            idx = rec.open(span[0], span[1], t0) if span else -1
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if span:
                    rec.close(idx, t1)
            if probe:
                rec.samples[probe].append(t1 - t0)
            if observe:
                observe(rec, args, result)
            return result

        self._originals.append((owner, attr, fn))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)


def counter(key: str, amount):
    """Observer that adds ``amount(args, result)`` to ``recorder.counts[key]``."""

    def observe(rec: Recorder, args, result) -> None:
        rec.counts[key] += amount(args, result)

    return observe


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def self_by(spans: list[Span], key: str) -> dict[str, float]:
    """Self time summed per span ``name`` or per ``layer``."""
    totals: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        totals[getattr(s, key)] += own
    return dict(totals)


def check_spans(spans: list[Span], root_layer: str, overhead_s: float) -> list[str]:
    """Problems in the span arithmetic of one traced repetition (empty if none).

    There must be exactly one root span, of layer ``root_layer``, covering the
    timed section.  Every span must lie inside its parent, every self time
    must be >= 0, and the layers' self times must add up to the traced wall
    time.  The root's own self time is time spent outside every layer span
    (the benchmark's loop and the tracer's bookkeeping); it must stay within
    the measured tracing overhead.
    """
    problems = []
    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    if len(roots) != 1 or spans[roots[0]].layer != root_layer:
        return [f"expected one {root_layer} root span, got {len(roots)} roots"]
    root = spans[roots[0]]
    wall = root.end - root.start
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        if not s.end >= s.start:
            problems.append(f"span {i} {s.name} ends before it starts")
            continue
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {i} {s.name} lies outside its parent {p.name}")
        if own < -EPS:
            problems.append(f"span {i} {s.name} has negative self time {own!r}")
    layers = self_by(spans, "layer")
    for layer, total in layers.items():
        if total > wall + EPS:
            problems.append(f"layer {layer} self time {total!r} exceeds wall {wall!r}")
    if abs(sum(layers.values()) - wall) > EPS:
        problems.append(f"layer self times sum to {sum(layers.values())!r}, wall is {wall!r}")
    unattributed = layers.get(root_layer, 0.0)
    allowance = max(overhead_s, 0.0) + UNATTRIBUTED_FLOOR * wall
    if unattributed > allowance:
        problems.append(f"{unattributed!r} s outside every layer span exceeds the tracing "
                        f"overhead allowance {allowance!r} s")
    return problems
