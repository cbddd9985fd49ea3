#!/usr/bin/env python3
"""Self-check of the benchmark's span arithmetic (tracing.py).

Runs without the package and in well under a second:

    python3 perfbench/check_spans.py

Exits 0 and prints ``span arithmetic ok`` when every case holds.
"""

from __future__ import annotations

import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Recorder, Span, check_spans, counter, self_by, self_times  # noqa: E402


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12


def check_hand_built_tree() -> None:
    # bench [0, 10] > optimizer [1, 8] > plant [2, 5], patterns [5, 6]; cli [8, 9.5]
    spans = [
        Span("bench.rep", "bench", 0.0, 10.0),
        Span("optimizer.step", "optimizer", 1.0, 8.0, parent=0),
        Span("plant.batch", "plant", 2.0, 5.0, parent=1),
        Span("patterns.decode", "patterns", 5.0, 6.0, parent=1),
        Span("cli.analyze", "cli", 8.0, 9.5, parent=0),
    ]
    own = self_times(spans)
    for got, want in zip(own, [1.5, 3.0, 3.0, 1.0, 1.5]):
        assert close(got, want), (own, "self times")
    layers = self_by(spans, "layer")
    assert close(sum(layers.values()), 10.0), layers
    assert close(layers["optimizer"], 3.0), layers
    # 1.5 s outside every layer span: within an overhead of 1.5 s, not of 0.5 s
    # (the 1 % floor of a 10 s wall is 0.1 s).
    assert check_spans(spans, "bench", 1.5) == []
    assert any("overhead" in p for p in check_spans(spans, "bench", 0.5))


def check_broken_trees_are_reported() -> None:
    escaped = [
        Span("bench.rep", "bench", 0.0, 10.0),
        Span("plant.batch", "plant", 9.0, 11.0, parent=0),
    ]
    assert any("outside its parent" in p for p in check_spans(escaped, "bench", 10.0))
    overlapping = [
        Span("bench.rep", "bench", 0.0, 10.0),
        Span("optimizer.step", "optimizer", 1.0, 4.0, parent=0),
        Span("plant.batch", "plant", 1.0, 4.0, parent=1),
        Span("plant.batch", "plant", 1.0, 4.0, parent=1),
    ]
    assert any("negative self time" in p for p in check_spans(overlapping, "bench", 10.0))
    two_roots = [Span("bench.rep", "bench", 0.0, 1.0), Span("bench.rep", "bench", 1.0, 2.0)]
    assert check_spans(two_roots, "bench", 1.0) != []


def check_recorder_round_trip() -> None:
    def spin(seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def outer(n):
        spin(0.002)
        for _ in range(n):
            module.inner()
        return n

    module = types.SimpleNamespace(inner=lambda: spin(0.001), outer=outer)
    originals = (module.inner, module.outer)

    untraced = Recorder(traced=False)
    untraced.instrument(module, "outer", ("optimizer.outer", "optimizer"), probe="outer")
    untraced.instrument(module, "inner", ("plant.inner", "plant"))  # span only: not bound
    assert module.inner is originals[0]
    module.outer(3)
    untraced.restore()
    assert untraced.spans == [] and len(untraced.samples["outer"]) == 1

    rec = Recorder(traced=True)
    rec.instrument(module, "outer", ("optimizer.outer", "optimizer"), probe="outer")
    rec.instrument(module, "inner", ("plant.inner", "plant"),
                   observe=counter("calls", lambda args, result: 1))
    t0 = time.perf_counter()
    root = rec.open("bench.rep", "bench", t0)
    assert module.outer(4) == 4
    rec.close(root)
    rec.restore()
    assert (module.inner, module.outer) == originals
    assert rec.counts["calls"] == 4
    assert [s.name for s in rec.spans].count("plant.inner") == 4
    assert all(s.parent == 1 for s in rec.spans if s.name == "plant.inner")
    assert check_spans(rec.spans, "bench", 0.0) == [], check_spans(rec.spans, "bench", 0.0)
    layers = self_by(rec.spans, "layer")
    assert layers["plant"] >= 0.004 and layers["optimizer"] >= 0.002, layers
    assert min(self_times(rec.spans)) >= 0.0


def run_all() -> None:
    """Raise AssertionError on the first case that does not hold."""
    check_hand_built_tree()
    check_broken_trees_are_reported()
    check_recorder_round_trip()


def main() -> int:
    run_all()
    print("span arithmetic ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
