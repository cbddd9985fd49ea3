#!/usr/bin/env python3
"""rampopt benchmark: one command, three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {campaign,external,sweep} --seed N \
        --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics; --trace 1 runs the workload once
untraced and once traced and reports the per-layer metrics and the tracing
overhead.  The metric names and units are those of BENCHMARK.json.  Every
metric is printed with its unit and sample count, then the machine and
thread settings, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# setup_s is the median of this many cold set-ups.  One set-up varies by up to
# 40 % within seconds on a shared host; in 700 set-ups in a row, the median of
# blocks of 31 spread 0.06 (quartile distance over median), of blocks of 11
# 0.10, and the minimum of blocks of 31 0.10.  Each trial adds about 0.3 s to
# a run.
SETUP_TRIALS = 31
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# evals_per_s is the rate that 90 % of windows of at least this many seconds
# of generations reach: the host's speed swings within a run, and a high
# percentile of the slow side moves far less between runs than a mean.
RATE_WINDOW_S = 0.1


def pin() -> tuple[int, int]:
    """Pin BLAS / OpenMP pools to one thread (never more than nproc) and bind
    the process to its lowest allowed CPU; returns (nproc, cpu).

    Call before numpy loads.  Child processes inherit both, and the traced and
    untraced runs get the same settings.  In a VM, waking a process on
    another vCPU is slow and erratic: with the external workload's client and
    server on two CPUs, its p99 round trip varied 2-10 ms from run to run; on
    one CPU it stays under 1 ms.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def pct(samples: list[float], q: float) -> float:
    """Percentile of durations in seconds, returned in milliseconds."""
    import numpy as np

    return float(np.percentile(np.asarray(samples), q)) * 1e3


def window_rates(reps, window_s: float) -> list[float]:
    """Evaluations per second over consecutive generations of at least window_s."""
    rates = []
    for r in reps:
        evals = seconds = 0.0
        for dt in r.rec.samples["generation"]:
            evals += r.generation_evals
            seconds += dt
            if seconds >= window_s:
                rates.append(evals / seconds)
                evals = seconds = 0.0
    return rates


def end_to_end(reps, setup: list[float]) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count); every rep is untraced."""
    import numpy as np

    gen = [s for r in reps for s in r.rec.samples["generation"]]
    ev = [s for r in reps for s in r.rec.samples["eval"]]
    rates = window_rates(reps, RATE_WINDOW_S)
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "evals_per_s": (float(np.percentile(rates, 10)), len(rates)),
        "generation_p90_ms": (pct(gen, 90), len(gen)),
        "eval_p90_ms": (pct(ev, 90), len(ev)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        # Printed but not gated: their spread over ten runs reached 0.3-0.56
        # of the median on campaign and external (see README.md).
        "wall_s": (statistics.median(r.wall_s for r in reps), len(reps)),
        "generation_p50_ms": (pct(gen, 50), len(gen)),
        "generation_p99_ms": (pct(gen, 99), len(gen)),
        "eval_p50_ms": (pct(ev, 50), len(ev)),
        "eval_p99_ms": (pct(ev, 99), len(ev)),
    }


def span_layers(rec) -> dict[str, float]:
    """Per-layer values of one traced repetition, from its spans and counters."""
    from tracing import self_by

    spans = rec.spans
    by_name = self_by(spans, "name")
    by_layer = self_by(spans, "layer")
    calls = Counter(s.name for s in spans)
    root = spans[0]
    return {
        "plant.batch_calls": calls["plant.batch"],
        "plant.batch_rows": rec.counts["plant.batch_rows"],
        "plant.batch_s": by_name.get("plant.batch", 0.0),
        "plant.single_calls": calls["plant.single"],
        "plant.single_s": by_name.get("plant.single", 0.0),
        "plant.oracle_s": by_name.get("plant.oracle", 0.0),
        "plant.bytes_computed": rec.counts["plant.bytes_computed"],
        "optimizer.self_s": by_layer.get("optimizer", 0.0),
        "optimizer.generations": calls["optimizer.step"],
        "optimizer.evals": rec.counts["optimizer.evals"],
        "optimizer.repeat_eval_frac": 0.0,
        "patterns.decode_calls": calls["patterns.decode"],
        "patterns.decode_s": by_name.get("patterns.decode", 0.0),
        "parametric.study_s": by_layer.get("parametric", 0.0),
        "parametric.cases": rec.counts["parametric.cases"],
        "analysis.mds_calls": calls["analysis.mds"],
        "analysis.mds_points": rec.counts["analysis.mds_points"],
        "analysis.mds_s": by_name.get("analysis.mds", 0.0),
        "analysis.envelope_s": by_name.get("analysis.envelope", 0.0),
        "cli.artifact_write_s": (by_name.get("cli.parametric", 0.0)
                                 + by_name.get("cli.optimize", 0.0)),
        "cli.analyze_s": by_name.get("cli.analyze", 0.0),
        "cli.bytes_written": 0,
        "cli.ledger_rows": 0,
        "protocol.requests": calls["protocol.fitness"],
        "protocol.errors": 0,
        "protocol.server_s": 0.0,
        "protocol.wire_s": 0.0,
        "protocol.bytes_sent": rec.counts["protocol.bytes_sent"],
        "protocol.bytes_received": rec.counts["protocol.bytes_received"],
        "trace.spans": len(spans),
        "trace.wall_s": root.end - root.start,
        "trace.unattributed_s": by_layer.get("bench", 0.0),
    }


def run_reps(workload, seconds: float, trace: bool) -> list:
    """Untraced repetitions until ``seconds`` have passed; with ``trace``,
    untraced then traced repetitions for half the time each.  Each phase
    runs at least one repetition."""
    from tracing import Recorder

    phases = [(False, seconds / 2), (True, seconds / 2)] if trace else [(False, seconds)]
    reps = []
    for traced, budget in phases:
        workload.prepare(traced)
        start = time.perf_counter()
        reps.append(workload.rep(Recorder(traced)))
        while time.perf_counter() - start < budget:
            reps.append(workload.rep(Recorder(traced)))
    return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "external", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    nproc, cpu = pin()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "rampopt" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a rampopt checkout; {SRC / 'rampopt'} or {spec_path} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    import numpy
    import rampopt
    from common import Context
    from tracing import check_spans

    if Path(rampopt.__file__).resolve().parent != SRC / "rampopt":
        print(f"error: imported rampopt from {rampopt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "campaign":
        from campaign import Campaign as Workload
    elif args.workload == "external":
        from external import External as Workload
    else:
        from sweep import Sweep as Workload

    WORK.mkdir(exist_ok=True)
    ctx = Context(work=WORK / args.workload, env=env)
    workload = Workload(args.seed, ctx)
    try:
        setup = workload.setup(SETUP_TRIALS)
        reps = run_reps(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
        shutil.rmtree(ctx.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    untraced = [r for r in reps if not r.rec.traced]
    traced = [r for r in reps if r.rec.traced]
    checks = [(f"rep {i}: {name}", ok, detail)
              for i, r in enumerate(reps) for name, ok, detail in r.checks]
    digests = {r.digest for r in reps}
    if len(reps) > 1:
        checks.append(("repeats give byte-identical outputs", len(digests) == 1,
                       f"{len(reps)} repetitions, {len(digests)} distinct digests"))
    final_checks, server_layer = workload.finish(traced)
    checks += final_checks

    if args.trace:
        overhead = (statistics.median(r.wall_s for r in traced)
                    - statistics.median(r.wall_s for r in untraced))
        for i, r in enumerate(traced):
            problems = check_spans(r.rec.spans, "bench", overhead)
            checks.append((f"traced rep {i}: span arithmetic", not problems, "; ".join(problems)))
        layers = [dict(span_layers(r.rec), **r.layer) for r in traced]
        values = {k: statistics.fmean(d[k] for d in layers) for k in layers[0]}
        values.update(server_layer)
        values["trace.overhead_s"] = overhead
        values["trace.untraced_wall_s"] = statistics.median(r.wall_s for r in untraced)
        measured = {k: (v, len(traced)) for k, v in values.items()}
        wanted = spec["per_layer"]
    else:
        measured = end_to_end(untraced, setup)
        wanted = spec["end_to_end"]

    ops = sum(r.ops for r in reps)
    failed_ops = sum(r.failed_ops for r in reps)
    failed_checks = sum(not ok for _, ok, _ in checks)
    attempted = ops + len(checks)
    failed = failed_ops + failed_checks

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} repetitions={len(reps)} "
          f"(untraced {len(untraced)}, traced {len(traced)})")
    print("# repetition wall_s: " + " ".join(
        f"{'T' if r.rec.traced else 'U'}{r.wall_s:.4f}" for r in reps))
    for name, ok, detail in checks:
        if not ok:
            print(f"FAILED check {name}: {detail}")
    metrics = {}
    for m in wanted:
        value, n = measured[m["name"]]
        if m["unit"] in ("count", "bytes") and float(value).is_integer():
            value = int(value)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<28} {value!r} {m['unit']} (n={n})")
    for name in sorted(set(measured) - {m["name"] for m in wanted}):
        value, n = measured[name]
        unit = "ms" if name.endswith("_ms") else "s"
        print(f"# {name:<26} {value!r} {unit} (n={n}, not gated)")
    print(f"{'error_rate':<28} {failed / attempted!r} (n={attempted}: {ops} operations, "
          f"{len(checks)} checks; {failed_ops} operations and {failed_checks} checks failed)")
    print(f"# env nproc={nproc} cpu_affinity={cpu} python={platform.python_version()} "
          f"numpy={numpy.__version__} "
          + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
