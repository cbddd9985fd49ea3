"""Command-line front end: evaluate, parametric, optimize, oracle, analyze.

Every run directory is self-describing: it holds a manifest, a config
snapshot whose digest the manifest records, and plain CSV artifacts that are
byte-reproducible for a fixed master seed.

Exit codes: 0 success, 2 input error, 3 contract refusal, 4 plant/protocol
error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import classical_mds, learning_envelope, snapshot_pod
from .optimizer import EvaluationError, SwarmConfig, run_campaign
from .parametric import run_study
from .patterns import (
    ActuationPattern,
    EncodingError,
    active_fraction,
    format_patterns,
    mean_height_ratio,
    parse_patterns,
    rescale_many,
)
from .plant import (
    ContractError,
    FlowConfig,
    SurrogatePlant,
    TapGrid,
    cost_ja,
    cost_ja_star,
    cp_profile,
    default_surrogate_config,
    load_surrogate_config,
    oracle_optimum,
)
from .protocol import ExternalPlant, ProtocolError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONTRACT = 3
EXIT_PLANT = 4

LEDGER_HEADER = ["run", "iteration", "particle", "pattern", "fitness", "label"]
# cmd_analyze parses ledger patterns this many rows at a time.
LEDGER_BLOCK_ROWS = 4096


@dataclass
class RunManifest:
    """Provenance record written once per output directory."""

    command: str
    argv: list[str]
    config_digest: str
    master_seed: int
    started_at: str
    finished_at: str
    tool_version: str
    outputs: list[str]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2) + "\n")


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fmt(x) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def _load_config(args):
    config = load_surrogate_config(args.config) if args.config else default_surrogate_config()
    if getattr(args, "noise", None) is not None:
        config = replace(config, noise_std=args.noise)
    return config


def _build_plant(args, config):
    kind = getattr(args, "plant", "surrogate")
    if kind == "surrogate":
        return SurrogatePlant(config)
    if kind.startswith("external:"):
        endpoint = kind.split(":", 1)[1]
        host, _, port = endpoint.rpartition(":")
        if not host or not port.isdigit():
            raise EncodingError(f"external plant endpoint must be host:port, got {endpoint!r}")
        return ExternalPlant(host, int(port))
    raise EncodingError(f"unknown plant {kind!r} (use 'surrogate' or 'external:<host:port>')")


def _read_pattern(args) -> ActuationPattern:
    if args.pattern_file:
        text = Path(args.pattern_file).read_text()
        return ActuationPattern.from_text(text)
    if args.pattern:
        return ActuationPattern.from_text(args.pattern)
    raise EncodingError("provide --pattern or --pattern-file")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    config = _load_config(args)
    pattern = _read_pattern(args)
    plant = _build_plant(args, config)
    try:
        measurement = plant.evaluate(pattern, args.seed)
        baseline = plant.baseline_ja()
    finally:
        if hasattr(plant, "close"):
            plant.close()
    taps = getattr(plant, "taps", TapGrid())
    flow = getattr(plant, "flow", FlowConfig())
    ja = cost_ja(measurement, taps)
    print(f"J_a   = {_fmt(ja)} Pa*m^2")
    print(f"J_a*  = {_fmt(cost_ja_star(ja, baseline))}")
    print(f"J_b*  = {_fmt(mean_height_ratio(pattern))}")
    print(f"J_c*  = {_fmt(active_fraction(pattern))}")
    cp = cp_profile(measurement, flow)
    coords = taps.coordinates(flow) / flow.step_height
    print("tap  x/H    z/H    Cp")
    for k in range(taps.n_taps):
        print(f"{k:3d}  {coords[k, 0]:<5g}  {coords[k, 1]:<5g}  {_fmt(cp[k])}")
    return EXIT_OK


def cmd_parametric(args) -> int:
    started = _timestamp()
    config = _load_config(args)
    if args.noise is None:
        # Exact per-case ranking needs noiseless measurements; override with --noise.
        config = replace(config, noise_std=0.0)
    plant = _build_plant(args, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_study(plant, seed=args.seed)

    config_path = out / "config.json"
    config_path.write_text(json.dumps({"surrogate": asdict(config)}, indent=2) + "\n")
    study_rows = [
        (case.case_id,
         f"{case.rows[0] + 1}-{case.rows[-1] + 1}" if len(case.rows) > 1 else str(case.rows[0] + 1),
         case.level, case.mode,
         result.ja_star[i], result.jb_star[i], result.jc_star[i],
         pattern.to_text())
        for i, (case, pattern) in enumerate(zip(result.cases, result.patterns))
    ]
    _write_csv(out / "study.csv",
               ["case_id", "rows", "level", "mode", "Ja_star", "Jb_star", "Jc_star", "pattern"],
               study_rows)
    _write_csv(out / "scatter.csv",
               ["case_id", "Jb_star", "Jc_star", "Ja_star"],
               [(case.case_id, result.jb_star[i], result.jc_star[i], result.ja_star[i])
                for i, case in enumerate(result.cases)])
    best = out / "best_cases.txt"
    best.write_text(
        f"best_passive_only {result.best_passive.case_id} {_fmt(result.ja_star[result.best_passive_index])}\n"
        f"best_passive_plus_active {result.best_active.case_id} {_fmt(result.ja_star[result.best_active_index])}\n"
    )
    outputs = ["config.json", "study.csv", "scatter.csv", "best_cases.txt"]
    RunManifest(
        command="parametric", argv=args.argv, config_digest=_digest(config_path),
        master_seed=args.seed, started_at=started, finished_at=_timestamp(),
        tool_version=__version__, outputs=outputs,
    ).write(out / "manifest.json")
    print(f"wrote {len(study_rows)} cases to {out / 'study.csv'}")
    print(f"best passive-only: {result.best_passive.case_id} "
          f"Ja*={result.ja_star[result.best_passive_index]:.4f}")
    print(f"best passive+active: {result.best_active.case_id} "
          f"Ja*={result.ja_star[result.best_active_index]:.4f}")
    print(f"fraction with Ja*>0: {result.positive_fraction():.3f}")
    return EXIT_OK


def _swarm_config(args) -> SwarmConfig:
    return SwarmConfig(
        population=args.particles,
        iterations=args.iterations,
        independent_runs=args.runs,
        seed=args.seed,
        algorithm=args.algorithm,
    )


def _write_campaign(out: Path, campaign, stride: int | None) -> list[str]:
    outputs = []
    for k, curve in enumerate(campaign.curves):
        name = f"run{k}_curve.csv"
        best_new = np.zeros(len(curve.best_so_far), dtype=int)
        best_new[0] = 1
        best_new[1:] = curve.best_so_far[1:] < curve.best_so_far[:-1]
        _write_csv(out / name, ["iteration", "best_fitness", "best_is_new"],
                   [(i + 1, curve.best_so_far[i], int(best_new[i]))
                    for i in range(len(curve.best_so_far))])
        outputs.append(name)
        pat = out / f"run{k}_best_pattern.txt"
        pat.write_text(
            f"pattern {curve.best_pattern.to_text()}\n"
            f"fitness {_fmt(curve.best_fitness)}\n"
            f"iteration {curve.best_iteration}\n"
        )
        outputs.append(pat.name)
    with (out / "ledger.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LEDGER_HEADER)
        for k, curve in enumerate(campaign.curves):
            led = curve.ledger
            # tolist() gives Python ints and floats, which csv writes as _fmt does.
            writer.writerows(zip(itertools.repeat(k), led.iteration.tolist(),
                                 led.particle.tolist(), format_patterns(led.heights, led.actives),
                                 led.fitness.tolist(), led.label.tolist()))
    outputs.append("ledger.csv")
    _write_csv(out / "envelope.csv", ["iteration", "env_min", "env_max"],
               [(i + 1, campaign.envelope_min[i], campaign.envelope_max[i])
                for i in range(len(campaign.envelope_min))])
    outputs.append("envelope.csv")

    led = campaign.curves[campaign.best_run_index].ledger
    n = len(led)
    if stride is None:
        stride = max(1, -(-n // 2000))  # cap the embedding at ~2000 points
    idx = np.arange(0, n, stride)
    points = rescale_many(led.heights[idx], led.actives[idx])
    emb = classical_mds(points, point_ids=idx)
    _write_csv(out / "embedding_best_run.csv",
               ["point_id", "gamma1", "gamma2", "fitness"],
               [(int(i), emb.coordinates[j, 0], emb.coordinates[j, 1], led.fitness[int(i)])
                for j, i in enumerate(idx)])
    outputs.append("embedding_best_run.csv")
    return outputs


def cmd_optimize(args) -> int:
    started = _timestamp()
    config = _load_config(args)
    plant = _build_plant(args, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    swarm_config = _swarm_config(args)
    try:
        campaign = run_campaign(swarm_config, plant)
    finally:
        if hasattr(plant, "close"):
            plant.close()

    config_path = out / "config.json"
    swarm_dict = asdict(swarm_config)
    swarm_dict["bounds"] = {"lower": list(swarm_config.bounds.lower),
                            "upper": list(swarm_config.bounds.upper)}
    config_path.write_text(json.dumps({"surrogate": asdict(config), "swarm": swarm_dict},
                                      indent=2) + "\n")
    outputs = ["config.json"] + _write_campaign(out, campaign, args.mds_stride)

    finals = [c.best_fitness for c in campaign.curves]
    print(f"runs: {len(finals)}  best final Ja*: {min(finals):.4f}  "
          f"worst final Ja*: {max(finals):.4f}  best run: {campaign.best_run_index}")
    if args.oracle:
        if config.coupling_enabled:
            raise ContractError("oracle gap report requires cross-column coupling disabled")
        _, opt = oracle_optimum(config)
        gaps = [(f - opt) / abs(opt) for f in finals]
        note = ("# recorded bests include measurement noise; gaps may be negative\n"
                if config.noise_std > 0 else "")
        report = out / "oracle.txt"
        report.write_text(
            note
            + f"oracle_ja_star {_fmt(opt)}\n"
            + "".join(f"run{k}_gap {_fmt(g)}\n" for k, g in enumerate(gaps))
        )
        outputs.append("oracle.txt")
        print(f"oracle Ja*: {opt:.4f}  gaps: {[f'{g:.3%}' for g in gaps]}")
    RunManifest(
        command="optimize", argv=args.argv, config_digest=_digest(config_path),
        master_seed=args.seed, started_at=started, finished_at=_timestamp(),
        tool_version=__version__, outputs=outputs,
    ).write(out / "manifest.json")
    return EXIT_OK


def cmd_oracle(args) -> int:
    config = _load_config(args)
    if config.coupling_enabled:
        print("oracle requires cross-column coupling disabled (set coupling_enabled false)",
              file=sys.stderr)
        return EXIT_CONTRACT
    pattern, value = oracle_optimum(config)
    print(f"oracle_ja_star = {_fmt(value)}")
    print(f"pattern = {pattern.to_text()}")
    grid = pattern.height_grid()
    jets = pattern.active_grid()
    for r in range(grid.shape[0]):
        row = " ".join(f"{grid[r, c]}{'*' if jets[r, c] else ' '}" for c in range(grid.shape[1]))
        print(f"row {r + 1}: {row}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "oracle.txt").write_text(
            f"oracle_ja_star {_fmt(value)}\npattern {pattern.to_text()}\n")
    return EXIT_OK


def _read_ledger(path: Path):
    """Run numbers, (n, 30) int8 heights and actives, and fitness of a ledger.csv.

    Every row is checked.  A wrong header, field count, run number or fitness
    raises EncodingError naming the line; a bad pattern raises the
    EncodingError of ``parse_patterns``.
    """
    runs, fitness, blocks, texts = [], [], [], []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != LEDGER_HEADER:
            raise EncodingError(f"{path} line 1: expected header {','.join(LEDGER_HEADER)}, "
                                f"got {header}")
        for row in reader:
            if len(row) != len(LEDGER_HEADER):
                raise EncodingError(f"{path} line {reader.line_num}: expected "
                                    f"{len(LEDGER_HEADER)} fields, got {len(row)}")
            try:
                runs.append(int(row[0]))
                fitness.append(float(row[4]))
            except ValueError:
                raise EncodingError(f"{path} line {reader.line_num}: run {row[0]!r} and fitness "
                                    f"{row[4]!r} must be numbers") from None
            texts.append(row[3])
            if len(texts) == LEDGER_BLOCK_ROWS:
                blocks.append(parse_patterns(texts))
                texts = []
    if not runs:
        raise EncodingError(f"{path} holds no evaluations")
    blocks.append(parse_patterns(texts))
    heights, actives = (np.concatenate(b) for b in zip(*blocks))
    return np.asarray(runs), heights, actives, np.asarray(fitness)


def cmd_analyze(args) -> int:
    run_dir = Path(args.run_dir)
    out = Path(args.out) if args.out else run_dir
    out.mkdir(parents=True, exist_ok=True)
    outputs = []

    ledger_path = run_dir / "ledger.csv"
    if ledger_path.exists():
        runs, heights, actives, fitness = _read_ledger(ledger_path)
        best_run = int(np.argmin([fitness[runs == r].min() for r in np.unique(runs)]))
        mask = np.flatnonzero(runs == best_run)
        stride = args.mds_stride or max(1, -(-len(mask) // 2000))
        idx = mask[::stride]
        emb = classical_mds(rescale_many(heights[idx], actives[idx]), point_ids=idx)
        _write_csv(out / "embedding.csv", ["point_id", "gamma1", "gamma2", "fitness"],
                   [(int(i), emb.coordinates[j, 0], emb.coordinates[j, 1], fitness[int(i)])
                    for j, i in enumerate(idx)])
        outputs.append("embedding.csv")

    curve_files = sorted(run_dir.glob("run*_curve.csv"))
    if curve_files:
        curves = []
        for f in curve_files:
            with f.open() as fh:
                curves.append(np.array([float(r["best_fitness"]) for r in csv.DictReader(fh)]))
        env = learning_envelope(curves)
        _write_csv(out / "envelope.csv", ["iteration", "env_min", "env_max"],
                   [(i + 1, env.lower[i], env.upper[i]) for i in range(len(env.lower))])
        (out / "best_run.txt").write_text(f"best_run {env.best_run_index}\n")
        outputs += ["envelope.csv", "best_run.txt"]

    if args.snapshots:
        snaps = np.loadtxt(args.snapshots, delimiter=",", ndmin=2)
        pod = snapshot_pod(snaps)
        np.savetxt(out / "pod_mean.txt", pod.mean_field[None, :], header="mean field")
        np.savetxt(out / "pod_modes.txt", pod.modes, header="orthonormal modes (columns)")
        np.savetxt(out / "pod_coeffs.txt", pod.coefficients, header="modal coefficients (rows = snapshots)")
        _write_csv(out / "pod_energy.csv", ["mode", "energy_fraction"],
                   [(m + 1, pod.energy_fractions[m]) for m in range(pod.n_modes)])
        outputs += ["pod_mean.txt", "pod_modes.txt", "pod_coeffs.txt", "pod_energy.csv"]

    if not outputs:
        print("nothing to analyze: no ledger.csv, run*_curve.csv, or --snapshots", file=sys.stderr)
        return EXIT_INPUT
    print(f"wrote {', '.join(outputs)} to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rampopt",
                                     description="Distributed ramp flow-control optimization testbed")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, plant=True):
        p.add_argument("--config", help="surrogate config JSON")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--noise", type=float, default=None, help="tap noise std dev override, Pa")
        if plant:
            p.add_argument("--plant", default="surrogate",
                           help="surrogate | external:<host:port>")

    p = sub.add_parser("evaluate", help="evaluate one pattern and report costs")
    common(p)
    p.add_argument("--pattern", help="60 comma-separated integers (30 heights, 30 jets)")
    p.add_argument("--pattern-file", help="file holding the pattern record")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("parametric", help="run the 120-case row-band study")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_parametric)

    p = sub.add_parser("optimize", help="run an optimization campaign")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--runs", type=int, default=5, help="independent runs")
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--particles", type=int, default=35)
    p.add_argument("--algorithm", choices=["pso-tpme", "standard-pso"], default="pso-tpme")
    p.add_argument("--oracle", action="store_true", help="report exact optimum gap (coupling off)")
    p.add_argument("--mds-stride", type=int, default=None, help="ledger subsampling stride for the proximity map")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("oracle", help="print the exact separable optimum")
    common(p, plant=False)
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("analyze", help="recompute proximity map / envelope / modal decomposition")
    p.add_argument("--run-dir", required=True, help="directory produced by optimize")
    p.add_argument("--out", help="output directory (default: run dir)")
    p.add_argument("--snapshots", help="CSV matrix of field snapshots for modal decomposition")
    p.add_argument("--mds-stride", type=int, default=None)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)  # recorded in manifests
    try:
        return args.func(args)
    except (EncodingError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ContractError as exc:
        print(f"contract refused: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except (ProtocolError, EvaluationError, OSError) as exc:
        print(f"plant error: {exc}", file=sys.stderr)
        return EXIT_PLANT


if __name__ == "__main__":
    sys.exit(main())
