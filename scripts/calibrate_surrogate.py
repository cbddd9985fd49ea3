#!/usr/bin/env python3
"""Fit the anchor-pinned surrogate coefficients and ship the default config.

The surrogate's structure (response tables, pair interactions, jet synergy
profile, column gains, station profiles) is a design choice; three
coefficients are pinned exactly by the reference recoveries:

    row 2 passive, max height            ->  36 % recovery
    rows 2+3 passive, max height         ->  43 % recovery
    rows 1+2 blowing, minimum height     ->  91 % recovery

This script solves for those coefficients with least squares, runs the full
verification battery (anchors, orderings, 120-case study, oracle band,
single-flip reachability of the optimum), and writes the versioned default
config into the package data directory.

Usage: python scripts/calibrate_surrogate.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rampopt.parametric import run_study
from rampopt.patterns import ActuationPattern
from rampopt.plant import (
    SurrogateConfig,
    SurrogatePlant,
    _column_score_table,
    _column_scores,
    cp_profile,
    default_surrogate_config,
    enumerate_column_states,
    oracle_optimum,
    save_surrogate_config,
)

ANCHORS = [
    # (rows (0-based), level, jets on, target Ja*)
    ((1,), 4, False, -0.36),
    ((1, 2), 4, False, -0.43),
    ((0, 1), 1, True, -0.91),
]


def solve_pinned_coefficients(design: SurrogateConfig) -> SurrogateConfig:
    """Solve T_passive[2][4], W[2][3], V[1][2] so the anchors hold exactly.

    The three anchor scores are affine in the three unknowns; build the
    linear system by evaluating each anchor with unknowns zeroed and with
    unit values, then least-squares solve (the system is square and
    well-conditioned, so the residual is zero to round-off).
    """

    def with_unknowns(tp24: float, w23: float, v12: float) -> SurrogateConfig:
        pt = [list(r) for r in design.passive_table]
        pp = [list(r) for r in design.passive_pair]
        jp = [list(r) for r in design.jet_pair]
        pt[1][4] = tp24
        pp[1][2] = w23
        jp[0][1] = v12
        return replace(design, passive_table=pt, passive_pair=pp, jet_pair=jp)

    def anchor_scores(cfg: SurrogateConfig) -> np.ndarray:
        vals = []
        for rows, level, jets, _ in ANCHORS:
            pattern = ActuationPattern.from_rows(rows, level, active=jets)
            h = pattern.height_grid().T
            a = pattern.active_grid().T
            vals.append(_column_scores(cfg, h, a)[0])  # spanwise-uniform: Ja* = -u
        return np.asarray(vals)

    base = anchor_scores(with_unknowns(0.0, 0.0, 0.0))
    columns = []
    for unit in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        columns.append(anchor_scores(with_unknowns(*unit)) - base)
    a_mat = np.column_stack(columns)
    b_vec = np.array([-t for _, _, _, t in ANCHORS]) - base
    solution, residual, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    # The anchors are exact decimals, so the solution is too; strip solver dust.
    solution = np.round(solution, 12)
    print(f"pinned coefficients: T_p[2][4]={solution[0]:.6g} "
          f"W[2][3]={solution[1]:.6g} V[1][2]={solution[2]:.6g}")
    return with_unknowns(*solution)


def verify(config: SurrogateConfig, quick: bool) -> list[str]:
    failures = []

    def check(name: str, ok: bool, detail: str = ""):
        print(f"  [{'ok' if ok else 'FAIL'}] {name} {detail}")
        if not ok:
            failures.append(name)

    clean = replace(config, noise_std=0.0)
    plant = SurrogatePlant(clean)
    fit = lambda p: plant.fitness(None, p, 0)

    check("all-off is exactly baseline", fit(ActuationPattern.all_off()) == 0.0)
    for rows, level, jets, target in ANCHORS:
        got = fit(ActuationPattern.from_rows(rows, level, active=jets))
        check(f"anchor rows={tuple(r + 1 for r in rows)} level={level} jets={jets}",
              abs(got - target) < 1e-9, f"got {got:+.6f} target {target:+.2f}")

    trend = [fit(ActuationPattern.from_rows((0,), l)) for l in (1, 2, 3, 4)]
    check("row-1 passive worsens strictly with height",
          all(b > a for a, b in zip(trend, trend[1:])), f"{[f'{v:+.3f}' for v in trend]}")

    rows45 = np.zeros((25, 5), dtype=np.int64)
    rows45[:, 3] = np.repeat(np.arange(5), 5)
    rows45[:, 4] = np.tile(np.arange(5), 5)
    u45 = _column_scores(clean, rows45, np.zeros_like(rows45))
    check("rows 4-5 passive stay below 0.05", np.abs(u45).max() < 0.05,
          f"max |Ja*| = {np.abs(u45).max():.4f}")

    study = run_study(plant)
    check("study best passive-only is rows 2-3 level 4",
          study.best_passive.rows == (1, 2) and study.best_passive.level == 4)
    check("study best passive+active is rows 1-2 level 1",
          study.best_active.rows == (0, 1) and study.best_active.level == 1)
    frac = study.positive_fraction()
    check("study positive fraction in 40-60 %", 0.40 <= frac <= 0.60, f"{frac:.3f}")

    m = plant.evaluate(ActuationPattern.all_off(), 0)
    cp0 = cp_profile(m, plant.flow).reshape(6, 7)
    check("baseline Cp at last station near 0.2", abs(cp0[5, 3] - 0.2) < 0.05, f"{cp0[5, 3]:.3f}")
    m = plant.evaluate(ActuationPattern.from_rows((0, 1), 1, active=True), 0)
    cp1 = cp_profile(m, plant.flow).reshape(6, 7)
    check("best-case Cp at last station mid-span near 0.65",
          abs(cp1[5, 3] - 0.65) < 0.05, f"{cp1[5, 3]:.3f}")

    pattern, opt = oracle_optimum(clean)
    check("oracle optimum inside the reported band", -1.477 <= opt <= -1.213, f"{opt:.4f}")

    if not quick:
        frac_ok, worst = single_flip_reachability(clean)
        check("every column state climbs within 5 % of the optimum",
              frac_ok == 1.0, f"worst terminal gap {worst:.3%}")
    return failures


def single_flip_reachability(config: SurrogateConfig) -> tuple[float, float]:
    """Greedy single-flip ascent from all 100,000 column states.

    Returns (fraction of states whose ascent terminates within 5 % of the
    per-column optimum, worst terminal gap).  This is the property that lets
    the position-mutated elitism stage finish the job from any basin.
    """
    hh, aa = enumerate_column_states()
    u = _column_score_table(config)
    umax = u.max()
    ids = {}
    for i in range(len(u)):
        key = (tuple(hh[i]), tuple(aa[i]))
        ids[key] = i

    def best_neighbor(i: int) -> int:
        h, a = hh[i], aa[i]
        bi, bu = -1, u[i]
        for r in range(5):
            for dh in (-1, 1):
                if 0 <= h[r] + dh <= 4:
                    h2 = h.copy()
                    h2[r] += dh
                    j = ids[(tuple(h2), tuple(a))]
                    if u[j] > bu + 1e-12:
                        bi, bu = j, u[j]
            a2 = a.copy()
            a2[r] ^= 1
            j = ids[(tuple(h), tuple(a2))]
            if u[j] > bu + 1e-12:
                bi, bu = j, u[j]
        return bi

    terminal = {}

    def ascend(i: int) -> float:
        path = []
        while i not in terminal:
            path.append(i)
            j = best_neighbor(i)
            if j < 0:
                terminal[i] = u[i]
                break
            i = j
        value = terminal[path[-1]] if path and path[-1] in terminal else terminal[i]
        for p in path:
            terminal[p] = value
        return value

    values = np.array([ascend(i) for i in range(len(u))])
    gaps = (umax - values) / umax
    return float(np.mean(gaps <= 0.05)), float(gaps.max())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="skip the reachability sweep")
    parser.add_argument("--out", default=None, help="output path for the config JSON")
    args = parser.parse_args()

    design = default_surrogate_config()
    fitted = solve_pinned_coefficients(design)
    if asdict(fitted) != asdict(design):
        print("warning: fitted coefficients differ from the shipped design")

    print("verification battery:")
    failures = verify(fitted, quick=args.quick)

    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "src" / "rampopt" / "data" / "default_surrogate.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_surrogate_config(fitted, out)
    print(f"wrote {out}")
    if failures:
        print(f"FAILED checks: {failures}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
