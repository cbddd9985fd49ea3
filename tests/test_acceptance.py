"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report including elapsed times.  The optimization benchmark (criterion 3)
runs two full-scale campaigns and dominates the wall time.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from rampopt.analysis import classical_mds, snapshot_pod
from rampopt.cli import main
from rampopt.optimizer import ParticleClass, SwarmConfig, run, run_campaign
from rampopt.patterns import ActuationPattern
from rampopt.plant import (
    SurrogatePlant,
    default_surrogate_config,
    oracle_optimum,
    ramp_profile,
    FlowConfig,
)
from rampopt.protocol import (
    ConcurrentEvaluationError,
    DimensionMismatchError,
    ExternalPlant,
    PlantServer,
    PlantTimeoutError,
    surrogate_responder,
)

from plants import ConstantPlant, SpherePlant
from test_analysis import planted_configuration, procrustes_residual


def report(criterion: int, detail: str, t0: float) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({time.perf_counter() - t0:.2f}s) {detail}")


def test_criterion_1_calibration_anchors(clean_plant):
    t0 = time.perf_counter()
    fit = lambda p: clean_plant.fitness(None, p, 0)
    assert fit(ActuationPattern.all_off()) == 0.0
    anchors = [
        ((1,), 4, False, -0.36),
        ((1, 2), 4, False, -0.43),
        ((0, 1), 1, True, -0.91),
    ]
    values = []
    for rows, level, jets, target in anchors:
        got = fit(ActuationPattern.from_rows(rows, level, active=jets))
        assert abs(got - target) <= 0.02
        values.append(got)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"all-off exact, anchors {[f'{v:+.3f}' for v in values]}", t0)


def test_criterion_2_parametric_reproduction(tmp_path, capsys):
    t0 = time.perf_counter()
    out = tmp_path / "study"
    assert main(["parametric", "--out", str(out), "--seed", "0"]) == 0
    rows = (out / "study.csv").read_text().strip().splitlines()
    header, data = rows[0], rows[1:]
    assert len(data) == 120
    markers = (out / "best_cases.txt").read_text()
    assert "best_passive_only r2-3_l4p" in markers
    assert "best_passive_plus_active r1-2_l1a" in markers
    ja_col = header.split(",").index("Ja_star")
    ja = np.array([float(r.split(",")[ja_col]) for r in data])
    positive = float(np.mean(ja > 0))
    assert 0.40 <= positive <= 0.60
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    with capsys.disabled():
        report(2, f"120 cases, bests match, positive fraction {positive:.3f}", t0)


def test_criterion_3_optimization_benchmark():
    t0 = time.perf_counter()
    config = SwarmConfig(population=35, iterations=1000, independent_runs=5, seed=0)

    # (a), (b): reference-settings campaign on the calibrated (noisy) surrogate
    campaign = run_campaign(config, SurrogatePlant())
    at_50 = sorted(c.best_so_far[49] for c in campaign.curves)
    median_at_50 = at_50[2]
    assert median_at_50 < -0.91, f"median best at iteration 50 was {median_at_50}"
    finals = [c.best_fitness for c in campaign.curves]
    assert all(-1.477 - 0.05 <= f <= -1.213 + 0.05 for f in finals), finals

    # (c): separable noiseless configuration against the exact oracle
    clean = replace(default_surrogate_config(), noise_std=0.0)
    _, optimum = oracle_optimum(clean)
    clean_campaign = run_campaign(config, SurrogatePlant(clean))
    gaps = [(c.best_fitness - optimum) / abs(optimum) for c in clean_campaign.curves]
    assert all(g >= -1e-12 for g in gaps)  # no run can beat the exhaustive oracle
    assert sum(g <= 0.05 for g in gaps) >= 4, gaps
    report(3, f"median@50 {median_at_50:+.3f}, finals [{min(finals):+.3f}, {max(finals):+.3f}], "
              f"gaps {[f'{g:.2%}' for g in gaps]}", t0)


def test_criterion_4_oracle_soundness(clean_config, clean_plant):
    t0 = time.perf_counter()
    _, optimum = oracle_optimum(clean_config)
    rng = np.random.default_rng(2024)
    best = np.inf
    chunk = 100_000
    for _ in range(10):  # 10^6 random patterns in chunks
        heights = rng.integers(0, 5, size=(chunk, 30))
        actives = rng.integers(0, 2, size=(chunk, 30))
        values = clean_plant.fitness_batch(None, heights, actives,
                                           np.zeros(chunk, dtype=np.int64))
        best = min(best, float(values.min()))
    assert optimum <= best
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(4, f"oracle {optimum:+.6f} <= random minimum {best:+.6f} over 1e6 samples", t0)


def test_criterion_5_optimizer_invariants(clean_config):
    t0 = time.perf_counter()
    plants = [SpherePlant(), ConstantPlant(1.0), SurrogatePlant()]
    violations = 0
    campaigns = 0
    for i in range(100):
        plant = plants[i % 3]
        config = SwarmConfig(population=10, iterations=50, seed=1000 + i,
                             independent_runs=1)
        first = run(plant, config, 1000 + i)
        second = run(plant, config, 1000 + i)
        campaigns += 1
        # bit-reproducibility under a fixed seed
        if not (np.array_equal(first.best_so_far, second.best_so_far)
                and np.array_equal(first.ledger.fitness, second.ledger.fitness)):
            violations += 1
        # gbest monotone non-increasing
        if np.any(np.diff(first.best_so_far) > 0):
            violations += 1
        led = first.ledger
        # all evaluated patterns legal (constructor validates)
        try:
            for k in range(len(led)):
                led.pattern(k)
        except Exception:
            violations += 1
        # classification partition rules per iteration
        for it in range(1, 51):
            sel = led.iteration == it
            fits = led.fitness[sel]
            labs = led.label[sel]
            if labs[np.argmin(fits)] == ParticleClass.BAD:
                violations += 1
            if labs[np.argmax(fits)] == ParticleClass.GOOD:
                violations += 1
    assert violations == 0
    assert campaigns == 100
    report(5, "100 mini-campaigns, zero invariant violations", t0)


def test_criterion_6_standard_pso_comparison():
    t0 = time.perf_counter()
    plant = SurrogatePlant()
    budget = dict(population=35, iterations=150, independent_runs=1)
    tpme, std = [], []
    for seed in range(5):
        tpme.append(run_campaign(SwarmConfig(seed=seed, **budget), plant)
                    .curves[0].best_fitness)
        std.append(run_campaign(SwarmConfig(seed=seed, algorithm="standard-pso", **budget), plant)
                   .curves[0].best_fitness)
    assert np.median(tpme) <= np.median(std), (tpme, std)
    pairwise = sum(s >= t for t, s in zip(tpme, std))
    report(6, f"median {np.median(tpme):+.3f} (elitism) vs {np.median(std):+.3f} (standard), "
              f"{pairwise}/5 pairs ordered", t0)


def test_criterion_7_pod_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    cases = []
    for i in range(20):
        m = int(rng.integers(3, 51))
        n = int(rng.integers(m, 200))
        base = rng.normal(size=(m, n))
        if i % 4 == 0:  # low-rank structured ensembles too
            rank = int(rng.integers(1, min(m, 5)))
            base = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
            base += rng.normal(size=n)[None, :]
        cases.append(base)
    for snaps in cases:
        pod = snapshot_pod(snaps)
        k = pod.n_modes
        assert k > 0
        assert np.abs(pod.modes.T @ pod.modes - np.eye(k)).max() < 1e-10
        assert abs(pod.energy_fractions.sum() - 1.0) <= 1e-12
        scale = np.abs(snaps).max()
        assert np.abs(pod.reconstruct() - snaps).max() / scale < 1e-10
        cov = pod.coefficients.T @ pod.coefficients
        off = np.abs(cov - np.diag(np.diag(cov))).max()
        assert off <= 1e-10 * max(1.0, np.abs(cov).max())
        fluct = snaps - snaps.mean(axis=0)
        _, svals, _ = np.linalg.svd(fluct, full_matrices=False)
        oracle = (svals**2 / (svals**2).sum())[:k]
        assert np.abs(pod.energy_fractions - oracle).max() < 1e-10
    report(7, "20 snapshot ensembles match the factorization oracle", t0)


def test_criterion_8_mds_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(5):
        flat, high = planted_configuration(rng, int(rng.integers(10, 60)))
        emb = classical_mds(high)
        worst = max(worst, procrustes_residual(flat, emb.coordinates))
    assert worst < 1e-8

    identical = classical_mds(np.ones((6, 60)))
    assert np.abs(identical.coordinates).max() <= 1e-10

    side = 1.75
    tri = np.zeros((3, 60))
    tri[1, 0] = side
    tri[2, 0] = side / 2
    tri[2, 1] = side * np.sqrt(3) / 2
    emb = classical_mds(tri)
    for i in range(3):
        for j in range(i + 1, 3):
            d = np.linalg.norm(emb.coordinates[i] - emb.coordinates[j])
            assert abs(d - side) <= 1e-10
    report(8, f"planted-plane residual {worst:.2e}, exact degenerate cases", t0)


def test_criterion_9_ramp_geometry():
    t0 = time.perf_counter()
    flow = FlowConfig()
    h, a = flow.step_height, flow.shape_factor
    assert abs(ramp_profile(0.0, flow) - h) <= 1e-12
    assert abs(ramp_profile(2 * h / a, flow)) <= 1e-12
    assert abs(ramp_profile(h / a, flow) - h / 2) <= 1e-12
    report(9, "ramp endpoint and midpoint identities exact", t0)


def test_criterion_10_external_plant_protocol(clean_plant):
    t0 = time.perf_counter()
    # loopback round-trip
    with PlantServer(surrogate_responder(clean_plant)) as server:
        with ExternalPlant(server.host, server.port, timeout=5.0) as client:
            assert client.fitness(None, ActuationPattern.all_off()) == 0.0
            p = ActuationPattern.from_rows((0, 1), 1, active=True)
            remote = client.fitness(None, p)
            assert remote == pytest.approx(clean_plant.fitness(None, p, 0), rel=1e-9)

    # dimension-mismatch rejection
    short_line = "MEAS " + " ".join(["0.0"] * 41) + " 0.0"
    with PlantServer(lambda pattern: short_line) as server:
        with ExternalPlant(server.host, server.port, timeout=5.0) as client:
            with pytest.raises(DimensionMismatchError):
                client.evaluate(ActuationPattern.all_off())

    # timeout handling
    import threading

    baseline_line = None
    m = clean_plant.evaluate(ActuationPattern.all_off(), 0)
    from rampopt.protocol import encode_measurement

    baseline_line = encode_measurement(m).rstrip("\n")

    def slow(pattern):
        time.sleep(0.8)
        return baseline_line

    with PlantServer(slow) as server:
        with ExternalPlant(server.host, server.port, timeout=0.15) as client:
            with pytest.raises(PlantTimeoutError):
                client.evaluate(ActuationPattern.all_off())

    # one-in-flight serialization
    release = threading.Event()

    def stalled(pattern):
        release.wait(5.0)
        return baseline_line

    with PlantServer(stalled) as server:
        with ExternalPlant(server.host, server.port, timeout=10.0) as client:
            worker = threading.Thread(
                target=lambda: client.evaluate(ActuationPattern.all_off()))
            worker.start()
            time.sleep(0.1)
            with pytest.raises(ConcurrentEvaluationError):
                client.evaluate(ActuationPattern.all_off())
            release.set()
            worker.join()
    report(10, "round-trip, mismatch, timeout, and serialization verified", t0)
