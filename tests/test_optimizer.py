from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rampopt.optimizer import (
    EvaluationError,
    ParticleClass,
    Swarm,
    SwarmConfig,
    clamp_velocity,
    classify,
    inertia_weight,
    move_and_clamp,
    mutate_elitism,
    mutation_scale,
    run,
    run_campaign,
    step,
    velocity_rule,
)
from rampopt.patterns import DEFAULT_BOUNDS, N_DIMENSIONS
from rampopt.plant import SurrogatePlant

from plants import ConstantPlant, SpherePlant


def small_config(**kw):
    defaults = dict(population=8, iterations=12, seed=0, independent_runs=2)
    defaults.update(kw)
    return SwarmConfig(**defaults)


class TestClassify:
    def test_all_equal_is_all_fair(self):
        labels = classify(np.full(10, 3.3), 0.5)
        assert np.all(labels == ParticleClass.FAIR)

    def test_threshold_example(self):
        labels = classify(np.array([0.0, 5.0, 10.0]), 0.5)
        assert labels.tolist() == [ParticleClass.GOOD, ParticleClass.FAIR, ParticleClass.BAD]

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=40),
        st.floats(0.01, 0.99),
    )
    def test_partition_rules(self, values, spread):
        f = np.asarray(values)
        labels = classify(f, spread)
        assert labels.shape == f.shape  # every particle gets exactly one label
        assert labels[np.argmin(f)] != ParticleClass.BAD
        assert labels[np.argmax(f)] != ParticleClass.GOOD

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            classify(np.array([1.0, 2.0]), 0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            classify(np.array([1.0, np.inf, 0.0]), 0.5)


def update(label, x, v, pbest, gbest, config, r1=None, r2=None):
    """Move one particle through the kernels that ``step`` runs on the whole swarm."""
    rng = np.random.default_rng(0)
    r1 = rng.random(N_DIMENSIONS) if r1 is None else r1
    r2 = rng.random(N_DIMENSIONS) if r2 is None else r2
    v = velocity_rule(np.array([label]), x[None, :], v[None, :], pbest[None, :], gbest,
                      inertia_weight(config, 1), config.cognitive, config.social,
                      r1[None, :], r2[None, :])
    v = clamp_velocity(v, config.bounds, config.velocity_limit)
    x, v = move_and_clamp(x[None, :], v, config.bounds)
    return x[0], v[0]


class TestUpdateParticle:
    @pytest.mark.parametrize("label", list(ParticleClass))
    def test_stationary_fixed_point(self, label):
        config = small_config()
        x = np.full(N_DIMENSIONS, 1.0)
        pos, vel = update(label, x.copy(), np.zeros(N_DIMENSIONS), x.copy(), x.copy(), config)
        assert np.array_equal(pos, x)
        assert np.array_equal(vel, np.zeros(N_DIMENSIONS))

    def test_good_particle_moves_toward_pbest(self):
        config = small_config(inertia_start=0.0, inertia_end=0.0)
        x = np.full(N_DIMENSIONS, 1.0)
        pbest = np.full(N_DIMENSIONS, 0.2)
        ones = np.ones(N_DIMENSIONS)
        pos, _ = update(ParticleClass.GOOD, x, np.zeros(N_DIMENSIONS), pbest,
                        np.full(N_DIMENSIONS, 4.0), config, r1=ones, r2=ones)
        # w=0, r1=1: step is c1*(pbest - x), capped by the velocity limit.
        expected_step = np.maximum(
            config.cognitive * (pbest - x),
            -config.velocity_limit * config.bounds.range,
        )
        assert pos == pytest.approx(x + expected_step)
        # gbest plays no role for good particles
        pos2, _ = update(ParticleClass.GOOD, x, np.zeros(N_DIMENSIONS), pbest,
                         np.full(N_DIMENSIONS, -4.0), config, r1=ones, r2=ones)
        assert np.array_equal(pos, pos2)

    def test_bad_particle_ignores_pbest_and_doubles_social(self):
        config = small_config(inertia_start=0.0, inertia_end=0.0, velocity_limit=10.0)
        x = np.zeros(N_DIMENSIONS)
        gbest = np.full(N_DIMENSIONS, 1.0)
        ones = np.ones(N_DIMENSIONS)
        pos, _ = update(ParticleClass.BAD, x, np.zeros(N_DIMENSIONS),
                        np.full(N_DIMENSIONS, -0.4), gbest, config, r1=ones, r2=ones)
        expected = np.clip(
            2.0 * config.social * (gbest - x),
            DEFAULT_BOUNDS.lower,
            DEFAULT_BOUNDS.upper,
        )
        assert pos == pytest.approx(expected)

    def test_clamped_coordinate_zeroes_velocity(self):
        config = small_config(inertia_start=1.0, inertia_end=1.0, velocity_limit=10.0)
        x = np.zeros(N_DIMENSIONS)
        v = np.zeros(N_DIMENSIONS)
        v[0] = 100.0
        pos, vel = update(ParticleClass.FAIR, x, v, x.copy(), x.copy(), config)
        assert pos[0] == config.bounds.upper[0]
        assert vel[0] == 0.0


def swarm_block(rows=5, seed=0):
    rng = np.random.default_rng(seed)
    lo, hi = DEFAULT_BOUNDS.lower, DEFAULT_BOUNDS.upper
    return lo + rng.random((rows, N_DIMENSIONS)) * (hi - lo), rng.normal(size=(rows, N_DIMENSIONS))


class TestMutateElitism:
    def test_zero_scale_relocates_exactly_onto_gbest(self):
        positions, velocities = swarm_block()
        overdue = np.array([False, True, False, True, False])
        gbest = np.full(N_DIMENSIONS, 1.25)
        mutate_elitism(positions, velocities, overdue, gbest, np.zeros(N_DIMENSIONS),
                       DEFAULT_BOUNDS, np.random.default_rng(0))
        assert np.array_equal(positions[overdue], np.stack([gbest, gbest]))
        assert np.all(velocities[overdue] == 0.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_relocation_stays_in_bounds(self, seed):
        positions, velocities = swarm_block()
        sigma = np.full(N_DIMENSIONS, 5.0)
        mutate_elitism(positions, velocities, np.ones(5, dtype=bool), DEFAULT_BOUNDS.upper.copy(),
                       sigma, DEFAULT_BOUNDS, np.random.default_rng(seed))
        assert np.all(positions >= DEFAULT_BOUNDS.lower)
        assert np.all(positions <= DEFAULT_BOUNDS.upper)

    def test_reproducible_for_fixed_seed(self):
        overdue = np.array([True, False, True, True, False])
        sigma = np.full(N_DIMENSIONS, 0.3)
        a, va = swarm_block()
        b, vb = swarm_block()
        mutate_elitism(a, va, overdue, np.zeros(N_DIMENSIONS), sigma, DEFAULT_BOUNDS,
                       np.random.default_rng(9))
        mutate_elitism(b, vb, overdue, np.zeros(N_DIMENSIONS), sigma, DEFAULT_BOUNDS,
                       np.random.default_rng(9))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("overdue", [[False] * 5, [True, False, False, True, False]],
                             ids=["none_overdue", "some_overdue"])
    def test_rows_not_overdue_are_unchanged(self, overdue):
        overdue = np.array(overdue)
        positions, velocities = swarm_block()
        before_x, before_v = positions.copy(), velocities.copy()
        rng = np.random.default_rng(4)
        mutate_elitism(positions, velocities, overdue, np.zeros(N_DIMENSIONS),
                       np.full(N_DIMENSIONS, 0.3), DEFAULT_BOUNDS, rng)
        kept = ~overdue
        assert positions[kept].tobytes() == before_x[kept].tobytes()
        assert velocities[kept].tobytes() == before_v[kept].tobytes()
        if not overdue.any():  # nothing to relocate draws nothing
            assert rng.bit_generator.state == np.random.default_rng(4).bit_generator.state

    @given(st.integers(0, 2**32 - 1), st.lists(st.booleans(), min_size=5, max_size=5))
    @settings(max_examples=50)
    def test_block_draw_equals_sequential_draws(self, seed, mask):
        overdue = np.array(mask)
        center = np.full(N_DIMENSIONS, 2.0)
        sigma = mutation_scale(small_config(), 1)
        positions, velocities = swarm_block(seed=1)
        block_rng = np.random.default_rng(seed)
        mutate_elitism(positions, velocities, overdue, center, sigma, DEFAULT_BOUNDS, block_rng)
        expected, _ = swarm_block(seed=1)
        seq_rng = np.random.default_rng(seed)
        for i in np.flatnonzero(overdue):
            expected[i] = np.clip(center + seq_rng.standard_normal(N_DIMENSIONS) * sigma,
                                  DEFAULT_BOUNDS.lower, DEFAULT_BOUNDS.upper)
        assert positions.tobytes() == expected.tobytes()
        assert block_rng.bit_generator.state == seq_rng.bit_generator.state


class TestSchedules:
    def test_inertia_endpoints(self):
        config = small_config(iterations=100, inertia_start=0.9, inertia_end=0.4)
        assert inertia_weight(config, 1) == pytest.approx(0.9)
        assert inertia_weight(config, 100) == pytest.approx(0.4)

    def test_mutation_scale_non_increasing(self):
        config = small_config(iterations=50)
        scales = [mutation_scale(config, t).max() for t in range(1, 51)]
        assert all(b <= a + 1e-15 for a, b in zip(scales, scales[1:]))

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            small_config(mutation_scale_start=0.1, mutation_scale_end=0.2)
        with pytest.raises(ValueError):
            small_config(class_spread=1.0)
        with pytest.raises(ValueError):
            small_config(population=2)
        with pytest.raises(ValueError):
            small_config(patience=0)


class TestStep:
    def test_constant_plant_leaves_gbest_unchanged(self):
        config = small_config()
        rng = np.random.default_rng(1)
        swarm = Swarm(config, rng)
        plant = ConstantPlant(2.5)
        step(swarm, plant, config, 1)
        first = swarm.gbest_fitness
        for t in range(2, 8):
            step(swarm, plant, config, t)
        assert swarm.gbest_fitness == first == 2.5

    def test_gbest_tracks_minimum_of_everything_observed(self):
        config = small_config(iterations=20)
        rng = np.random.default_rng(2)
        swarm = Swarm(config, rng)
        plant = SurrogatePlant()
        observed = []
        for t in range(1, 21):
            fitness, _, _, _ = step(swarm, plant, config, t)
            observed.extend(fitness.tolist())
            assert swarm.gbest_fitness == pytest.approx(min(observed))

    def test_personal_bests_track_per_particle_minima(self):
        # Elitism relocations rewrite position/velocity but never the pbest.
        config = small_config(iterations=15)
        swarm = Swarm(config, np.random.default_rng(3))
        plant = SurrogatePlant()
        seen = np.full(config.population, np.inf)
        for t in range(1, 16):
            fitness, _, _, _ = step(swarm, plant, config, t)
            seen = np.minimum(seen, fitness)
            assert np.array_equal(swarm.pbest_fitness, seen)

    @pytest.mark.parametrize("patience", [1, 2])
    def test_relocated_particles_restart_their_bad_streak(self, patience):
        config = small_config(patience=patience)
        swarm = Swarm(config, np.random.default_rng(3))
        plant = SurrogatePlant()
        relocated = 0
        for t in range(1, 13):
            before = swarm.bad_streaks.copy()
            _, _, _, labels = step(swarm, plant, config, t)
            overdue = (labels == ParticleClass.BAD) & (before + 1 >= patience)
            relocated += int(overdue.sum())
            assert np.all(swarm.bad_streaks[overdue] == 0)
            assert np.all(swarm.bad_streaks < patience)
        assert relocated > 0

    def test_constant_plant_makes_tpme_equal_standard(self):
        # All-fair classification and no mutations: the two engines coincide.
        config = small_config(seed=5)
        plant = ConstantPlant(1.0)
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        tpme = Swarm(config, rng_a)
        std = Swarm(config, rng_b)
        for t in range(1, 6):
            step(tpme, plant, config, t)
            step(std, plant, replace(config, algorithm="standard-pso"), t)
        assert np.array_equal(tpme.positions, std.positions)
        assert np.array_equal(tpme.velocities, std.velocities)

    def test_evaluation_errors_carry_iteration(self):
        class Broken:
            def fitness(self, position, pattern, seed):
                raise RuntimeError("boom")

        config = small_config()
        swarm = Swarm(config, np.random.default_rng(0))
        with pytest.raises(EvaluationError, match="iteration 1"):
            step(swarm, Broken(), config, 1)

    def test_sphere_convergence(self):
        # 35 particles reach < 1e-3 on the 60-d quadratic within 1000 iterations.
        config = SwarmConfig(population=35, iterations=1000, seed=0,
                             mutation_scale_end=0.001)
        curve = run(SpherePlant(), config, 0)
        assert curve.best_fitness < 1e-3

    def test_sphere_convergence_standard(self):
        config = SwarmConfig(population=35, iterations=1000, seed=0,
                             algorithm="standard-pso")
        curve = run(SpherePlant(), config, 0)
        assert curve.best_fitness < 1e-3


class TestRun:
    def test_monotone_best_so_far_and_ledger_shape(self):
        config = small_config(iterations=15)
        curve = run(SurrogatePlant(), config, 7)
        assert np.all(np.diff(curve.best_so_far) <= 0)
        assert len(curve.ledger) == config.population * config.iterations
        assert curve.best_fitness == curve.best_so_far[-1]

    def test_every_ledger_pattern_is_legal(self):
        config = small_config(iterations=10)
        curve = run(SurrogatePlant(), config, 3)
        for i in range(len(curve.ledger)):
            curve.ledger.pattern(i)  # constructor validates levels and flags

    def test_best_pattern_matches_best_fitness(self, clean_plant):
        config = small_config(iterations=25, population=12)
        curve = run(clean_plant, config, 1)
        refit = clean_plant.fitness(None, curve.best_pattern, 0)
        assert refit == pytest.approx(curve.best_fitness, abs=1e-12)

    def test_memoization_changes_nothing_for_noiseless_plants(self, clean_plant):
        # A full default-length run: any batch-dependent bit in a cached value
        # would steer the memoised trajectory away from the plain one.
        a = run(clean_plant, SwarmConfig(seed=0), 0)
        b = run(clean_plant, SwarmConfig(seed=0, memoize=True), 0)
        assert a.ledger.fitness.tobytes() == b.ledger.fitness.tobytes()
        assert np.array_equal(a.ledger.heights, b.ledger.heights)
        assert np.array_equal(a.best_so_far, b.best_so_far)

    @pytest.mark.parametrize("plant_name", ["clean_plant", "noisy_plant"])
    def test_serial_path_matches_batch_path(self, request, plant_name):
        # A plant without fitness_batch is evaluated one pattern at a time.
        plant = request.getfixturevalue(plant_name)

        class Serial:
            def fitness(self, position, pattern, seed):
                return plant.fitness(position, pattern, seed)

        config = small_config(population=35, iterations=60)
        batch = run(plant, config, 5)
        serial = run(Serial(), config, 5)
        assert serial.ledger.fitness.tobytes() == batch.ledger.fitness.tobytes()
        assert np.array_equal(serial.ledger.heights, batch.ledger.heights)
        assert np.array_equal(serial.ledger.actives, batch.ledger.actives)


class TestCampaign:
    def test_fixed_seed_reproducibility(self):
        config = small_config(iterations=10)
        plant = SurrogatePlant()
        a = run_campaign(config, plant)
        b = run_campaign(config, plant)
        for ca, cb in zip(a.curves, b.curves):
            assert np.array_equal(ca.best_so_far, cb.best_so_far)
            assert np.array_equal(ca.ledger.fitness, cb.ledger.fitness)
        assert a.best_run_index == b.best_run_index

    def test_envelope_bounds_every_curve(self):
        config = small_config(iterations=12, independent_runs=3)
        result = run_campaign(config, SurrogatePlant())
        for curve in result.curves:
            assert np.all(result.envelope_min <= curve.best_so_far + 1e-15)
            assert np.all(curve.best_so_far <= result.envelope_max + 1e-15)

    def test_identical_run_seeds_collapse_the_envelope(self):
        config = small_config(iterations=10)
        plant = SurrogatePlant()
        curves = [run(plant, config, 99) for _ in range(5)]
        stack = np.stack([c.best_so_far for c in curves])
        assert np.all(stack.min(axis=0) == stack.max(axis=0))

    def test_run_errors_carry_run_index(self):
        class FailsLate:
            calls = 0

            def fitness(self, position, pattern, seed):
                FailsLate.calls += 1
                if FailsLate.calls > 30:
                    raise RuntimeError("plant died")
                return 0.0

        with pytest.raises(EvaluationError) as err:
            run_campaign(small_config(iterations=3), FailsLate())
        assert err.value.run_index is not None
