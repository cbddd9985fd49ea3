import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rampopt.patterns import ActuationPattern, effective_pattern
from rampopt.plant import (
    ContractError,
    DomainError,
    FlowConfig,
    Measurement,
    SurrogatePlant,
    TapGrid,
    cost_ja,
    cost_ja_star,
    cp_profile,
    default_surrogate_config,
    enumerate_column_states,
    load_surrogate_config,
    oracle_optimum,
    ramp_profile,
    save_surrogate_config,
)

from strategies import patterns


class TestRampProfile:
    def test_endpoint_and_midpoint_identities(self):
        flow = FlowConfig()
        h, a = flow.step_height, flow.shape_factor
        assert ramp_profile(0.0, flow) == pytest.approx(h, abs=1e-12)
        assert ramp_profile(2 * h / a, flow) == pytest.approx(0.0, abs=1e-12)
        assert ramp_profile(h / a, flow) == pytest.approx(h / 2, abs=1e-12)

    def test_outside_domain_rejected(self):
        flow = FlowConfig()
        with pytest.raises(DomainError):
            ramp_profile(-1e-9, flow)
        with pytest.raises(DomainError):
            ramp_profile(2 * flow.step_height / flow.shape_factor + 1e-9, flow)

    def test_profile_is_monotone_decreasing(self):
        flow = FlowConfig()
        xs = np.linspace(0, 2 * flow.step_height / flow.shape_factor, 200)
        ys = [ramp_profile(x, flow) for x in xs]
        assert all(b <= a + 1e-12 for a, b in zip(ys, ys[1:]))


class TestCostFunctions:
    def test_ja_zero_when_pressure_matches_freestream(self):
        taps = TapGrid()
        m = Measurement(mean_pressure=(5.0,) * 42, freestream_pressure=5.0)
        assert cost_ja(m, taps) == 0.0

    def test_ja_equals_area_for_unit_deficit(self):
        taps = TapGrid()
        m = Measurement(mean_pressure=(-1.0,) * 42, freestream_pressure=0.0)
        assert cost_ja(m, taps) == pytest.approx(taps.total_area, rel=1e-12)

    def test_ja_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(7)
        taps = TapGrid()
        values = rng.normal(0.0, 3.0, size=42)
        m = Measurement(mean_pressure=tuple(values), freestream_pressure=1.3)
        expected = 0.0
        for w, p in zip(taps.weights, values):
            expected += w * (1.3 - p)
        assert cost_ja(m, taps) == pytest.approx(expected, rel=1e-12)

    def test_ja_star_values(self):
        assert cost_ja_star(2.0, 2.0) == 0.0
        assert cost_ja_star(0.09 * 2.0, 2.0) == pytest.approx(-0.91)
        assert cost_ja_star(4.0, 2.0) == pytest.approx(1.0)

    def test_ja_star_requires_positive_baseline(self):
        with pytest.raises(ValueError):
            cost_ja_star(1.0, 0.0)
        with pytest.raises(ValueError):
            cost_ja_star(1.0, -2.0)

    def test_dimension_mismatch_rejected(self):
        taps = TapGrid()
        m = Measurement(mean_pressure=(0.0,) * 42, freestream_pressure=0.0)
        bad = replace(taps, total_area=taps.total_area)
        arr = m.pressure_array()[:41]

        class Short:
            def pressure_array(self):
                return arr

            freestream_pressure = 0.0

        with pytest.raises(ValueError):
            cost_ja(Short(), bad)

    def test_cp_zero_at_freestream_pressure(self):
        m = Measurement(mean_pressure=(0.0,) * 42, freestream_pressure=0.0)
        assert np.all(cp_profile(m, FlowConfig()) == 0.0)


class TestCalibrationAnchors:
    def test_all_off_is_exactly_baseline(self, clean_plant):
        assert clean_plant.fitness(None, ActuationPattern.all_off(), 0) == 0.0

    @pytest.mark.parametrize(
        "rows,level,jets,target",
        [
            ((1,), 4, False, -0.36),
            ((1, 2), 4, False, -0.43),
            ((0, 1), 1, True, -0.91),
        ],
    )
    def test_reference_recoveries(self, clean_plant, rows, level, jets, target):
        p = ActuationPattern.from_rows(rows, level, active=jets)
        assert clean_plant.fitness(None, p, 0) == pytest.approx(target, abs=0.02)

    def test_row1_worsens_strictly_with_height(self, clean_plant):
        vals = [
            clean_plant.fitness(None, ActuationPattern.from_rows((0,), l), 0)
            for l in (1, 2, 3, 4)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @given(st.lists(st.integers(0, 4), min_size=12, max_size=12))
    @settings(max_examples=50)
    def test_rows_4_and_5_passive_patterns_are_negligible(self, clean_plant, levels):
        heights = np.zeros((5, 6), dtype=int)
        heights[3] = levels[:6]
        heights[4] = levels[6:]
        p = ActuationPattern(
            heights=tuple(int(v) for v in heights.reshape(-1)), actives=(0,) * 30
        )
        assert abs(clean_plant.fitness(None, p, 0)) < 0.05

    def test_baseline_cp_peak(self, clean_plant):
        m = clean_plant.evaluate(ActuationPattern.all_off(), 0)
        cp = cp_profile(m, clean_plant.flow).reshape(6, 7)
        assert cp[5, 3] == pytest.approx(0.2, abs=0.05)

    def test_best_case_cp_peak_mid_span(self, clean_plant):
        m = clean_plant.evaluate(ActuationPattern.from_rows((0, 1), 1, active=True), 0)
        cp = cp_profile(m, clean_plant.flow).reshape(6, 7)
        assert cp[5, 3] == pytest.approx(0.65, abs=0.05)

    def test_side_taps_recover_less(self, clean_plant):
        m = clean_plant.evaluate(ActuationPattern.from_rows((0, 1), 1, active=True), 0)
        cp = cp_profile(m, clean_plant.flow).reshape(6, 7)
        assert cp[5, 0] < cp[5, 3]
        assert cp[5, 6] < cp[5, 3]


class TestSurrogateBehaviour:
    def test_bit_reproducible_per_pattern_and_seed(self, noisy_plant):
        p = ActuationPattern.from_rows((1,), 3)
        m1 = noisy_plant.evaluate(p, seed=123)
        m2 = noisy_plant.evaluate(p, seed=123)
        assert m1.mean_pressure == m2.mean_pressure

    def test_distinct_seeds_give_distinct_noise(self, noisy_plant):
        p = ActuationPattern.all_off()
        m1 = noisy_plant.evaluate(p, seed=1)
        m2 = noisy_plant.evaluate(p, seed=2)
        assert m1.mean_pressure != m2.mean_pressure

    def test_noise_scale_at_baseline(self, noisy_plant):
        vals = [
            noisy_plant.fitness(None, ActuationPattern.all_off(), seed)
            for seed in range(300)
        ]
        sigma = np.std(vals)
        assert 0.005 < sigma < 0.02  # designed to sit near 0.01

    def test_suppressed_jets_do_not_act(self, clean_plant):
        heights = [0] * 30
        actives = [1] * 30
        armed = ActuationPattern(heights=tuple(heights), actives=tuple(actives))
        assert clean_plant.fitness(None, armed, 0) == clean_plant.fitness(
            None, ActuationPattern.all_off(), 0
        )

    @given(patterns)
    @settings(max_examples=30)
    def test_fitness_matches_measurement_path(self, clean_plant, p):
        m = clean_plant.evaluate(p, 0)
        via_measurement = cost_ja_star(cost_ja(m, clean_plant.taps), clean_plant.baseline_ja())
        assert clean_plant.fitness(None, p, 0) == pytest.approx(via_measurement, rel=1e-12, abs=1e-14)

    @given(patterns)
    @settings(max_examples=30)
    def test_coupled_fitness_matches_measurement_path(self, coupled_plant, p):
        m = coupled_plant.evaluate(p, 0)
        via_measurement = cost_ja_star(cost_ja(m, coupled_plant.taps), coupled_plant.baseline_ja())
        assert coupled_plant.fitness(None, p, 0) == pytest.approx(via_measurement, rel=1e-12, abs=1e-14)

    @given(patterns)
    @settings(max_examples=20)
    def test_column_separability(self, clean_plant, p):
        full = clean_plant.fitness(None, p, 0)
        heights = p.height_grid()
        actives = p.active_grid()
        parts = 0.0
        for c in range(6):
            h = np.zeros((5, 6), dtype=int)
            a = np.zeros((5, 6), dtype=int)
            h[:, c] = heights[:, c]
            a[:, c] = actives[:, c]
            restricted = ActuationPattern(
                heights=tuple(int(v) for v in h.reshape(-1)),
                actives=tuple(int(v) for v in a.reshape(-1)),
            )
            parts += clean_plant.fitness(None, restricted, 0)
        assert full == pytest.approx(parts, abs=1e-12)

    def test_coupling_breaks_separability(self, clean_config):
        coupled = SurrogatePlant(replace(clean_config, coupling_enabled=True))
        p = ActuationPattern.from_rows((0, 1), 1, active=True)
        full = coupled.fitness(None, p, 0)
        heights = p.height_grid()
        actives = p.active_grid()
        parts = 0.0
        for c in range(6):
            h = np.zeros((5, 6), dtype=int)
            a = np.zeros((5, 6), dtype=int)
            h[:, c] = heights[:, c]
            a[:, c] = actives[:, c]
            restricted = ActuationPattern(
                heights=tuple(int(v) for v in h.reshape(-1)),
                actives=tuple(int(v) for v in a.reshape(-1)),
            )
            parts += coupled.fitness(None, restricted, 0)
        assert abs(full - parts) > 1e-6

    def test_batch_matches_single_path(self, noisy_plant):
        rng = np.random.default_rng(5)
        heights = rng.integers(0, 5, size=(8, 30))
        actives = rng.integers(0, 2, size=(8, 30))
        seeds = np.arange(8) + 100
        batch = noisy_plant.fitness_batch(None, heights, actives, seeds)
        for i in range(8):
            p = effective_pattern(
                ActuationPattern(
                    heights=tuple(int(v) for v in heights[i]),
                    actives=tuple(int(v) for v in actives[i]),
                )
            )
            single = noisy_plant.fitness(None, p, int(seeds[i]))
            assert batch[i] == pytest.approx(single, rel=1e-12, abs=1e-14)


class TestBitIdentity:
    """A row's J_a* bits do not depend on the batch it is evaluated in."""

    @pytest.mark.parametrize("plant_fixture", ["clean_plant", "noisy_plant"])
    def test_row_bits_alone_in_batch_and_through_fitness(self, request, plant_fixture):
        plant = request.getfixturevalue(plant_fixture)
        rng = np.random.default_rng(12)
        n = 2000
        heights = rng.integers(0, 5, size=(n, 30), dtype=np.int8)
        actives = rng.integers(0, 2, size=(n, 30), dtype=np.int8)
        seeds = np.arange(n) + 500
        batch = plant.fitness_batch(None, heights, actives, seeds)
        alone = np.array([
            plant.fitness_batch(None, heights[i:i + 1], actives[i:i + 1], seeds[i:i + 1])[0]
            for i in range(n)
        ])
        single = np.array([
            plant.fitness(None, ActuationPattern(heights=tuple(int(v) for v in heights[i]),
                                                 actives=tuple(int(v) for v in actives[i])),
                          int(seeds[i]))
            for i in range(n)
        ])
        middle = plant.fitness_batch(None, heights[700:735].astype(np.int64),
                                     actives[700:735].astype(np.int64), seeds[700:735])
        assert alone.tobytes() == batch.tobytes()
        assert single.tobytes() == batch.tobytes()
        assert middle.tobytes() == batch[700:735].tobytes()

    @pytest.mark.parametrize("plant_fixture", ["clean_plant", "coupled_plant"])
    def test_all_off_with_armed_jets_is_positive_zero(self, request, plant_fixture):
        plant = request.getfixturevalue(plant_fixture)
        armed = ActuationPattern(heights=(0,) * 30, actives=(1,) * 30)
        single = plant.fitness(None, armed, 0)
        batch = plant.fitness_batch(None, np.zeros((3, 30), dtype=np.int8),
                                    np.ones((3, 30), dtype=np.int8), np.arange(3))
        for value in (single, *batch):
            assert value == 0.0
            assert math.copysign(1.0, value) == 1.0


class TestOracle:
    def test_single_basin_config_returns_planted_optimum(self):
        # Only row 2 contributes, and only through its passive table.
        config = replace(
            default_surrogate_config(),
            passive_table=(
                (0.0, 0.0, 0.0, 0.0, 0.0),
                (0.0, 0.1, 0.2, 0.3, 0.4),
                (0.0, 0.0, 0.0, 0.0, 0.0),
                (0.0, 0.0, 0.0, 0.0, 0.0),
                (0.0, 0.0, 0.0, 0.0, 0.0),
            ),
            active_table=((0.0,) * 5,) * 5,
            passive_pair=((0.0,) * 5,) * 5,
            jet_pair=((0.0,) * 5,) * 5,
            noise_std=0.0,
        )
        pattern, value = oracle_optimum(config)
        assert pattern.height_grid()[1].tolist() == [4] * 6
        assert value == pytest.approx(-0.4)

    def test_default_optimum_in_reported_band(self, clean_config):
        _, value = oracle_optimum(clean_config)
        assert -1.477 <= value <= -1.213

    def test_column_symmetric_config_gives_column_uniform_pattern(self, clean_config):
        pattern, _ = oracle_optimum(clean_config)
        heights = pattern.height_grid()
        actives = pattern.active_grid()
        for r in range(5):
            assert len(set(heights[r].tolist())) == 1
            assert len(set(actives[r].tolist())) == 1

    def test_oracle_beats_random_search(self, clean_config, clean_plant):
        _, value = oracle_optimum(clean_config)
        rng = np.random.default_rng(11)
        heights = rng.integers(0, 5, size=(20000, 30))
        actives = rng.integers(0, 2, size=(20000, 30))
        sample = clean_plant.fitness_batch(None, heights, actives, np.zeros(20000, dtype=int))
        assert value <= sample.min()

    def test_oracle_refuses_coupling(self, clean_config):
        with pytest.raises(ContractError):
            oracle_optimum(replace(clean_config, coupling_enabled=True))

    def test_enumeration_size(self):
        hh, aa = enumerate_column_states()
        assert hh.shape == (100_000, 5)
        assert len(np.unique(np.hstack([hh, aa]), axis=0)) == 100_000


class TestConfigRoundTrip:
    def test_bit_exact_json_round_trip(self, tmp_path):
        config = default_surrogate_config()
        path = tmp_path / "config.json"
        save_surrogate_config(config, path)
        assert load_surrogate_config(path) == config

    def test_shipped_default_matches_code(self):
        from importlib import resources

        with resources.as_file(
            resources.files("rampopt").joinpath("data/default_surrogate.json")
        ) as path:
            assert load_surrogate_config(path) == default_surrogate_config()

    def test_level_zero_response_must_vanish(self):
        table = [[0.1, 0.0, 0.0, 0.0, 0.0]] + [[0.0] * 5] * 4
        with pytest.raises(ValueError):
            replace(default_surrogate_config(), passive_table=table)


class TestPlantContract:
    def test_capability_flags(self, clean_plant):
        assert clean_plant.discrete_fitness is True

    def test_measurement_validation(self):
        with pytest.raises(ValueError):
            Measurement(mean_pressure=(0.0,) * 41, freestream_pressure=0.0)
        with pytest.raises(ValueError):
            Measurement(mean_pressure=(math.nan,) * 42, freestream_pressure=0.0)
        with pytest.raises(ValueError):
            Measurement(mean_pressure=(0.0,) * 42, freestream_pressure=0.0, sample_count=0)

    def test_tap_grid_weights(self):
        taps = TapGrid()
        assert taps.n_taps == 42
        assert np.all(taps.weights > 0)
        assert taps.weights.sum() == pytest.approx(taps.total_area, rel=1e-12)
        # The closed-form J_a* kernel relies on uniform weights.
        assert np.all(TapGrid(total_area=0.5).weights == 0.5 / 42)

    def test_flow_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(freestream_velocity=-1.0)
        with pytest.raises(ValueError):
            FlowConfig(shape_factor=1.5)
