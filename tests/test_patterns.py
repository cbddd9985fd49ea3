import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from rampopt.patterns import (
    DEFAULT_BOUNDS,
    GRID,
    N_ACTUATORS,
    N_DIMENSIONS,
    ActuationPattern,
    EncodingError,
    PositionBounds,
    active_fraction,
    decode_position,
    decode_positions,
    effective_pattern,
    format_patterns,
    mean_height_ratio,
    parse_patterns,
    pattern_to_position,
    rescale_for_embedding,
)

from strategies import patterns


class TestGrid:
    def test_counts(self):
        assert GRID.n_streamwise_rows == 5
        assert GRID.n_spanwise_columns == 6
        assert GRID.n_actuators == 30

    def test_index_map_is_a_bijection(self):
        seen = set()
        for r in range(5):
            for c in range(6):
                i = GRID.flat_index(r, c)
                assert GRID.row_column(i) == (r, c)
                seen.add(i)
        assert seen == set(range(30))

    def test_out_of_range_indices(self):
        with pytest.raises(IndexError):
            GRID.flat_index(5, 0)
        with pytest.raises(IndexError):
            GRID.row_column(30)


class TestDecodePosition:
    def test_all_zeros_gives_all_off(self):
        p = decode_position(np.zeros(N_DIMENSIONS))
        assert p == ActuationPattern.all_off()

    def test_nearest_integer_rounding(self):
        x = np.zeros(N_DIMENSIONS)
        x[0] = 3.2
        assert decode_position(x).heights[0] == 3

    def test_clamp_then_round(self):
        x = np.zeros(N_DIMENSIONS)
        x[0] = 7.0  # above the 4.49 upper bound
        assert decode_position(x).heights[0] == 4

    def test_wrong_length_rejected(self):
        with pytest.raises(EncodingError):
            decode_position(np.zeros(59))

    @given(patterns)
    def test_round_trip_through_exact_embedding(self, p):
        assert decode_position(pattern_to_position(p)) == p

    @given(patterns, st.data())
    def test_rounding_invariant_to_sub_half_perturbations(self, p, data):
        delta = data.draw(
            st.lists(st.floats(-0.49, 0.49), min_size=N_DIMENSIONS, max_size=N_DIMENSIONS)
        )
        x = pattern_to_position(p) + np.asarray(delta)
        assert decode_position(x) == p

    def test_vectorized_decode_matches_scalar(self):
        rng = np.random.default_rng(0)
        block = rng.uniform(-2, 6, size=(40, N_DIMENSIONS))
        heights, actives = decode_positions(block)
        for i in range(len(block)):
            single = decode_position(block[i])
            assert tuple(heights[i]) == single.heights
            assert tuple(actives[i]) == single.actives


class TestEffectivePattern:
    def test_jet_suppressed_at_zero_height(self):
        heights = [0] * N_ACTUATORS
        actives = [0] * N_ACTUATORS
        actives[7] = 1
        eff = effective_pattern(ActuationPattern(tuple(heights), tuple(actives)))
        assert eff.actives[7] == 0

    def test_jet_kept_at_nonzero_height(self):
        heights = [0] * N_ACTUATORS
        actives = [0] * N_ACTUATORS
        heights[7] = 1
        actives[7] = 1
        eff = effective_pattern(ActuationPattern(tuple(heights), tuple(actives)))
        assert eff.actives[7] == 1
        assert eff.heights == tuple(heights)

    def test_all_off_is_a_fixed_point(self):
        p = ActuationPattern.all_off()
        assert effective_pattern(p).actives == p.actives

    @given(patterns)
    def test_idempotent(self, p):
        once = effective_pattern(p)
        assert effective_pattern(once) == once


class TestAggregateMetrics:
    def test_mean_height_ratio_extremes(self):
        full = ActuationPattern(heights=(4,) * 30, actives=(0,) * 30)
        assert mean_height_ratio(full) == 1.0
        assert mean_height_ratio(ActuationPattern.all_off()) == 0.0

    def test_mean_height_ratio_single_actuator(self):
        heights = [0] * 30
        heights[4] = 4
        p = ActuationPattern(heights=tuple(heights), actives=(0,) * 30)
        assert mean_height_ratio(p) == pytest.approx(1 / 30)

    def test_active_fraction_values(self):
        assert active_fraction(ActuationPattern(heights=(0,) * 30, actives=(1,) * 30)) == 1.0
        assert active_fraction(ActuationPattern.all_off()) == 0.0
        half = ActuationPattern(heights=(0,) * 30, actives=(1,) * 15 + (0,) * 15)
        assert active_fraction(half) == 0.5

    def test_active_fraction_counts_suppressed_jets(self):
        # The raw command is what the metric reports, not the executed one.
        p = ActuationPattern(heights=(0,) * 30, actives=(1,) * 30)
        assert active_fraction(p) == 1.0

    @given(patterns, st.permutations(list(range(N_ACTUATORS))))
    def test_metrics_permutation_invariant(self, p, perm):
        q = ActuationPattern(
            heights=tuple(p.heights[i] for i in perm),
            actives=tuple(p.actives[i] for i in perm),
        )
        assert mean_height_ratio(q) == pytest.approx(mean_height_ratio(p))
        assert active_fraction(q) == pytest.approx(active_fraction(p))


class TestRescale:
    def test_height_endpoints_and_midpoint(self):
        heights = [0] * 30
        heights[0] = 2
        heights[1] = 4
        p = ActuationPattern(heights=tuple(heights), actives=(0,) * 30)
        v = rescale_for_embedding(p)
        assert v[0] == 0.0
        assert v[1] == 1.0
        assert v[2] == -1.0

    def test_jet_endpoints(self):
        actives = [0] * 30
        actives[0] = 1
        p = ActuationPattern(heights=(0,) * 30, actives=tuple(actives))
        v = rescale_for_embedding(p)
        assert v[N_ACTUATORS] == 1.0
        assert v[N_ACTUATORS + 1] == -1.0

    @given(patterns)
    def test_range_is_unit_interval(self, p):
        v = rescale_for_embedding(p)
        assert np.all(v >= -1.0) and np.all(v <= 1.0)


class TestSerialization:
    @given(patterns)
    def test_text_round_trip(self, p):
        assert ActuationPattern.from_text(p.to_text()) == p

    def test_malformed_text_names_the_field(self):
        fields = ["0"] * N_DIMENSIONS
        fields[3] = "x"
        with pytest.raises(EncodingError, match=r"height\[3\]"):
            ActuationPattern.from_text(",".join(fields))

    def test_wrong_count_rejected(self):
        with pytest.raises(EncodingError, match="60"):
            ActuationPattern.from_text("1,2,3")

    def test_out_of_range_level_rejected(self):
        with pytest.raises(EncodingError, match=r"height\[0\]"):
            ActuationPattern(heights=(5,) + (0,) * 29, actives=(0,) * 30)


def reference_text(heights, actives) -> str:
    """The record as a per-value join, independent of the block codec."""
    return ",".join(str(int(v)) for v in list(heights) + list(actives))


pattern_blocks = st.integers(0, 40).flatmap(lambda n: st.tuples(
    arrays(np.int8, (n, N_ACTUATORS), elements=st.integers(0, 4)),
    arrays(np.int8, (n, N_ACTUATORS), elements=st.integers(0, 1)),
))


def valid_records(n: int) -> list[str]:
    rng = np.random.default_rng(n)
    return format_patterns(rng.integers(0, 5, (n, N_ACTUATORS)),
                           rng.integers(0, 2, (n, N_ACTUATORS)))


def with_field(record: str, index: int, value: str) -> str:
    fields = record.split(",")
    fields[index] = value
    return ",".join(fields)


class TestBlockCodec:
    @given(pattern_blocks)
    def test_round_trip_and_rows_equal_to_text(self, block):
        heights, actives = block
        texts = format_patterns(heights, actives)
        assert len(texts) == len(heights)
        for h, a, text in zip(heights, actives, texts):
            assert text == reference_text(h, a)
            assert text == ActuationPattern(tuple(map(int, h)), tuple(map(int, a))).to_text()
        parsed_h, parsed_a = parse_patterns(texts)
        assert parsed_h.dtype == np.int8 and parsed_a.dtype == np.int8
        assert np.array_equal(parsed_h, heights) and np.array_equal(parsed_a, actives)

    @given(patterns)
    def test_to_text_is_the_reference_join(self, p):
        assert p.to_text() == reference_text(p.heights, p.actives)

    @pytest.mark.parametrize("bad", [
        pytest.param(lambda r: with_field(r, 3, "5"), id="height_out_of_range"),
        pytest.param(lambda r: with_field(r, 40, "2"), id="jet_out_of_range"),
        pytest.param(lambda r: with_field(r, 7, "x"), id="not_a_digit"),
        pytest.param(lambda r: r.replace(",", ";", 1), id="wrong_separator"),
        pytest.param(lambda r: "\u00e9" + r[1:], id="latin_1"),
        pytest.param(lambda r: r[:-1] + "\u4e00", id="beyond_latin_1"),
        pytest.param(lambda r: r[:-2], id="too_few_fields"),
        pytest.param(lambda r: with_field(r, 12, "-1"), id="negative"),
        pytest.param(lambda r: r + ",0", id="too_many_fields"),
        pytest.param(lambda r: with_field(r, 50, "1.0"), id="not_an_integer"),
    ])
    def test_first_bad_row_raises_the_from_text_error(self, bad):
        texts = valid_records(300)
        texts[117] = bad(texts[117])
        texts[200] = "1,2,3"  # a later bad row must not win
        with pytest.raises(EncodingError) as expected:
            ActuationPattern.from_text(texts[117])
        with pytest.raises(EncodingError) as got:
            parse_patterns(texts)
        assert str(got.value) == str(expected.value)

    def test_lenient_records_are_parsed_like_from_text(self):
        texts = valid_records(20)
        texts[2] = " " + texts[2].replace(",", ", ") + "\n"
        texts[5] = with_field(texts[5], 0, "01")
        texts[9] = with_field(texts[9], 31, " 1 ")
        texts[11] = with_field(texts[11], 4, "\u0663")  # int() reads other scripts' digits
        heights, actives = parse_patterns(texts)
        for i, text in enumerate(texts):
            p = ActuationPattern.from_text(text)
            assert tuple(heights[i]) == p.heights and tuple(actives[i]) == p.actives

    @pytest.mark.parametrize("heights, actives", [
        pytest.param(np.full((2, N_ACTUATORS), 5), np.zeros((2, N_ACTUATORS), int), id="height_5"),
        pytest.param(np.zeros((2, N_ACTUATORS), int), np.full((2, N_ACTUATORS), -1), id="jet_-1"),
        pytest.param(np.zeros((2, N_ACTUATORS)), np.zeros((2, N_ACTUATORS)), id="floats"),
        pytest.param(np.zeros((2, 29), int), np.zeros((2, 29), int), id="29_columns"),
    ])
    def test_format_rejects_what_no_record_can_hold(self, heights, actives):
        with pytest.raises(EncodingError):
            format_patterns(heights, actives)


class TestBounds:
    def test_default_ranges(self):
        assert DEFAULT_BOUNDS.lower[0] == pytest.approx(-0.49)
        assert DEFAULT_BOUNDS.upper[0] == pytest.approx(4.49)
        assert DEFAULT_BOUNDS.upper[N_ACTUATORS] == pytest.approx(1.49)

    def test_bounds_must_order(self):
        with pytest.raises(ValueError):
            PositionBounds(lower=np.ones(N_DIMENSIONS), upper=np.zeros(N_DIMENSIONS))

    def test_extremes_decode_to_legal_patterns(self):
        decode_position(DEFAULT_BOUNDS.lower)
        decode_position(DEFAULT_BOUNDS.upper)
