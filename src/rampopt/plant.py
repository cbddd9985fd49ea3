"""Evaluation side of the testbed: surrogate plant, cost functions, exact oracle.

The surrogate maps a discrete actuation pattern to a 42-tap mean-pressure
field over the ramp surface.  Its response is additive over the six spanwise
actuator columns (unless cross-column coupling is enabled), which makes the
noiseless global optimum exactly computable by per-column enumeration.

All response coefficients live in :class:`SurrogateConfig`.  The shipped
default configuration is calibrated so that a handful of reference commands
reproduce known pressure-recovery levels exactly; everything else about the
landscape is declared synthetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .patterns import (
    N_ACTUATORS,
    N_COLUMNS,
    N_ROWS,
    ActuationPattern,
    effective_pattern,
)

N_TAP_STATIONS = 6
N_TAP_SPANWISE = 7
N_TAPS = N_TAP_STATIONS * N_TAP_SPANWISE


class ContractError(RuntimeError):
    """An operation was invoked outside its declared contract."""


class DomainError(ValueError):
    """A coordinate fell outside the geometric domain."""


@dataclass(frozen=True)
class FlowConfig:
    """Freestream and geometry constants.

    freestream_velocity : m/s
    density             : kg/m^3
    step_height         : ramp step height H, m
    shape_factor        : ramp profile factor a in (0, 1]
    """

    freestream_velocity: float = 7.0
    density: float = 1.204
    step_height: float = 0.05
    shape_factor: float = 0.703

    def __post_init__(self) -> None:
        if self.freestream_velocity <= 0 or self.density <= 0 or self.step_height <= 0:
            raise ValueError("flow quantities must be positive")
        if not (0.0 < self.shape_factor <= 1.0):
            raise ValueError("shape factor must be in (0, 1]")

    @property
    def dynamic_pressure(self) -> float:
        return 0.5 * self.density * self.freestream_velocity**2


def ramp_profile(x: float, flow: FlowConfig | None = None) -> float:
    """Wall height y(x) of the smooth ramp, valid for 0 <= x <= 2H/a.

    y/H = (1/2pi) * (sin(a*pi*x/H) - a*pi*x/H) + 1
    """
    if flow is None:
        flow = FlowConfig()
    h = flow.step_height
    a = flow.shape_factor
    if not (0.0 <= x <= 2.0 * h / a):
        raise DomainError(f"x = {x} outside ramp domain [0, {2.0 * h / a}]")
    s = a * math.pi * x / h
    return h * ((math.sin(s) - s) / (2.0 * math.pi) + 1.0)


def _default_x_over_h() -> tuple[float, ...]:
    return (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def _default_z_over_h() -> tuple[float, ...]:
    return (-1.8, -1.2, -0.6, 0.0, 0.6, 1.2, 1.8)


@dataclass(frozen=True)
class TapGrid:
    """6 streamwise x 7 spanwise pressure taps with quadrature weights.

    Tap coordinates are inputs (only counts and staggering are fixed by the
    hardware layout); weights default to a uniform share of the measured
    surface area.  Taps are ordered station-major: tap k = (station, span)
    with span varying fastest.
    """

    x_over_h: tuple[float, ...] = field(default_factory=_default_x_over_h)
    z_over_h: tuple[float, ...] = field(default_factory=_default_z_over_h)
    total_area: float = 0.0315  # m^2, 3.0H x 4.2H footprint at H = 50 mm

    def __post_init__(self) -> None:
        if len(self.x_over_h) != N_TAP_STATIONS or len(self.z_over_h) != N_TAP_SPANWISE:
            raise ValueError(f"tap grid must be {N_TAP_STATIONS} x {N_TAP_SPANWISE}")
        if self.total_area <= 0:
            raise ValueError("total area must be positive")

    @property
    def n_taps(self) -> int:
        return N_TAPS

    @property
    def weights(self) -> np.ndarray:
        """Per-tap area element; strictly positive, sums to total_area."""
        return np.full(N_TAPS, self.total_area / N_TAPS)

    def coordinates(self, flow: FlowConfig | None = None) -> np.ndarray:
        """(42, 2) physical (x, z) tap coordinates in metres."""
        h = (flow or FlowConfig()).step_height
        xs = np.repeat(np.asarray(self.x_over_h) * h, N_TAP_SPANWISE)
        zs = np.tile(np.asarray(self.z_over_h) * h, N_TAP_STATIONS)
        return np.column_stack([xs, zs])


@dataclass(frozen=True)
class Measurement:
    """One plant evaluation: time-averaged tap pressures plus metadata."""

    mean_pressure: tuple[float, ...]  # Pa, 42 taps, station-major
    freestream_pressure: float  # Pa
    sample_count: int = 10240  # 10 s at 1024 Hz
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.mean_pressure) != N_TAPS:
            raise ValueError(f"expected {N_TAPS} tap pressures, got {len(self.mean_pressure)}")
        arr = np.asarray(self.mean_pressure, dtype=float)
        if not np.all(np.isfinite(arr)) or not math.isfinite(self.freestream_pressure):
            raise ValueError("pressures must be finite")
        if self.sample_count <= 0:
            raise ValueError("sample_count must be positive")

    def pressure_array(self) -> np.ndarray:
        return np.asarray(self.mean_pressure, dtype=float)


def cost_ja(m: Measurement, taps: TapGrid) -> float:
    """Integrated pressure deficit sum_k w_k * (p0 - p_k), in Pa*m^2."""
    p = m.pressure_array()
    w = taps.weights
    if p.shape != w.shape:
        raise ValueError(f"measurement/taps dimension mismatch: {p.shape} vs {w.shape}")
    return float(np.dot(w, m.freestream_pressure - p))


def cost_ja_star(ja: float, ja_baseline: float) -> float:
    """Baseline-normalized cost: negative values mean improved pressure recovery."""
    if ja_baseline <= 0:
        raise ValueError(f"baseline cost must be positive, got {ja_baseline}")
    return ja / ja_baseline - 1.0


def cp_profile(m: Measurement, flow: FlowConfig) -> np.ndarray:
    """Pressure coefficient (p - p0) / q per tap, station-major order."""
    return (m.pressure_array() - m.freestream_pressure) / flow.dynamic_pressure


# ---------------------------------------------------------------------------
# Surrogate plant
# ---------------------------------------------------------------------------

def _tuple2d(rows) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in row) for row in rows)


@dataclass(frozen=True)
class SurrogateConfig:
    """Response coefficients of the surrogate plant.

    Per spanwise column c, the recovery score of the local 5-row state is

        u_c = sum_r P[r][h_r] + a_r * A[r][h_r]
            + sum_{r<r'} W[r][r'] * (h_r/4) * (h_r'/4)
            + sum_{r<r'} a_r * a_r' * V[r][r'] * eta[h_r][h_r']

    with jets suppressed at zero height.  The tap field is the baseline Cp
    plus a streamwise recovery shape scaled by column intensities, arranged
    so that a spanwise-uniform command with score u yields exactly
    J_a* = -u.  Column gains attenuate the outermost columns (side walls).

    passive_table / active_table : 5 rows x 5 levels (level-0 entries zero)
    passive_pair / jet_pair      : 5 x 5 upper-triangular interaction tables
    jet_pair_profile             : 4 x 4 jet synergy vs (upstream, downstream) level
    column_gains                 : 6 per-column multipliers
    baseline_cp / recovery_shape : 6 per-station profiles
    coupling_enabled             : cross-column coupling (oracle requires off)
    spanwise_sigma               : smoothing width (columns) used when coupling
    coupling_saturation          : saturation strength used when coupling
    noise_std                    : Gaussian tap-pressure noise, Pa
    """

    passive_table: tuple[tuple[float, ...], ...]
    active_table: tuple[tuple[float, ...], ...]
    passive_pair: tuple[tuple[float, ...], ...]
    jet_pair: tuple[tuple[float, ...], ...]
    jet_pair_profile: tuple[tuple[float, ...], ...]
    column_gains: tuple[float, ...]
    baseline_cp: tuple[float, ...]
    recovery_shape: tuple[float, ...]
    coupling_enabled: bool = False
    spanwise_sigma: float = 0.8
    coupling_saturation: float = 0.15
    noise_std: float = 0.25
    seed: int = 7
    version: str = "1"

    def __post_init__(self) -> None:
        object.__setattr__(self, "passive_table", _tuple2d(self.passive_table))
        object.__setattr__(self, "active_table", _tuple2d(self.active_table))
        object.__setattr__(self, "passive_pair", _tuple2d(self.passive_pair))
        object.__setattr__(self, "jet_pair", _tuple2d(self.jet_pair))
        object.__setattr__(self, "jet_pair_profile", _tuple2d(self.jet_pair_profile))
        object.__setattr__(self, "column_gains", tuple(float(v) for v in self.column_gains))
        object.__setattr__(self, "baseline_cp", tuple(float(v) for v in self.baseline_cp))
        object.__setattr__(self, "recovery_shape", tuple(float(v) for v in self.recovery_shape))
        for name, table, shape in (
            ("passive_table", self.passive_table, (N_ROWS, 5)),
            ("active_table", self.active_table, (N_ROWS, 5)),
            ("passive_pair", self.passive_pair, (N_ROWS, N_ROWS)),
            ("jet_pair", self.jet_pair, (N_ROWS, N_ROWS)),
            ("jet_pair_profile", self.jet_pair_profile, (4, 4)),
        ):
            got = (len(table), len(table[0]))
            if got != shape:
                raise ValueError(f"{name} must be {shape}, got {got}")
        if len(self.column_gains) != N_COLUMNS:
            raise ValueError("column_gains must have 6 entries")
        if len(self.baseline_cp) != N_TAP_STATIONS or len(self.recovery_shape) != N_TAP_STATIONS:
            raise ValueError("station profiles must have 6 entries")
        if any(row[0] != 0.0 for row in self.passive_table):
            raise ValueError("passive_table level-0 entries must be zero (all-off is baseline)")
        if any(row[0] != 0.0 for row in self.active_table):
            raise ValueError("active_table level-0 entries must be zero (jets suppressed)")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if sum(self.baseline_cp) >= 0:
            raise ValueError("baseline Cp must integrate to a pressure deficit")


def default_surrogate_config() -> SurrogateConfig:
    """Shipped calibrated configuration (version 1).

    Reference commands hit their target recoveries exactly by construction:
    row 2 passive at max height -> 36 %, rows 2+3 passive at max height
    -> 43 %, rows 1+2 blowing at minimum height -> 91 %.  Off-diagonal jet
    synergy hides a deeper optimum reachable only with mixed heights.
    """
    return SurrogateConfig(
        passive_table=(
            (0.0, 0.06, -0.08, -0.19, -0.32),
            (0.0, 0.10, 0.18, 0.27, 0.36),
            (0.0, 0.01, 0.02, 0.03, 0.04),
            (0.0, 0.008, 0.012, 0.016, 0.02),
            (0.0, -0.004, -0.01, -0.014, -0.018),
        ),
        active_table=(
            (0.0, 0.31, 0.22, 0.12, 0.02),
            (0.0, -0.095, -0.17, -0.26, -0.335),
            (0.0, -0.03, -0.04, -0.05, -0.06),
            (0.0, -0.05, -0.06, -0.07, -0.09),
            (0.0, -0.03, -0.04, -0.05, -0.06),
        ),
        passive_pair=(
            (0.0, -0.16, -0.02, -0.01, -0.005),
            (0.0, 0.0, 0.03, -0.01, -0.005),
            (0.0, 0.0, 0.0, -0.02, -0.005),
            (0.0, 0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 0.0, 0.0),
        ),
        jet_pair=(
            (0.0, 0.545, -0.02, 0.0, 0.0),
            (0.0, 0.0, 0.03, 0.01, 0.01),
            (0.0, 0.0, 0.0, 0.01, 0.0),
            (0.0, 0.0, 0.0, 0.0, 0.005),
            (0.0, 0.0, 0.0, 0.0, 0.0),
        ),
        jet_pair_profile=(
            (1.00, 1.60, 1.30, 0.65),
            (0.40, 0.60, 0.30, 0.10),
            (0.15, 0.25, 0.20, 0.08),
            (0.05, 0.10, 0.08, 0.05),
        ),
        column_gains=(0.7, 1.0, 1.0, 1.0, 1.0, 0.7),
        baseline_cp=(-0.04, -0.38, -0.33, -0.21, -0.04, 0.20),
        recovery_shape=(-0.16, -0.02, 0.18, 0.42, 0.78, 1.00),
    )


def save_surrogate_config(config: SurrogateConfig, path: str | Path) -> None:
    """Write a config as a JSON key-value tree (bit-exact float round-trip)."""
    Path(path).write_text(json.dumps(asdict(config), indent=2) + "\n")


def load_surrogate_config(path: str | Path) -> SurrogateConfig:
    data = json.loads(Path(path).read_text())
    return SurrogateConfig(**data)


def _column_scores(config: SurrogateConfig, heights: np.ndarray, actives: np.ndarray) -> np.ndarray:
    """Recovery scores u_c for a block of column states.

    heights, actives : (..., 5) integer arrays (jets already suppressed or not;
    suppression is applied here regardless).
    Returns an array of shape (...,).
    """
    h = np.asarray(heights, dtype=np.int64)
    a = np.asarray(actives, dtype=np.int64) * (h > 0)
    pt = np.asarray(config.passive_table)
    at = np.asarray(config.active_table)
    rows = np.arange(N_ROWS)
    u = pt[rows, h].sum(axis=-1) + (a * at[rows, h]).sum(axis=-1)
    m = h / 4.0
    eta = np.asarray(config.jet_pair_profile)
    # eta is indexed by level 1..4; pad level 0 so suppressed jets look up zero.
    eta_pad = np.zeros((5, 5))
    eta_pad[1:, 1:] = eta
    for r in range(N_ROWS):
        for s in range(r + 1, N_ROWS):
            w = config.passive_pair[r][s]
            if w != 0.0:
                u = u + w * m[..., r] * m[..., s]
            v = config.jet_pair[r][s]
            if v != 0.0:
                u = u + v * (a[..., r] * a[..., s]) * eta_pad[h[..., r], h[..., s]]
    return u


# Column states scored per _column_scores call while building the score
# table.  Its int64 and float temporaries for all 100,000 states at once
# would add about 15 MB to the peak memory of every process that evaluates a
# single command; in blocks of 4,000 the build adds about 2 MB.
_TABLE_BLOCK = 4000


def _column_score_table(config: SurrogateConfig) -> np.ndarray:
    """Score u_c of every per-column state, in ``enumerate_column_states`` order.

    The state with row heights h_0..h_4 and jet flags a_0..a_4 sits at index
    H * 32 + A, where H = sum_r h_r * 5^(4-r) and A = sum_r a_r * 2^(4-r).
    """
    hh, aa = enumerate_column_states()
    return np.concatenate([
        _column_scores(config, hh[i:i + _TABLE_BLOCK], aa[i:i + _TABLE_BLOCK])
        for i in range(0, len(hh), _TABLE_BLOCK)
    ])


def _ordered_dot(columns: np.ndarray, weights) -> np.ndarray:
    """sum_j columns[:, j] * weights[j] for an (n, m) block, accumulated left
    to right so that each row's bits do not depend on the other rows."""
    acc = columns[:, 0] * weights[0]
    for j in range(1, len(weights)):
        acc += columns[:, j] * weights[j]
    return acc


class SurrogatePlant:
    """Calibrated stand-in for the laboratory plant.

    Pure function of (pattern, seed): two evaluations with identical inputs
    produce identical bits.  Safe for unrestricted concurrent use.
    """

    discrete_fitness = True  # fitness depends only on the decoded pattern

    def __init__(
        self,
        config: SurrogateConfig | None = None,
        flow: FlowConfig | None = None,
        taps: TapGrid | None = None,
    ):
        self.config = config if config is not None else default_surrogate_config()
        self.flow = flow if flow is not None else FlowConfig()
        self.taps = taps if taps is not None else TapGrid()
        shape = np.asarray(self.config.recovery_shape)
        gains = np.asarray(self.config.column_gains)
        # Intensity scale makes a spanwise-uniform score u produce Ja* = -u.
        deficit = -sum(self.config.baseline_cp) * N_TAP_SPANWISE
        self._intensity_scale = deficit / (shape.sum() * gains.sum())
        # Column c feeds its two flanking tap columns (c, c+1) equally.
        kernel = np.zeros((N_COLUMNS, N_TAP_SPANWISE))
        for c in range(N_COLUMNS):
            kernel[c, c] = 0.5 * gains[c]
            kernel[c, c + 1] = 0.5 * gains[c]
        self._span_kernel = kernel
        self._baseline_ja_cache: float | None = None
        self._score_table: np.ndarray | None = None

    # -- core field synthesis ------------------------------------------------

    def _tap_cp(self, heights: np.ndarray, actives: np.ndarray) -> np.ndarray:
        """Noiseless Cp field(s), shape (..., 42), for (..., 30) patterns."""
        h = np.asarray(heights, dtype=np.int64).reshape(-1, N_ROWS, N_COLUMNS)
        a = np.asarray(actives, dtype=np.int64).reshape(-1, N_ROWS, N_COLUMNS)
        # Column states: (n, columns, rows)
        u = _column_scores(self.config, h.transpose(0, 2, 1), a.transpose(0, 2, 1))
        intensity = u * self._intensity_scale
        if self.config.coupling_enabled:
            intensity = self._couple_columns(intensity)
        span = intensity @ self._span_kernel  # (n, 7)
        shape = np.asarray(self.config.recovery_shape)
        base = np.asarray(self.config.baseline_cp)
        cp = base[None, :, None] + shape[None, :, None] * span[:, None, :]
        return cp.reshape(-1, N_TAPS)

    def _couple_columns(self, intensity: np.ndarray) -> np.ndarray:
        """Spanwise Gaussian smoothing followed by amplitude saturation.

        The saturation makes the response non-additive across columns, which
        is what the coupling flag is for; with it on the exact per-column
        oracle no longer applies.
        """
        cols = np.arange(N_COLUMNS)
        g = np.exp(-((cols[:, None] - cols[None, :]) ** 2) / (2.0 * self.config.spanwise_sigma**2))
        g /= g.sum(axis=1, keepdims=True)
        smoothed = np.stack([_ordered_dot(intensity, g[i]) for i in range(N_COLUMNS)], axis=1)
        return smoothed / (1.0 + self.config.coupling_saturation * np.abs(smoothed))

    def _noise(self, seed: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence((self.config.seed, seed)))
        return rng.standard_normal((n, N_TAPS)) * self.config.noise_std

    def _ja_star(self, heights: np.ndarray, actives: np.ndarray, seeds) -> np.ndarray:
        """Ja* of (n, 30) height/jet blocks with per-row noise seeds, in closed form.

        In the field of ``_tap_cp`` each actuator column c adds 0.5 * g_c *
        intensity_c to its two flanking tap columns, scaled by the recovery
        shape.  TapGrid weights are uniform (every TapGrid has w_k =
        total_area / 42, which this relies on), so integrating that field and
        normalising by the all-off baseline collapses to

            Ja* = (0 - sum_c g_c * u_c) / sum_c g_c - sum_k w_k * noise_k / baseline_ja()

        with u_c the score of column c's state, gathered from the table of all
        100,000 column states; the 42-tap field is never built.  With coupling
        on, u_c are the coupled intensities divided by the intensity scale.
        Every sum runs in a fixed order over columns or taps, so a row's bits
        are the same alone, in any batch and through ``fitness``.
        """
        heights = np.asarray(heights).reshape(-1, N_ROWS, N_COLUMNS)
        actives = np.asarray(actives).reshape(-1, N_ROWS, N_COLUMNS)
        n = heights.shape[0]
        if self._score_table is None:
            self._score_table = _column_score_table(self.config)
        # Table index H * 32 + A per column, by Horner's rule over the rows.
        index = np.zeros((n, N_COLUMNS), dtype=np.int32)
        for digits, radix in ((heights, 5), (actives, 2)):
            for r in range(N_ROWS):
                index *= radix
                index += digits[:, r]
        u = self._score_table[index]
        if self.config.coupling_enabled:
            u = self._couple_columns(u * self._intensity_scale) / self._intensity_scale
        gains = self.config.column_gains
        ja_star = (0.0 - _ordered_dot(u, gains)) / sum(gains)
        if self.config.noise_std > 0:
            noise = np.empty((n, N_TAPS))
            for i, s in enumerate(seeds):
                noise[i] = self._noise(int(s), 1)[0]
            ja_star -= _ordered_dot(noise, self.taps.weights) / self.baseline_ja()
        return ja_star

    # -- public evaluation API -------------------------------------------------

    def evaluate(self, pattern: ActuationPattern, seed: int = 0) -> Measurement:
        """Evaluate one pattern; deterministic per (pattern, seed)."""
        eff = effective_pattern(pattern)
        cp = self._tap_cp(eff.heights_array()[None, :], eff.actives_array()[None, :])[0]
        p = cp * self.flow.dynamic_pressure
        if self.config.noise_std > 0:
            p = p + self._noise(seed, 1)[0]
        return Measurement(
            mean_pressure=tuple(float(v) for v in p),
            freestream_pressure=0.0,
            seed=seed,
        )

    def baseline_ja(self) -> float:
        """Noiseless cost of the all-off command (the Ja* reference).

        Computed through the same field-synthesis path as evaluate() so that
        a measurement of the all-off command scores Ja* = 0 exactly, bit for
        bit.
        """
        if self._baseline_ja_cache is None:
            zeros = np.zeros((1, N_ACTUATORS), dtype=np.int64)
            cp = self._tap_cp(zeros, zeros)[0]
            p = cp * self.flow.dynamic_pressure
            self._baseline_ja_cache = float(np.dot(self.taps.weights, 0.0 - p))
        return self._baseline_ja_cache

    def fitness(self, position: np.ndarray | None, pattern: ActuationPattern, seed: int = 0) -> float:
        """Ja* of one pattern (the continuous position is ignored)."""
        return float(self._ja_star(pattern.heights_array(), pattern.actives_array(), (seed,))[0])

    def fitness_batch(self, positions, heights: np.ndarray, actives: np.ndarray, seeds) -> np.ndarray:
        """Vectorized Ja* for (n, 30) height/active blocks with per-row seeds."""
        return self._ja_star(heights, actives, seeds)


# ---------------------------------------------------------------------------
# Exact oracle (separable configs only)
# ---------------------------------------------------------------------------

def enumerate_column_states() -> tuple[np.ndarray, np.ndarray]:
    """All 5^5 x 2^5 = 100,000 per-column (heights, actives) states, as int8."""
    levels = np.arange(5, dtype=np.int8)
    jets = np.arange(2, dtype=np.int8)
    h = np.stack(np.meshgrid(*[levels] * N_ROWS, indexing="ij"), axis=-1).reshape(-1, N_ROWS)
    a = np.stack(np.meshgrid(*[jets] * N_ROWS, indexing="ij"), axis=-1).reshape(-1, N_ROWS)
    hh = np.repeat(h, a.shape[0], axis=0)
    aa = np.tile(a, (h.shape[0], 1))
    return hh, aa


def oracle_optimum(
    config: SurrogateConfig,
    flow: FlowConfig | None = None,
    taps: TapGrid | None = None,
) -> tuple[ActuationPattern, float]:
    """Exact noiseless global optimum by exhaustive per-column enumeration.

    Requires cross-column coupling off (the response is then a weighted sum
    of independent column scores) and ignores measurement noise.
    """
    if config.coupling_enabled:
        raise ContractError("oracle requires cross-column coupling disabled")
    hh, aa = enumerate_column_states()
    scores = _column_score_table(config)
    gains = np.asarray(config.column_gains)
    # Per column, best score index; identical tables across columns, but the
    # per-column argmax is computed explicitly against each gain's sign.
    heights = np.zeros((N_ROWS, N_COLUMNS), dtype=np.int64)
    actives = np.zeros((N_ROWS, N_COLUMNS), dtype=np.int64)
    total = 0.0
    for c in range(N_COLUMNS):
        signed = gains[c] * scores
        best = int(np.argmax(signed))
        total += signed[best]
        heights[:, c] = hh[best]
        actives[:, c] = aa[best] * (hh[best] > 0)
    ja_star = -total / gains.sum()
    pattern = ActuationPattern(
        heights=tuple(int(v) for v in heights.reshape(-1)),
        actives=tuple(int(v) for v in actives.reshape(-1)),
    )
    return pattern, float(ja_star)
