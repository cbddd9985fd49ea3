"""Actuation parameter space: discrete patterns, continuous encoding, aggregate metrics.

The control surface carries 30 actuators on a 5 (streamwise) x 6 (spanwise)
grid.  Each actuator has a discrete height level h in {0..4} (level x 2 mm,
8 mm max) and a binary jet state a in {0, 1}.  Optimizers work on a flat
60-dimensional continuous vector (30 height slots followed by 30 jet slots,
row-major order) which is clamped and rounded to the nearest legal level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

N_ROWS = 5
N_COLUMNS = 6
N_ACTUATORS = N_ROWS * N_COLUMNS
N_DIMENSIONS = 2 * N_ACTUATORS

HEIGHT_LEVELS = (0, 1, 2, 3, 4)
LEVEL_STEP_MM = 2.0
MAX_HEIGHT_MM = HEIGHT_LEVELS[-1] * LEVEL_STEP_MM


class EncodingError(ValueError):
    """Raised when a vector or text record cannot be decoded into a pattern."""


@dataclass(frozen=True)
class ActuatorGrid:
    """Index map between (row, column) and the flat actuator index.

    Rows increase downstream (row 0 is the most upstream line of actuators);
    columns increase spanwise.  Flat indices are row-major.
    """

    n_streamwise_rows: int = N_ROWS
    n_spanwise_columns: int = N_COLUMNS

    def __post_init__(self) -> None:
        if self.n_streamwise_rows < 1 or self.n_spanwise_columns < 1:
            raise ValueError("grid dimensions must be positive")

    @property
    def n_actuators(self) -> int:
        return self.n_streamwise_rows * self.n_spanwise_columns

    def flat_index(self, row: int, column: int) -> int:
        if not (0 <= row < self.n_streamwise_rows):
            raise IndexError(f"row {row} outside 0..{self.n_streamwise_rows - 1}")
        if not (0 <= column < self.n_spanwise_columns):
            raise IndexError(f"column {column} outside 0..{self.n_spanwise_columns - 1}")
        return row * self.n_spanwise_columns + column

    def row_column(self, index: int) -> tuple[int, int]:
        if not (0 <= index < self.n_actuators):
            raise IndexError(f"actuator index {index} outside 0..{self.n_actuators - 1}")
        return divmod(index, self.n_spanwise_columns)


GRID = ActuatorGrid()


@dataclass(frozen=True)
class ActuationPattern:
    """Discrete control command: 30 height levels and 30 jet on/off flags."""

    heights: tuple[int, ...]
    actives: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.heights) != N_ACTUATORS or len(self.actives) != N_ACTUATORS:
            raise EncodingError(
                f"pattern needs {N_ACTUATORS} heights and {N_ACTUATORS} actives, "
                f"got {len(self.heights)} and {len(self.actives)}"
            )
        for i, h in enumerate(self.heights):
            if h not in HEIGHT_LEVELS:
                raise EncodingError(f"height[{i}] = {h} not in {HEIGHT_LEVELS}")
        for i, a in enumerate(self.actives):
            if a not in (0, 1):
                raise EncodingError(f"active[{i}] = {a} not in (0, 1)")

    @classmethod
    def all_off(cls) -> "ActuationPattern":
        return cls(heights=(0,) * N_ACTUATORS, actives=(0,) * N_ACTUATORS)

    @classmethod
    def from_rows(
        cls,
        rows: tuple[int, ...] | list[int],
        level: int,
        active: bool = False,
    ) -> "ActuationPattern":
        """Spanwise-uniform pattern: the given rows (0-based) at one level."""
        heights = [0] * N_ACTUATORS
        actives = [0] * N_ACTUATORS
        for r in rows:
            for c in range(N_COLUMNS):
                i = GRID.flat_index(r, c)
                heights[i] = level
                if active:
                    actives[i] = 1
        return cls(heights=tuple(heights), actives=tuple(actives))

    @classmethod
    def from_vector(cls, values) -> "ActuationPattern":
        values = list(values)
        if len(values) != N_DIMENSIONS:
            raise EncodingError(f"expected {N_DIMENSIONS} values, got {len(values)}")
        ints = []
        for i, v in enumerate(values):
            iv = int(v)
            if iv != v:
                raise EncodingError(f"value[{i}] = {v!r} is not an integer")
            ints.append(iv)
        return cls(heights=tuple(ints[:N_ACTUATORS]), actives=tuple(ints[N_ACTUATORS:]))

    @classmethod
    def from_text(cls, text: str) -> "ActuationPattern":
        """Parse the comma-separated 60-integer record used in file artifacts."""
        fields = [f.strip() for f in text.strip().split(",")]
        if len(fields) != N_DIMENSIONS:
            raise EncodingError(f"expected {N_DIMENSIONS} comma-separated integers, got {len(fields)}")
        values = []
        for i, f in enumerate(fields):
            kind = "height" if i < N_ACTUATORS else "active"
            try:
                values.append(int(f))
            except ValueError:
                raise EncodingError(f"{kind}[{i % N_ACTUATORS}] = {f!r} is not an integer") from None
        return cls.from_vector(values)

    def to_text(self) -> str:
        """The one-row case of ``format_patterns``; construction validated the values."""
        return _format_records(np.array([self.heights + self.actives]))[0]

    def heights_array(self) -> np.ndarray:
        return np.array(self.heights, dtype=np.int64)

    def actives_array(self) -> np.ndarray:
        return np.array(self.actives, dtype=np.int64)

    def height_grid(self) -> np.ndarray:
        """Heights as a (rows, columns) array."""
        return self.heights_array().reshape(N_ROWS, N_COLUMNS)

    def active_grid(self) -> np.ndarray:
        return self.actives_array().reshape(N_ROWS, N_COLUMNS)


@dataclass(frozen=True)
class EffectivePattern(ActuationPattern):
    """Pattern as executed by the plant: jets at zero height are suppressed."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for i, (h, a) in enumerate(zip(self.heights, self.actives)):
            if h == 0 and a != 0:
                raise EncodingError(f"active[{i}] = 1 with height 0 in an effective pattern")


def effective_pattern(p: ActuationPattern) -> EffectivePattern:
    """Suppress jets on actuators whose height is zero; heights unchanged."""
    actives = tuple(a if h > 0 else 0 for h, a in zip(p.heights, p.actives))
    return EffectivePattern(heights=p.heights, actives=actives)


# A canonical text record is the 60 single digits joined by commas.
_RECORD_CHARS = 2 * N_DIMENSIONS - 1
_ZERO, _COMMA, _NEWLINE = ord("0"), ord(","), ord("\n")
_LARGEST = np.array([HEIGHT_LEVELS[-1]] * N_ACTUATORS + [1] * N_ACTUATORS, dtype=np.uint64)


def format_patterns(heights, actives) -> list[str]:
    """Text records of an (n, 30) height block and an (n, 30) jet block.

    One record per row: the 30 heights, then the 30 jet flags, joined by
    commas.  ``ActuationPattern.to_text`` is the one-row case.
    """
    h, a = np.asarray(heights), np.asarray(actives)
    if h.ndim != 2 or h.shape[1] != N_ACTUATORS or a.shape != h.shape:
        raise EncodingError(f"heights and actives must both have shape (n, {N_ACTUATORS}), "
                            f"got {h.shape} and {a.shape}")
    values = np.concatenate([h, a], axis=1)
    # Casting wraps negative integers past every bound.
    if values.dtype.kind not in "iu" or (values.astype(np.uint64) > _LARGEST).any():
        raise EncodingError(f"heights must be integers in {HEIGHT_LEVELS} and actives in (0, 1)")
    return _format_records(values)


def _format_records(values: np.ndarray) -> list[str]:
    """Records of an (n, 60) block of valid levels and flags, one per row."""
    buf = np.full((len(values), _RECORD_CHARS + 1), _COMMA, dtype=np.uint8)
    buf[:, :_RECORD_CHARS:2] = values + _ZERO
    buf[:, _RECORD_CHARS] = _NEWLINE
    return buf.tobytes().decode("ascii").split("\n")[:-1]


def parse_patterns(texts) -> tuple[np.ndarray, np.ndarray]:
    """(n, 30) int8 heights and jet flags of a sequence of n text records.

    Canonical records (as ``format_patterns`` writes them) are checked and
    decoded in bulk.  Every other record goes through
    ``ActuationPattern.from_text`` in row order, so its lenient forms (such
    as ``" 1"`` or ``"01"``) are still accepted and the first invalid record
    raises the EncodingError that ``from_text`` raises for it.
    """
    texts = list(texts)
    canonical = np.fromiter((len(t) == _RECORD_CHARS for t in texts), dtype=bool, count=len(texts))
    rows = np.flatnonzero(canonical)
    # latin-1 with "replace" keeps one byte per character; a replaced
    # character becomes "?", which fails the digit check below.
    joined = "".join(itertools.compress(texts, canonical)).encode("latin-1", "replace")
    raw = np.frombuffer(joined, dtype=np.uint8).reshape(len(rows), _RECORD_CHARS)
    digits = raw[:, ::2] - np.uint8(_ZERO)  # wraps below "0", so one upper bound suffices
    valid = np.all(raw[:, 1::2] == _COMMA, axis=1) & np.all(digits <= _LARGEST, axis=1)
    values = np.empty((len(texts), N_DIMENSIONS), dtype=np.int8)
    values[rows] = digits
    canonical[rows[~valid]] = False
    for i in np.flatnonzero(~canonical):
        p = ActuationPattern.from_text(texts[i])
        values[i] = p.heights + p.actives
    return values[:, :N_ACTUATORS], values[:, N_ACTUATORS:]


def _default_lower() -> np.ndarray:
    return np.concatenate([np.full(N_ACTUATORS, -0.49), np.full(N_ACTUATORS, -0.49)])


def _default_upper() -> np.ndarray:
    return np.concatenate([np.full(N_ACTUATORS, 4.49), np.full(N_ACTUATORS, 1.49)])


@dataclass(frozen=True)
class PositionBounds:
    """Per-coordinate clamp interval for the continuous 60-vector.

    Defaults give every legal discrete value an equal-width rounding basin:
    height slots in [-0.49, 4.49], jet slots in [-0.49, 1.49].
    """

    lower: np.ndarray = field(default_factory=_default_lower)
    upper: np.ndarray = field(default_factory=_default_upper)

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != (N_DIMENSIONS,) or upper.shape != (N_DIMENSIONS,):
            raise ValueError(f"bounds must have shape ({N_DIMENSIONS},)")
        if not np.all(lower < upper):
            raise ValueError("lower bounds must be strictly below upper bounds")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        # Clamp-then-round must land inside the legal discrete sets.
        decode_position(lower, self)
        decode_position(upper, self)

    @property
    def range(self) -> np.ndarray:
        return self.upper - self.lower


DEFAULT_BOUNDS: PositionBounds | None = None  # set below, after decode_positions exists


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero (platform-independent)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def decode_position(position, bounds: PositionBounds | None = None) -> ActuationPattern:
    """Clamp a continuous 60-vector to its bounds and round to the nearest level."""
    x = np.asarray(position, dtype=float)
    if x.shape != (N_DIMENSIONS,):
        raise EncodingError(f"position must have length {N_DIMENSIONS}, got shape {x.shape}")
    heights, actives = decode_positions(x[None, :], bounds)
    return ActuationPattern(heights=tuple(int(h) for h in heights[0]),
                            actives=tuple(int(a) for a in actives[0]))


def decode_positions(positions: np.ndarray, bounds: PositionBounds | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized decode of an (n, 60) position block to integer height/active arrays."""
    if bounds is None:
        bounds = DEFAULT_BOUNDS
    x = np.asarray(positions, dtype=float)
    if x.ndim != 2 or x.shape[1] != N_DIMENSIONS:
        raise EncodingError(f"positions must have shape (n, {N_DIMENSIONS}), got {x.shape}")
    clamped = np.clip(x, bounds.lower, bounds.upper)
    rounded = round_half_away(clamped).astype(np.int64)
    heights = np.clip(rounded[:, :N_ACTUATORS], HEIGHT_LEVELS[0], HEIGHT_LEVELS[-1])
    actives = np.clip(rounded[:, N_ACTUATORS:], 0, 1)
    return heights, actives


DEFAULT_BOUNDS = PositionBounds()


def pattern_to_position(p: ActuationPattern) -> np.ndarray:
    """Embed a pattern as the exact integer point of the continuous space."""
    return np.array(p.heights + p.actives, dtype=float)


def mean_height_ratio(p: ActuationPattern) -> float:
    """Mean physical actuator height divided by the 8 mm maximum; in [0, 1]."""
    mm = p.heights_array() * LEVEL_STEP_MM
    return float(np.mean(mm) / MAX_HEIGHT_MM)


def active_fraction(p: ActuationPattern) -> float:
    """Fraction of jets commanded on, counted on the raw pattern; in [0, 1]."""
    return float(np.mean(p.actives_array()))


def rescale_for_embedding(p: ActuationPattern) -> np.ndarray:
    """Map a pattern to a 60-vector in [-1, 1] with equal per-coordinate weighting.

    Height levels {0..4} map affinely to [-1, 1]; jet flags map to {-1, +1}.
    """
    return rescale_many(p.heights_array()[None, :], p.actives_array()[None, :])[0]


def rescale_many(heights: np.ndarray, actives: np.ndarray) -> np.ndarray:
    """Vectorized rescale_for_embedding over (n, 30) integer blocks."""
    h = np.asarray(heights, dtype=float) / (HEIGHT_LEVELS[-1] / 2.0) - 1.0
    a = np.asarray(actives, dtype=float) * 2.0 - 1.0
    return np.concatenate([h, a], axis=1)
