"""Synthetic plants for validating the optimizer independently of the surrogate."""

import numpy as np

from rampopt.patterns import DEFAULT_BOUNDS, ActuationPattern


class SpherePlant:
    """Separable quadratic on the continuous position, rescaled to [-1, 1]^60.

    Minimum 0 at the centre of the bounds.
    """

    discrete_fitness = False

    def __init__(self, bounds=None):
        self.bounds = bounds if bounds is not None else DEFAULT_BOUNDS

    def fitness(self, position: np.ndarray, pattern: ActuationPattern, seed: int = 0) -> float:
        x = np.asarray(position, dtype=float)
        scaled = 2.0 * (x - self.bounds.lower) / self.bounds.range - 1.0
        return float(np.dot(scaled, scaled))


class ConstantPlant:
    """Every pattern scores the same value; degenerate classification case."""

    discrete_fitness = True

    def __init__(self, value: float = 1.0):
        self.value = value

    def fitness(self, position, pattern: ActuationPattern, seed: int = 0) -> float:
        return self.value
