"""Swarm optimizers over the 60-dimensional actuation space.

Two engines share one update kernel: the elitism variant classifies
particles each generation as good / fair / bad from the fitness spread,
gives each class its own velocity rule, and relocates persistently bad
particles next to the global best with a decaying Gaussian mutation; the
standard engine treats every particle as fair and never mutates.

Classification thresholds use additive spread around the population mean so
that negative fitness values (the normal regime here, since improvements are
negative) behave the same as positive ones.

A plant provides ``fitness(position, pattern, seed)``, bit-reproducible for
identical inputs.  A plant that also provides ``fitness_batch(positions,
heights, actives, seeds)`` gets each generation's block in one call instead,
with the same bits per row.  ``discrete_fitness`` (default True) declares
that fitness depends only on the decoded pattern.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .patterns import (
    N_ACTUATORS,
    N_DIMENSIONS,
    ActuationPattern,
    PositionBounds,
    decode_positions,
    pattern_to_position,
    round_half_away,
)


class EvaluationError(RuntimeError):
    """Plant evaluation failed; carries run/iteration context."""

    def __init__(self, message: str, run_index: int | None = None, iteration: int | None = None):
        super().__init__(message)
        self.run_index = run_index
        self.iteration = iteration


class ParticleClass(enum.IntEnum):
    GOOD = 0
    FAIR = 1
    BAD = 2


@dataclass(frozen=True)
class SwarmConfig:
    """Optimizer settings; defaults follow the reference campaign setup."""

    population: int = 35
    iterations: int = 1000
    inertia_start: float = 0.9
    inertia_end: float = 0.4
    cognitive: float = 2.0
    social: float = 2.0
    class_spread: float = 0.5
    patience: int = 1
    mutation_scale_start: float = 0.45
    mutation_scale_end: float = 0.2
    velocity_limit: float = 0.15  # max |v| as a fraction of each coordinate range
    bounds: PositionBounds = field(default_factory=PositionBounds)
    seed: int = 0
    independent_runs: int = 5
    algorithm: str = "pso-tpme"
    memoize: bool = False

    def __post_init__(self) -> None:
        if self.population < 3:
            raise ValueError("population must be at least 3")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not (0.0 < self.class_spread < 1.0):
            raise ValueError("class_spread must be in (0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.mutation_scale_end > self.mutation_scale_start:
            raise ValueError("mutation scale schedule must be non-increasing")
        if self.mutation_scale_end <= 0:
            raise ValueError("mutation scale must stay positive")
        if self.velocity_limit <= 0:
            raise ValueError("velocity_limit must be positive")
        if self.algorithm not in ("pso-tpme", "standard-pso"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


def inertia_weight(config: SwarmConfig, iteration: int) -> float:
    """Linearly decayed inertia, iteration 1..IT."""
    if config.iterations == 1:
        return config.inertia_start
    frac = (iteration - 1) / (config.iterations - 1)
    return config.inertia_start + frac * (config.inertia_end - config.inertia_start)


def discretization_steps(bounds: PositionBounds) -> np.ndarray:
    """Width of one rounding basin per coordinate (range / number of levels)."""
    n_levels = round_half_away(bounds.upper) - round_half_away(bounds.lower) + 1
    return bounds.range / n_levels


def mutation_scale(config: SwarmConfig, iteration: int) -> np.ndarray:
    """Per-coordinate mutation std dev, geometrically decayed.

    Scaled by each coordinate's rounding-basin width so that height levels
    and binary jet flags see comparable flip rates.  The geometric decay
    spends comparable iteration counts in each scale decade, which matters
    when the end scale is orders of magnitude below the start.
    """
    if config.iterations == 1:
        frac = config.mutation_scale_start
    else:
        t = (iteration - 1) / (config.iterations - 1)
        ratio = config.mutation_scale_end / config.mutation_scale_start
        frac = config.mutation_scale_start * ratio**t
    return frac * discretization_steps(config.bounds)


def classify(fitnesses: np.ndarray, spread: float) -> np.ndarray:
    """Label each particle good / fair / bad from the fitness spread.

    With mean mu, best f_b = min and worst f_w = max (minimization):
    good if f < mu - spread*(mu - f_b); bad if f > mu + spread*(f_w - mu);
    fair otherwise.  A zero-spread population is all fair.
    """
    f = np.asarray(fitnesses, dtype=float)
    if f.size < 3:
        raise ValueError("need at least 3 fitness values")
    if not np.all(np.isfinite(f)):
        raise ValueError("fitness values must be finite")
    if f.max() == f.min():
        # Degenerate population; the mean can drift a ulp off the common
        # value, which would otherwise misclassify everyone.
        return np.full(f.shape, ParticleClass.FAIR, dtype=np.int8)
    mu = f.mean()
    good_cut = mu - spread * (mu - f.min())
    bad_cut = mu + spread * (f.max() - mu)
    labels = np.full(f.shape, ParticleClass.FAIR, dtype=np.int8)
    labels[f < good_cut] = ParticleClass.GOOD
    labels[f > bad_cut] = ParticleClass.BAD
    return labels


def velocity_rule(
    labels: np.ndarray,
    positions: np.ndarray,
    velocities: np.ndarray,
    pbest_positions: np.ndarray,
    gbest_position: np.ndarray,
    w: float,
    c1: float,
    c2: float,
    r1: np.ndarray,
    r2: np.ndarray,
) -> np.ndarray:
    """Per-class velocity update (vectorized over particles).

    good : w*v + c1*r1*(pbest - x)            (local exploitation only)
    fair : w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x)
    bad  : w*v + 2*c2*r2*(gbest - x)          (strong pull toward the elite)
    """
    cognitive = c1 * r1 * (pbest_positions - positions)
    social = c2 * r2 * (gbest_position[None, :] - positions)
    lab = np.asarray(labels)[:, None]
    v = w * velocities
    v = v + np.where(lab == ParticleClass.BAD, 2.0 * social, cognitive)
    v = v + np.where(lab == ParticleClass.FAIR, social, 0.0)
    return v


def clamp_velocity(velocities: np.ndarray, bounds: PositionBounds, limit: float) -> np.ndarray:
    """Cap per-coordinate speed at a fraction of the coordinate range.

    Standard PSO velocity clamping; keeps the early swarm from ricocheting
    between the position bounds.
    """
    vmax = limit * bounds.range
    return np.clip(velocities, -vmax, vmax)


def move_and_clamp(
    positions: np.ndarray,
    velocities: np.ndarray,
    bounds: PositionBounds,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance positions, clamp to bounds, zero velocity on clamped coords."""
    moved = positions + velocities
    clamped = np.clip(moved, bounds.lower, bounds.upper)
    v = np.where(moved == clamped, velocities, 0.0)
    return clamped, v


def mutate_elitism(
    positions: np.ndarray,
    velocities: np.ndarray,
    overdue: np.ndarray,
    center: np.ndarray,
    sigma: np.ndarray,
    bounds: PositionBounds,
    rng: np.random.Generator,
) -> None:
    """Relocate the overdue (persistently bad) particles next to the elite, in place.

    Each row selected by the boolean mask ``overdue`` is resampled around
    ``center`` with per-coordinate Gaussian scale ``sigma`` and clamped to
    bounds, and its velocity resets to zero; other rows are untouched.  The
    k overdue rows draw one (k, 60) block, which equals k sequential
    60-draws in the stream.  Personal bests are not touched.
    """
    rows = np.flatnonzero(overdue)
    noise = rng.standard_normal((len(rows), N_DIMENSIONS))
    positions[rows] = np.clip(center + noise * sigma, bounds.lower, bounds.upper)
    velocities[rows] = 0.0


@dataclass
class EvaluationLedger:
    """Flat record of every plant evaluation in one run."""

    iteration: np.ndarray
    particle: np.ndarray
    heights: np.ndarray  # (n, 30) int8
    actives: np.ndarray  # (n, 30) int8
    fitness: np.ndarray
    label: np.ndarray

    def __len__(self) -> int:
        return len(self.fitness)

    def pattern(self, i: int) -> ActuationPattern:
        return ActuationPattern(
            heights=tuple(int(v) for v in self.heights[i]),
            actives=tuple(int(v) for v in self.actives[i]),
        )


@dataclass
class LearningCurve:
    """Best-so-far trajectory and evaluation ledger of one optimization run."""

    best_so_far: np.ndarray
    best_iteration: int
    best_fitness: float
    best_pattern: ActuationPattern
    ledger: EvaluationLedger


@dataclass
class CampaignResult:
    """Several independent runs plus their pointwise envelope."""

    curves: list[LearningCurve]
    envelope_min: np.ndarray
    envelope_max: np.ndarray
    best_run_index: int
    config: SwarmConfig


class Swarm:
    """Array-of-particles state owned by a single optimization run."""

    def __init__(self, config: SwarmConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        p, d = config.population, N_DIMENSIONS
        lo, hi = config.bounds.lower, config.bounds.upper
        self.positions = lo + rng.random((p, d)) * (hi - lo)
        self.velocities = (rng.random((p, d)) * 2.0 - 1.0) * 0.1 * (hi - lo)
        self.pbest_positions = self.positions.copy()
        self.pbest_fitness = np.full(p, np.inf)
        self.bad_streaks = np.zeros(p, dtype=np.int64)
        self.gbest_position = self.positions[0].copy()
        self.gbest_fitness = np.inf
        self.gbest_pattern: ActuationPattern | None = None
        self.gbest_iteration = 0


def _evaluate_all(
    plant,
    positions: np.ndarray,
    config: SwarmConfig,
    eval_seeds: np.ndarray,
    cache: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode and evaluate a position block; returns (fitness, heights, actives).

    Jets at zero height are suppressed before the plant sees the command; the
    returned arrays are the raw decoded patterns.
    """
    heights, actives = decode_positions(positions, config.bounds)
    eff_actives = actives * (heights > 0)
    n = positions.shape[0]
    fitness = np.empty(n)
    todo = list(range(n))
    if cache is not None:
        todo = []
        for i in range(n):
            key = (heights[i].tobytes(), eff_actives[i].tobytes())
            hit = cache.get(key)
            if hit is None:
                todo.append(i)
            else:
                fitness[i] = hit
    if todo:
        if hasattr(plant, "fitness_batch"):
            idx = np.asarray(todo)
            fitness[idx] = plant.fitness_batch(
                positions[idx], heights[idx], eff_actives[idx], eval_seeds[idx]
            )
        else:
            for i in todo:
                pattern = ActuationPattern(
                    heights=tuple(int(v) for v in heights[i]),
                    actives=tuple(int(v) for v in eff_actives[i]),
                )
                fitness[i] = plant.fitness(positions[i], pattern, int(eval_seeds[i]))
        if cache is not None:
            for i in todo:
                key = (heights[i].tobytes(), eff_actives[i].tobytes())
                cache[key] = float(fitness[i])
    return fitness, heights, actives


def step(swarm: Swarm, plant, config: SwarmConfig, iteration: int,
         eval_seed_base: int = 0, cache: dict | None = None):
    """One generation: evaluate, update bests, classify, move/mutate.

    Returns (fitness, heights, actives, labels) for ledger recording.  The
    global best fitness never increases.
    """
    p = config.population
    seeds = eval_seed_base + iteration * p + np.arange(p)
    try:
        fitness, heights, actives = _evaluate_all(plant, swarm.positions, config, seeds, cache)
    except EvaluationError:
        raise
    except Exception as exc:  # surface the cause with iteration context
        raise EvaluationError(f"plant evaluation failed at iteration {iteration}: {exc}",
                              iteration=iteration) from exc
    improved = fitness < swarm.pbest_fitness
    swarm.pbest_fitness = np.where(improved, fitness, swarm.pbest_fitness)
    swarm.pbest_positions[improved] = swarm.positions[improved]
    best = int(np.argmin(fitness))
    if fitness[best] < swarm.gbest_fitness:
        swarm.gbest_fitness = float(fitness[best])
        swarm.gbest_position = swarm.positions[best].copy()
        swarm.gbest_pattern = ActuationPattern(
            heights=tuple(int(v) for v in heights[best]),
            actives=tuple(int(v) for v in actives[best]),
        )
        swarm.gbest_iteration = iteration

    if config.algorithm == "pso-tpme":
        labels = classify(fitness, config.class_spread)
        swarm.bad_streaks = np.where(labels == ParticleClass.BAD, swarm.bad_streaks + 1, 0)
        overdue = swarm.bad_streaks >= config.patience
    else:
        labels = np.full(p, ParticleClass.FAIR, dtype=np.int8)
        swarm.bad_streaks[:] = 0
        overdue = np.zeros(p, dtype=bool)

    r1 = swarm.rng.random((p, N_DIMENSIONS))
    r2 = swarm.rng.random((p, N_DIMENSIONS))
    w = inertia_weight(config, iteration)
    v = velocity_rule(labels, swarm.positions, swarm.velocities,
                      swarm.pbest_positions, swarm.gbest_position,
                      w, config.cognitive, config.social, r1, r2)
    v = clamp_velocity(v, config.bounds, config.velocity_limit)
    new_pos, new_v = move_and_clamp(swarm.positions, v, config.bounds)
    if overdue.any():
        sigma = mutation_scale(config, iteration)
        # For plants whose fitness is constant over each rounding basin,
        # mutate around the canonical (integer) embedding of the best pattern
        # so every coordinate sits at its basin centre; otherwise coordinates
        # parked near basin edges or bounds put neighbouring levels many
        # sigmas away and the elitism step stops finding single-level moves.
        # Continuous plants keep the raw best position.
        if getattr(plant, "discrete_fitness", True) and swarm.gbest_pattern is not None:
            center = pattern_to_position(swarm.gbest_pattern)
        else:
            center = swarm.gbest_position
        mutate_elitism(new_pos, new_v, overdue, center, sigma, config.bounds, swarm.rng)
        swarm.bad_streaks[overdue] = 0
    swarm.positions = new_pos
    swarm.velocities = new_v
    return fitness, heights, actives, labels


def run(plant, config: SwarmConfig, run_seed: np.random.SeedSequence | int,
        run_index: int | None = None) -> LearningCurve:
    """One full optimization from a dedicated seed; records the ledger."""
    rng = np.random.default_rng(run_seed)
    eval_seed_base = int(rng.integers(0, 2**48))
    swarm = Swarm(config, rng)
    cache: dict | None = {} if config.memoize else None
    p, it = config.population, config.iterations
    best_so_far = np.empty(it)
    led_heights = np.empty((it * p, N_ACTUATORS), dtype=np.int8)
    led_actives = np.empty((it * p, N_ACTUATORS), dtype=np.int8)
    led_fitness = np.empty(it * p)
    led_labels = np.empty(it * p, dtype=np.int8)
    for t in range(1, it + 1):
        try:
            fitness, heights, actives, labels = step(
                swarm, plant, config, t, eval_seed_base, cache)
        except EvaluationError as exc:
            exc.run_index = run_index
            raise
        lo = (t - 1) * p
        led_heights[lo:lo + p] = heights
        led_actives[lo:lo + p] = actives
        led_fitness[lo:lo + p] = fitness
        led_labels[lo:lo + p] = labels
        best_so_far[t - 1] = swarm.gbest_fitness
    ledger = EvaluationLedger(
        iteration=np.repeat(np.arange(1, it + 1), p),
        particle=np.tile(np.arange(p), it),
        heights=led_heights,
        actives=led_actives,
        fitness=led_fitness,
        label=led_labels,
    )
    assert swarm.gbest_pattern is not None
    return LearningCurve(
        best_so_far=best_so_far,
        best_iteration=swarm.gbest_iteration,
        best_fitness=float(swarm.gbest_fitness),
        best_pattern=swarm.gbest_pattern,
        ledger=ledger,
    )


def run_campaign(config: SwarmConfig, plant) -> CampaignResult:
    """Independent runs from counter-derived sub-seeds, plus their envelope."""
    master = np.random.SeedSequence(config.seed)
    children = master.spawn(config.independent_runs)
    curves = []
    for k, child in enumerate(children):
        try:
            curves.append(run(plant, config, child, run_index=k))
        except EvaluationError as exc:
            raise EvaluationError(f"run {k}: {exc}", run_index=k, iteration=exc.iteration) from exc
    stack = np.stack([c.best_so_far for c in curves])
    finals = np.array([c.best_fitness for c in curves])
    best_final = finals.min()
    tied = np.flatnonzero(finals == best_final)
    best_run = int(tied[np.argmin([curves[i].best_iteration for i in tied])])
    return CampaignResult(
        curves=curves,
        envelope_min=stack.min(axis=0),
        envelope_max=stack.max(axis=0),
        best_run_index=best_run,
        config=config,
    )
