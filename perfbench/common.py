"""Pieces shared by the three workloads."""

from __future__ import annotations

import hashlib
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Recorder

HERE = Path(__file__).resolve().parent

# Computed, not measured: bytes of the arrays one evaluated row touches in
# the field synthesis -- int64 heights and actives (2 x 30 x 8), the Cp field
# and the pressure field (2 x 42 x 8), the J_a* result (8), plus the tap
# noise (42 x 8) when the plant is noisy.  Cache traffic is ignored.
ROW_BYTES = 2 * 30 * 8 + 2 * 42 * 8 + 8
NOISE_ROW_BYTES = 42 * 8
# The oracle scores 100,000 column states of 5 heights and 5 jet flags.
ORACLE_BYTES = 100_000 * (10 * 8 + 8)

ORACLE_JA_STAR = -1.283125


def row_bytes(plant) -> int:
    return ROW_BYTES + (NOISE_ROW_BYTES if plant.config.noise_std > 0 else 0)


def batch_done(rec: Recorder, args, result) -> None:
    """Observer for ``SurrogatePlant.fitness_batch(self, positions, heights, ...)``."""
    rec.counts["plant.batch_rows"] += len(result)
    rec.counts["plant.bytes_computed"] += row_bytes(args[0]) * len(result)


def repeat_fraction(curves) -> float:
    """Share of ledger evaluations whose effective pattern (jets suppressed
    at zero height) was already evaluated earlier in the same run."""
    repeats = total = 0
    for curve in curves:
        led = curve.ledger
        eff = np.concatenate([led.heights, led.actives * (led.heights > 0)], axis=1)
        rows = np.ascontiguousarray(eff).view(np.dtype((np.void, eff.shape[1])))
        repeats += len(rows) - len(np.unique(rows))
        total += len(rows)
    return repeats / total


def campaign_done(rec: Recorder, args, result) -> None:
    """Observer for ``run_campaign``: counts evaluations, keeps the result."""
    rec.counts["optimizer.evals"] += sum(len(c.ledger) for c in result.curves)
    rec.kept["campaigns"].append(result)


@dataclass
class Context:
    """Where a workload may write and what its child processes inherit."""

    work: Path
    env: dict


@dataclass
class Rep:
    """One repetition of a workload's timed section."""

    rec: Recorder
    wall_s: float
    generation_evals: int  # plant evaluations per "generation" sample
    digest: str  # sha256 of the repetition's artifacts or results
    ops: int = 0
    failed_ops: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)  # per-layer values of this rep

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def sha256_files(root: Path, canonical=None) -> str:
    """Digest of every file under root (relative path and content).

    ``canonical(path, data)`` may rewrite a file's bytes first, e.g. to drop
    wall-clock timestamps.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if canonical is not None:
            data = canonical(path, data)
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def setup_probe(ctx: Context, noise: bool) -> float:
    """Set-up time measured in a fresh interpreter, so the import is cold.

    The child reports the time for ``import rampopt``, constructing a
    SurrogatePlant and computing its lazy baseline_ja.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--noise", "1" if noise else "0"]
    out = subprocess.run(cmd, env=ctx.env, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Workload:
    """A workload: ``setup`` then repeated ``rep`` calls, ``close``, ``finish``."""

    def setup(self, trials: int) -> list[float]:
        """Seconds of each of ``trials`` set-ups."""
        raise NotImplementedError

    def prepare(self, traced: bool) -> None:
        """Called before the untraced and before the traced repetitions."""

    def rep(self, rec: Recorder) -> Rep:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever the workload started."""

    def finish(self, traced_reps: list[Rep]) -> tuple[list[tuple[str, bool, str]], dict]:
        """Checks and per-layer values known only after ``close``."""
        return [], {}
