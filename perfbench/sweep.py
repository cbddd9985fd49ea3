"""sweep: large-batch kernel work on the noiseless plant.

``oracle_optimum`` (enumerates 100,000 per-column states) followed by 10^6
random commands through ``SurrogatePlant.fitness_batch`` in 10^5-row chunks,
as in acceptance criterion 4.  Loads the vectorised field synthesis
(``_column_scores``, ``_tap_cp``) at large batch sizes and bypasses the
optimizer, noise, the protocol and file I/O, so a kernel change shows here
and an overhead change shows in ``campaign``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace

import numpy as np

from common import (ORACLE_BYTES, ORACLE_JA_STAR, Context, Rep, Workload, batch_done,
                    setup_probe)
from tracing import Recorder, counter

COMMANDS = 1_000_000
CHUNK = 100_000
# fitness_batch results may differ by a few ulps with batch composition, so
# the oracle comparison allows far more than that and nothing a real
# regression would hide in.
TOL = 1e-12


class Sweep(Workload):
    def __init__(self, seed: int, ctx: Context):
        from rampopt.plant import SurrogatePlant, default_surrogate_config

        self.ctx = ctx
        self.seed = seed
        self.config = replace(default_surrogate_config(), noise_std=0.0)
        self.plant = SurrogatePlant(self.config)
        self.plant.baseline_ja()
        self.seeds = np.zeros(CHUNK, dtype=np.int64)

    def setup(self, trials: int) -> list[float]:
        return [setup_probe(self.ctx, noise=False) for _ in range(trials)]

    def rep(self, rec: Recorder) -> Rep:
        import rampopt.plant as plant_mod

        rec.instrument(plant_mod, "oracle_optimum", ("plant.oracle", "plant"),
                       observe=counter("plant.bytes_computed", lambda a, res: ORACLE_BYTES))
        rec.instrument(plant_mod.SurrogatePlant, "fitness_batch", ("plant.batch", "plant"),
                       probe="eval", observe=batch_done)
        generation = rec.samples["generation"]
        # Each chunk of commands is drawn just before it is evaluated, so only
        # one is held and peak_rss_mb shows the plant's own temporaries; the
        # results are kept as a running digest and minimum.
        rng = np.random.default_rng(self.seed)
        digest = hashlib.sha256()
        best = np.inf
        finite = True
        try:
            with rec.section("bench.rep", "bench") as timed:
                pattern, optimum = plant_mod.oracle_optimum(self.config)
                for _ in range(COMMANDS // CHUNK):
                    with rec.section("bench.inputs", "inputs"):
                        heights = rng.integers(0, 5, size=(CHUNK, 30), dtype=np.int8)
                        actives = rng.integers(0, 2, size=(CHUNK, 30), dtype=np.int8)
                    g0 = time.perf_counter()
                    values = self.plant.fitness_batch(None, heights, actives, self.seeds)
                    generation.append(time.perf_counter() - g0)
                    digest.update(values.tobytes())
                    best = min(best, float(values.min()))
                    finite = finite and bool(np.isfinite(values).all())
        finally:
            rec.restore()

        digest.update(f"{optimum!r} {pattern.to_text()}".encode())
        rep = Rep(rec=rec, wall_s=timed.seconds, generation_evals=CHUNK,
                  digest=digest.hexdigest(), ops=1 + COMMANDS // CHUNK)
        rep.check("oracle J_a* is -1.283125", abs(optimum - ORACLE_JA_STAR) <= TOL, repr(optimum))
        rep.check("oracle <= minimum of the 10^6 samples", optimum <= best + TOL,
                  f"oracle {optimum!r}, sample minimum {best!r}")
        rep.check("every sample finite", finite)
        return rep
