"""campaign: the reference pipeline a user runs, through ``rampopt.cli.main``.

parametric (the 120-case study), optimize --oracle (pso-tpme, 35 particles x
1000 iterations x 5 runs on the default noisy surrogate) and analyze (re-reads
the ledger), as in scripts/run_full_campaign.py.  Loads the optimizer,
``SurrogatePlant.fitness_batch`` at batch size 35 with per-row seeded noise,
the CLI's artifact I/O and ``classical_mds`` on about 2000 ledger points.
Bypasses the protocol and large batches.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil

from common import (ORACLE_BYTES, ORACLE_JA_STAR, Context, Rep, Workload, batch_done,
                    campaign_done, repeat_fraction, row_bytes, setup_probe, sha256_files)
from tracing import Recorder, counter

RUNS, ITERATIONS, PARTICLES = 5, 1000, 35
REFERENCE = ["--runs", str(RUNS), "--iterations", str(ITERATIONS), "--particles", str(PARTICLES)]
EVALS = RUNS * ITERATIONS * PARTICLES
# best_cases.txt marker -> (case id, J_a*) of the calibrated study
ANCHORS = {
    "best_passive_only": ("r2-3_l4p", -0.43),
    "best_passive_plus_active": ("r1-2_l1a", -0.91),
}
FINAL_BAND = (-1.527, -1.163)  # the reported [-1.477, -1.213] band +- 0.05
TOL = 1e-9


def _without_timestamps(path, data: bytes) -> bytes:
    if path.name != "manifest.json":
        return data
    manifest = json.loads(data)
    manifest.pop("started_at", None)
    manifest.pop("finished_at", None)
    return json.dumps(manifest, sort_keys=True).encode()


class Campaign(Workload):
    def __init__(self, seed: int, ctx: Context):
        self.seed = seed
        self.ctx = ctx
        self.out = ctx.work / "campaign"

    def setup(self, trials: int) -> list[float]:
        return [setup_probe(self.ctx, noise=True) for _ in range(trials)]

    def rep(self, rec: Recorder) -> Rep:
        import rampopt.cli as cli
        import rampopt.optimizer as optimizer
        from rampopt.plant import SurrogatePlant

        shutil.rmtree(self.out, ignore_errors=True)
        seed = str(self.seed)
        par, camp, ana = (str(self.out / d) for d in ("parametric", "campaign", "analysis"))
        commands = [
            ("cli.parametric", ["parametric", "--out", par, "--seed", seed]),
            ("cli.optimize", ["optimize", "--out", camp, "--seed", seed, *REFERENCE, "--oracle"]),
            ("cli.analyze", ["analyze", "--run-dir", camp, "--out", ana]),
        ]

        rec.instrument(cli, "run_campaign", ("optimizer.run_campaign", "optimizer"),
                       observe=campaign_done)
        rec.instrument(optimizer, "step", ("optimizer.step", "optimizer"), probe="generation")
        rec.instrument(optimizer, "decode_positions", ("patterns.decode", "patterns"))
        rec.instrument(SurrogatePlant, "fitness_batch", ("plant.batch", "plant"), probe="eval",
                       observe=batch_done)
        if rec.traced:
            rec.instrument(SurrogatePlant, "fitness", ("plant.single", "plant"),
                           observe=counter("plant.bytes_computed", lambda a, res: row_bytes(a[0])))
            rec.instrument(cli, "run_study", ("parametric.study", "parametric"),
                           observe=counter("parametric.cases", lambda a, res: len(res.cases)))
            rec.instrument(cli, "oracle_optimum", ("plant.oracle", "plant"),
                           observe=counter("plant.bytes_computed", lambda a, res: ORACLE_BYTES))
            rec.instrument(cli, "classical_mds", ("analysis.mds", "analysis"),
                           observe=counter("analysis.mds_points",
                                           lambda a, res: len(res.coordinates)))
            rec.instrument(cli, "learning_envelope", ("analysis.envelope", "analysis"))

        rcs = []
        try:
            with (contextlib.redirect_stdout(io.StringIO()),
                  rec.section("bench.rep", "bench") as timed):
                for name, argv in commands:
                    with rec.section(name, "cli"):
                        rcs.append(cli.main(argv))
        finally:
            rec.restore()

        rep = Rep(rec=rec, wall_s=timed.seconds, generation_evals=PARTICLES, digest="",
                  ops=len(rcs), failed_ops=sum(rc != 0 for rc in rcs))
        try:
            self._check(rep)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            rep.check("campaign artifacts readable", False, repr(exc))
        rep.digest = sha256_files(self.out, _without_timestamps)
        if rec.traced:
            rep.layer["optimizer.repeat_eval_frac"] = repeat_fraction(
                [c for res in rec.kept["campaigns"] for c in res.curves])
            rep.layer["cli.bytes_written"] = sum(
                p.stat().st_size for p in self.out.rglob("*") if p.is_file())
        return rep

    def _check(self, rep: Rep) -> None:
        par, camp, ana = (self.out / d for d in ("parametric", "campaign", "analysis"))
        with (par / "study.csv").open() as fh:
            cases = list(csv.DictReader(fh))
        rep.check("parametric: 120 cases", len(cases) == 120, f"{len(cases)} cases")
        markers = dict(line.split(maxsplit=1)
                       for line in (par / "best_cases.txt").read_text().splitlines())
        for marker, (case_id, target) in ANCHORS.items():
            got_id, got = markers[marker].split()
            rep.check(f"parametric: {marker} is {case_id} at {target}",
                      got_id == case_id and abs(float(got) - target) <= TOL,
                      f"{got_id} {got}")

        finals = []
        for k in range(5):
            lines = (camp / f"run{k}_best_pattern.txt").read_text().splitlines()
            finals.append(float(dict(line.split(maxsplit=1) for line in lines)["fitness"]))
        lo, hi = FINAL_BAND
        rep.check("optimize: every final J_a* in band", all(lo <= f <= hi for f in finals),
                  f"{finals}")
        oracle = float((camp / "oracle.txt").read_text().split("oracle_ja_star")[1].split()[0])
        rep.check("optimize: oracle J_a*", abs(oracle - ORACLE_JA_STAR) <= TOL, repr(oracle))
        with (camp / "ledger.csv").open() as fh:
            ledger_rows = sum(1 for _ in fh) - 1
        rep.check("optimize: ledger rows", ledger_rows == EVALS, str(ledger_rows))
        evals = rep.rec.counts["optimizer.evals"]
        rep.check("optimize: evaluations observed", evals == EVALS, str(evals))
        if rep.rec.traced:
            rep.layer["cli.ledger_rows"] = ledger_rows

        rep.check("analyze: envelope equals the campaign's",
                  (ana / "envelope.csv").read_bytes() == (camp / "envelope.csv").read_bytes())
        with (ana / "embedding.csv").open() as fh:
            points = sum(1 for _ in fh) - 1
        rep.check("analyze: embedding of about 2000 points", 1000 <= points <= 2000, str(points))
