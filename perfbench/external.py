"""external: a closed loop with one client over the wire protocol.

A pso-tpme campaign (35 particles x 100 iterations x 1 run per repetition)
drives ``ExternalPlant`` against ``PlantServer`` + ``surrogate_responder``
served from its own process (serve.py) over loopback TCP, one connection at
a time, strictly one request in flight.  This is the lab-hardware path: the protocol
text codec and socket round trips, plus the single-evaluation path of the
plant and patterns.  Bypasses fitness_batch, batched noise and CSV I/O.  The
served surrogate is noiseless, so every client J_a* can be checked exactly.
"""

from __future__ import annotations

import hashlib
import json
import select
import subprocess
import sys
import time
from dataclasses import replace

from common import (HERE, ORACLE_JA_STAR, ROW_BYTES, Context, Rep, Workload, campaign_done,
                    repeat_fraction)
from tracing import Recorder, counter

POPULATION, ITERATIONS = 35, 100
TOL = 1e-12
START_TIMEOUT_S = 60


class External(Workload):
    def __init__(self, seed: int, ctx: Context):
        from rampopt.optimizer import SwarmConfig
        from rampopt.plant import SurrogatePlant, default_surrogate_config

        self.ctx = ctx
        self.config = SwarmConfig(population=POPULATION, iterations=ITERATIONS,
                                  independent_runs=1, seed=seed)
        self.reference = SurrogatePlant(replace(default_surrogate_config(), noise_std=0.0))
        self.proc = None
        self.port = 0
        self.traced = False
        self.sent = 0  # requests sent to the current server
        self.eval_requests: list[range] = []  # their indices that were campaign evaluations
        # (traced, requests sent, evaluation request indices, server stats) per server
        self.finished: list[tuple[bool, int, list[range], dict]] = []

    # -- server lifetime -------------------------------------------------------

    def _connect(self):
        from rampopt.protocol import ExternalPlant

        client = ExternalPlant("127.0.0.1", self.port)
        try:
            client.baseline_ja()
        except BaseException:
            client.close()
            raise
        self.sent += 1
        return client

    def _start(self, traced: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), "--trace", "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.ctx.env)
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            self._stop()
            raise RuntimeError(f"plant server did not start: {line!r}")
        self.traced = traced
        self.port = int(line.split()[1])
        self.sent = 0
        self.eval_requests = []
        self._connect().close()

    def _stop(self) -> None:
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        finally:
            self.proc = None
        lines = out.strip().splitlines()
        stats = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        self.finished.append((self.traced, self.sent, self.eval_requests, stats))

    # PlantServer drops a connection that stays idle for more than 0.2 s (its
    # reader times out and is never read again), so each repetition opens its
    # own connection, and its baseline EVAL, just before the timed section.

    def setup(self, trials: int) -> list[float]:
        """Server start (its import, plant and baseline), connect, baseline EVAL."""
        times = []
        for _ in range(trials):
            if self.proc is not None:
                self._stop()
            t0 = time.perf_counter()
            self._start(traced=False)
            times.append(time.perf_counter() - t0)
        return times

    def prepare(self, traced: bool) -> None:
        if traced != self.traced:
            self._stop()
            self._start(traced)

    def close(self) -> None:
        if self.proc is not None:
            self._stop()

    # -- one repetition ----------------------------------------------------------

    def _failed(self, rec: Recorder, wall_s: float, exc: Exception) -> Rep:
        """A repetition cut short by an ERR reply, a stall or a dropped
        connection; the run goes on and reports it as a failure."""
        done = len(rec.samples["eval"])
        self.sent += done + 1
        rep = Rep(rec=rec, wall_s=wall_s, generation_evals=POPULATION,
                  digest=f"failed: {exc}", ops=done + 1, failed_ops=1)
        rep.check("campaign over the protocol completes", False, repr(exc))
        return rep

    def rep(self, rec: Recorder) -> Rep:
        import rampopt.optimizer as optimizer
        import rampopt.protocol as protocol

        try:
            client = self._connect()
        except protocol.ProtocolError as exc:
            return self._failed(rec, 0.0, exc)
        rec.instrument(optimizer, "run_campaign", ("optimizer.run_campaign", "optimizer"),
                       observe=campaign_done)
        rec.instrument(optimizer, "step", ("optimizer.step", "optimizer"), probe="generation")
        rec.instrument(optimizer, "decode_positions", ("patterns.decode", "patterns"))
        rec.instrument(protocol.ExternalPlant, "fitness", ("protocol.fitness", "protocol"),
                       probe="eval")
        if rec.traced:
            rec.instrument(protocol, "encode_request",
                           observe=counter("protocol.bytes_sent", lambda a, res: len(res)))
            rec.instrument(protocol, "decode_response",
                           observe=counter("protocol.bytes_received", lambda a, res: len(a[0])))
        try:
            with rec.section("bench.rep", "bench") as timed:
                result = optimizer.run_campaign(self.config, client)
        except (optimizer.EvaluationError, protocol.ProtocolError) as exc:
            return self._failed(rec, timed.seconds, exc)
        finally:
            rec.restore()
            client.close()

        led = result.curves[0].ledger
        evals = len(led)
        self.eval_requests.append(range(self.sent, self.sent + evals))
        self.sent += evals
        digest = hashlib.sha256()
        for arr in (led.heights, led.actives, led.fitness):
            digest.update(arr.tobytes())
        rep = Rep(rec=rec, wall_s=timed.seconds, generation_evals=POPULATION,
                  digest=digest.hexdigest(), ops=evals)
        rep.check("evaluations", evals == POPULATION * ITERATIONS, str(evals))
        worst = max(abs(self.reference.fitness(None, led.pattern(i)) - led.fitness[i])
                    for i in range(evals))
        rep.check("client J_a* equals in-process fitness", worst <= TOL, f"max diff {worst!r}")
        final = result.curves[0].best_fitness
        rep.check("final J_a* not below the oracle", final >= ORACLE_JA_STAR - TOL, repr(final))
        if rec.traced:
            rep.layer["optimizer.repeat_eval_frac"] = repeat_fraction(result.curves)
        return rep

    def finish(self, traced_reps: list[Rep]) -> tuple[list[tuple[str, bool, str]], dict]:
        """Checks on the servers' own counts, and the server-side per-layer values
        (per traced repetition).  Call after ``close``."""
        checks = []
        for _, sent, _, stats in self.finished:
            checks.append(("server reported its counts", bool(stats), ""))
            if stats:
                checks.append(("server sent zero ERR records", stats["errors"] == 0,
                               str(stats["errors"])))
                checks.append(("server saw every request", stats["requests"] == sent,
                               f"{stats['requests']} of {sent}"))
        served = [(idx, s) for traced, _, idx, s in self.finished if traced and s]
        if not (traced_reps and served):
            return checks, {}
        n = len(traced_reps)
        evals, stats = served[-1]
        server_s = sum(stats["server_s"][i] for r in evals for i in r)
        plant_s = sum(stats["plant_s"][i] for r in evals for i in r)
        single_calls = sum(len(r) for r in evals)
        round_trip = sum(sum(r.rec.samples["eval"]) for r in traced_reps)
        checks.append(("server time within client round trips", server_s <= round_trip,
                       f"{server_s!r} <= {round_trip!r}"))
        checks.append(("plant time within server time", plant_s <= server_s,
                       f"{plant_s!r} <= {server_s!r}"))
        return checks, {
            "protocol.errors": stats["errors"] / n,
            "protocol.server_s": server_s / n,
            "protocol.wire_s": (round_trip - server_s) / n,
            "plant.single_calls": single_calls / n,
            "plant.single_s": plant_s / n,
            "plant.bytes_computed": single_calls * ROW_BYTES / n,
        }
