"""Server process of the ``external`` workload.

Serves a noiseless SurrogatePlant through ``PlantServer`` +
``surrogate_responder`` on a loopback port, prints ``READY <port>``, and runs
until its standard input closes.  It then prints one JSON line: the number of
requests and ERR replies and, with ``--trace 1``, the responder time and the
plant's ``evaluate`` time of every request, in seconds.

Usage: python3 perfbench/serve.py --trace {0,1}   (PYTHONPATH=src)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from rampopt.plant import SurrogatePlant, default_surrogate_config
from rampopt.protocol import PlantServer, surrogate_responder


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    plant = SurrogatePlant(replace(default_surrogate_config(), noise_std=0.0))
    plant.baseline_ja()
    stats = {"requests": 0, "errors": 0, "server_s": [], "plant_s": []}

    if args.trace:
        evaluate = plant.evaluate

        def timed_evaluate(*a, **k):
            t0 = time.perf_counter()
            try:
                return evaluate(*a, **k)
            finally:
                stats["plant_s"].append(time.perf_counter() - t0)

        plant.evaluate = timed_evaluate

    inner = surrogate_responder(plant)

    def respond(pattern):
        stats["requests"] += 1
        t0 = time.perf_counter()
        try:
            return inner(pattern)
        except Exception:
            stats["errors"] += 1
            raise
        finally:
            if args.trace:
                stats["server_s"].append(time.perf_counter() - t0)

    server = PlantServer(respond, host="127.0.0.1", port=0).start()
    try:
        print(f"READY {server.port}", flush=True)
        sys.stdin.read()
    finally:
        server.stop()
    print(json.dumps(stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
