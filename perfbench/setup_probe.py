"""Print the seconds a fresh interpreter needs to import rampopt, build a
SurrogatePlant and compute its lazy baseline_ja.

Usage: python3 perfbench/setup_probe.py --noise {0,1}   (PYTHONPATH=src)
"""

import time

t0 = time.perf_counter()

import argparse  # noqa: E402
from dataclasses import replace  # noqa: E402

from rampopt.plant import SurrogatePlant, default_surrogate_config  # noqa: E402

parser = argparse.ArgumentParser()
parser.add_argument("--noise", type=int, choices=(0, 1), required=True)
args = parser.parse_args()
config = default_surrogate_config()
if not args.noise:
    config = replace(config, noise_std=0.0)
SurrogatePlant(config).baseline_ja()
print(repr(time.perf_counter() - t0))
