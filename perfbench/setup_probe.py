"""Set-up time of one `adaopt run` cell, measured in a fresh interpreter.

usage: python3 setup_probe.py SRC_DIR CONFIG_JSON

Times what every `adaopt run` pays before round 1: importing adaopt,
validating the config, and building its feasible set, loss stream and
Driver.  Then takes three speed calibrations in the same process, and
prints ``[seconds, [calibration seconds, ...]]`` on stdout.
"""

from time import perf_counter

t0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from adaopt import cli  # noqa: E402
from adaopt.learners import Driver  # noqa: E402

if not cli.__file__.startswith(sys.argv[1]):
    sys.exit(f"adaopt was imported from {cli.__file__}, not from {sys.argv[1]}")
cfg = cli.validate_run_config(cli._load_json(sys.argv[2]))
fs = cli.build_set(cfg["set"])
seq = cli.build_losses(cfg["losses"], fs.dim)
Driver(cfg["preset"], fs, dict(cfg["params"]), seed=cfg["seeds"][0])
seconds = perf_counter() - t0

import timing  # noqa: E402  (this script's directory leads sys.path)

print(json.dumps([seconds, [timing.calibration() for _ in range(3)]]))
