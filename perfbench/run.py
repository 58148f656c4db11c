"""Outside-in benchmark of `adaopt run`.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The adaopt sources under ``src/`` are
imported as they are; nothing is installed.  Each cell is one
``adaopt.cli.main(["run", ...])`` call on one config with one seed,
``--jobs 1``, writing into a temporary directory under ``.bench_build/``.

``--trace 0`` reports the end-to-end metrics: set-up time from fresh
interpreters, per-round wall time of the cells, throughput and peak memory.
``--trace 1`` alternates untraced and traced cells and reports the per-layer
split from the span recorder.  Every cell's outputs are checked; the last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import timing  # noqa: E402
from workloads import DEFAULT_SEED, POOL_SIZE, WORKLOADS, pool  # noqa: E402

SETUP_PROBES = 8
MIN_SAMPLES = 40          # so the tail sits at or above the 75th percentile
HARD_LIMIT_S = 150.0      # stop measuring here even with fewer samples


def import_cli(src: str):
    """adaopt.cli from the checkout's sources, never from an installed copy."""
    sys.path.insert(0, src)
    from adaopt import cli
    if not cli.__file__.startswith(src):
        raise ImportError(f"adaopt was imported from {cli.__file__}, not {src}")
    return cli


def setup_probe(src: str, cfg_path: str) -> tuple:
    """Set-up time of one fresh interpreter: (at the reference speed, raw).

    The probe calibrates itself after the set-up, because a calibration
    taken in this process could run on the other CPU."""
    out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                          src, cfg_path], capture_output=True, text=True,
                         timeout=60, check=True)
    seconds, cals = json.loads(out.stdout.strip().splitlines()[-1])
    return seconds * timing.CALIBRATION_REF_S / statistics.median(cals), seconds


class Cells:
    """Runs pool cells and checks their outputs."""

    def __init__(self, cli, workload: str, seed: int, work: str, golden=None):
        self.cli = cli
        self.workload = workload
        self.configs = pool(workload, seed)
        self.golden = golden
        if golden is not None and len(golden) != POOL_SIZE:
            raise ValueError(f"golden/{workload}.json holds {len(golden)} "
                             f"cells, the pool has {POOL_SIZE}")
        self.first = {}
        self.out = os.path.join(work, "out")
        self.paths = []
        for i, cfg in enumerate(self.configs):
            path = os.path.join(work, f"cfg-{i}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.paths.append(path)
        self.attempted = 0
        self.failed = 0

    def run(self, i: int, rec: spans.Recorder | None = None) -> float:
        """Play pool cell i, check it, and return its wall seconds."""
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        argv = ["run", "--config", self.paths[i], "--out", self.out, "--jobs", "1"]
        # start every cell with the collector state of a fresh `adaopt run`:
        # earlier garbage collected, surviving objects out of the collector's
        # generations, so no cell pays for the benchmark's own objects
        gc.collect()
        gc.freeze()
        err = io.StringIO()
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                if rec is None:
                    t0 = perf_counter()
                    rc = self.cli.main(argv)
                    seconds = perf_counter() - t0
                else:
                    rec.cell_id = self.attempted
                    first = len(rec.name)
                    root = rec.nid(spans.ROOT)
                    k = rec.open(root)
                    try:
                        rc = self.cli.main(argv)
                    finally:
                        rec.close(k, root)
                    seconds = rec.end[k] - rec.start[k]
        except Exception:
            self.failed += 1
            print(f"cell {i}: raised\n{traceback.format_exc()}", file=sys.stderr)
            return float("nan")
        bad = [f"exit code {rc}: {err.getvalue().strip()}"] if rc else []
        if rec is not None:
            # c11: exactly one solver call per round
            T = self.configs[i]["T"]
            calls = spans.route_counts(rec, first)["solvers.minimize"]
            if calls != T:
                bad.append(f"{calls} solver calls in {T} rounds")
        try:
            doc, csv = checks.read_outputs(self.out)
            bad += checks.invariants(doc)
            got = checks.summary(self.workload, doc, csv)
            ref = self.golden[i] if self.golden else self.first.setdefault(i, got)
            bad += checks.compare(ref, got)
        except (OSError, ValueError, KeyError, IndexError) as e:
            bad.append(f"unreadable output: {e!r}")
        if bad:
            self.failed += 1
            print(f"cell {i}: {'; '.join(bad)}", file=sys.stderr)
        return seconds


def measure(cells: Cells, seconds: float, trace: bool, probe=None) -> dict:
    """Cycle through the pool for `seconds`.  With tracing, each pool cell
    runs once untraced and once traced, so the two modes see the same
    inputs; the recorder holds only the timed traced cells.  ``probe``, if
    given, is called SETUP_PROBES times, spread evenly over the run, so the
    set-up times see the same machine as the cells.

    Samples are per-round microseconds at the reference speed, from cells
    the machine ran at a steady speed; ``raw`` keeps their wall-clock
    values.  Every cell is checked, steady or not, and the per-layer split
    covers every traced cell."""
    samples = {"plain": [], "traced": []}
    raw = {"plain": [], "traced": []}
    rounds = {"plain": 0, "traced": 0}
    busy = {"plain": 0.0, "traced": 0.0}
    traced = {"cells": 0, "rounds": 0}
    unsteady = 0
    floats = []
    probes = []

    def play(i, mode):
        if mode == "plain":
            return timing.calibrated(lambda: cells.run(i))
        uninstall = spans.install(rec)
        try:
            t, factor, steady = timing.calibrated(lambda: cells.run(i, rec))
        finally:
            uninstall()
        rec.factor[rec.cell_id] = factor
        led, rec.ledger = rec.ledger, None
        if led is not None:
            floats.append(spans.ledger_floats(led) / (led.T * led.dim))
        return t, factor, steady

    modes = ("plain", "traced") if trace else ("plain",)
    rec = spans.Recorder()
    for mode in modes:                    # warm-up, not timed
        play(0, mode)
    rec = spans.Recorder() if trace else None
    floats.clear()
    start = perf_counter()
    k = 0
    while True:
        if probe and len(probes) < SETUP_PROBES and \
                perf_counter() - start >= len(probes) * seconds / SETUP_PROBES:
            t0 = perf_counter()
            probes.append(probe())
            start += perf_counter() - t0     # probes are not cell time
        i = k % POOL_SIZE
        T = cells.configs[i]["T"]
        for mode in modes:
            t, factor, steady = play(i, mode)
            if t != t:                    # NaN marks a cell that raised
                continue
            if mode == "traced":
                traced["cells"] += 1
                traced["rounds"] += T
            if not steady:
                unsteady += 1
                continue
            samples[mode].append(t * factor / T * 1e6)
            raw[mode].append(t / T * 1e6)
            rounds[mode] += T
            busy[mode] += t * factor
        k += 1
        elapsed = perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (
                elapsed >= seconds and len(samples["plain"]) >= MIN_SAMPLES):
            break
    while probe and len(probes) < SETUP_PROBES:
        probes.append(probe())
    return {"samples": samples, "raw": raw, "rounds": rounds, "busy": busy,
            "traced": traced, "unsteady": unsteady, "rec": rec,
            "floats": floats, "probes": probes}


def end_to_end(m: dict) -> tuple:
    us = m["samples"]["plain"]
    setup = [statistics.median(v) for v in zip(*m["probes"])]
    tail, pct, n = timing.tail(us)
    metrics = {
        "run_us_per_round.p50": (statistics.median(us), "us"),
        "run_us_per_round.tail": (tail, "us"),
        "rounds_per_s": (m["rounds"]["plain"] / m["busy"]["plain"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "setup_s": (setup[0], "s"),
    }
    notes = [f"run_us_per_round.tail is the p{pct:.1f} of {n} cells "
             f"({timing.TAIL_BEYOND} samples above it)",
             f"times are at the reference speed; raw wall clock: "
             f"run_us_per_round.p50 {statistics.median(m['raw']['plain']):.6g} us, "
             f"setup_s {setup[1]:.6g} s"]
    return metrics, notes


def per_layer(m: dict) -> tuple:
    rec = m["rec"]
    R = m["traced"]["rounds"]
    C = m["traced"]["cells"]
    self_s, incl_s = spans.layer_totals(rec, rec.factor)
    routes = spans.route_counts(rec)
    n = rec.counts

    def us(s):
        return s / R * 1e6

    metrics = {}
    for layer in spans.SPANS:
        if layer != "solvers.argmin_l1_composite":   # no workload takes it
            metrics[f"{layer}.self_us_per_round"] = (us(self_s[layer]), "us")
    for layer in ("learners.run_rounds",
                  "regularizers.schedule", "regularizers.check_proximal",
                  "core.quadmetric_full", "core.dual_norm_sq",
                  "solvers.objective", "solvers.minimize", "losses.stream",
                  "regret.comparator", "regret.decomposition", "regret.bounds",
                  "regret.ledger_rows", "cli.replay_check", "cli.write"):
        metrics[f"{layer}.us_per_round"] = (us(incl_s[layer]), "us")
    numeric_calls = n["solvers.argmin_numeric"]
    metrics.update({
        "learners.solver_calls_per_round": (routes["solvers.minimize"] / R, "count"),
        "regularizers.check_proximal.calls_per_round":
            (n["regularizers.check_proximal"] / R, "count"),
        "core.as_point.calls_per_round": (n["core.as_point"] / R, "count"),
        "core.quadmetric_build.calls_per_round":
            (n["core.quadmetric_build"] / R, "count"),
        "solvers.route.quadratic_per_round": (routes["quadratic"] / R, "count"),
        "solvers.route.l1_per_round": (routes["l1"] / R, "count"),
        "solvers.route.numeric_per_round": (routes["numeric"] / R, "count"),
        "solvers.numeric.grad_evals_per_call":
            (n["solvers.numeric.grad_evals"] / numeric_calls if numeric_calls
             else 0.0, "count"),
        "losses.stream.loss_calls_per_round": (n["losses.loss"] / R, "count"),
        "losses.loss_evals_per_round": (n["losses.loss_evals"] / R, "count"),
        "regret.decomposition_terms.calls_per_cell":
            (n["regret.decomposition_terms"] / C, "count"),
        "regret.ledger_floats_per_round_coord":
            (statistics.median(m["floats"]), "floats"),
        "cli.write.bytes_per_round": (n["cli.write.bytes"] / R, "bytes"),
        "cli.validate.ms": (incl_s["cli.validate"] / C * 1e3, "ms"),
        "traced_us_per_round": (us(incl_s[spans.ROOT]), "us"),
        "unattributed.us_per_round": (us(self_s[spans.ROOT]), "us"),
        "unattributed.share": (self_s[spans.ROOT] / incl_s[spans.ROOT], "ratio"),
        "trace_overhead_ratio": (statistics.median(m["samples"]["traced"])
                                 / statistics.median(m["samples"]["plain"]), "ratio"),
    })
    total = sum(self_s.values())
    if abs(total - incl_s[spans.ROOT]) > 1e-9 * max(total, 1.0):
        raise AssertionError("layer self times do not add up to the cell time")
    notes = ["self-time split of the traced cells:"]
    for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        label = "unattributed" if layer == spans.ROOT else layer
        notes.append(f"  {label:32s} {100.0 * s / total:6.2f} %")
    notes.append("regret.ledger_floats_per_round_coord is computed by walking "
                 "the returned Ledger, not measured")
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "adaopt", "__init__.py")):
        print(f"perfbench: no adaopt sources in {src}", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    work = tempfile.mkdtemp(prefix="perfbench-", dir=build)
    try:
        cli = import_cli(src)
        golden = checks.load_golden(args.workload) \
            if args.seed == DEFAULT_SEED else None
        cells = Cells(cli, args.workload, args.seed, work, golden)
        probe = None if args.trace else \
            (lambda: setup_probe(src, cells.paths[0]))
        m = measure(cells, args.seconds, bool(args.trace), probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, notes = per_layer(m)
        span_file = os.path.join(
            build, f"perfbench-spans-{args.workload}-seed{args.seed}.csv")
        m["rec"].write(span_file)
        notes.append(f"spans written to {os.path.relpath(span_file, root)}")
    else:
        metrics, notes = end_to_end(m)
    notes.append(f"fail_ratio = {cells.failed / cells.attempted:.6g} "
                 f"({cells.failed} of {cells.attempted} cells failed)")
    notes.append(f"{m['unsteady']} timed cells gave no sample: the machine's "
                 f"speed changed by more than {timing.STEADY}x during them")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": cells.failed == 0,
        "attempted": cells.attempted,
        "failed": cells.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
