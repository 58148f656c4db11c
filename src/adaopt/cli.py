"""Command line harness.

Three commands:

* ``run``    -- play one configuration over a list of seeds, writing one
  CSV ledger per seed plus an aggregated JSON report.
* ``sweep``  -- run a base configuration under a list of overrides.
* ``verify`` -- execute the randomized verification suites.

Outputs are deterministic byte for byte for a fixed config: every float is
rendered with 17 significant digits, run randomness is seeded, and files are
written atomically (temp file, then rename).  Config errors and runtime
failures are reported as machine-readable JSON on stderr with a nonzero
exit status.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, losses, regret, solvers
from .core import as_point, rowdot
from .learners import PRESET_TABLE, PRESETS, Driver, preset_defaults, run_rounds
from .regret import TABLE2_CASES, BoundInputs

_BOUND_LABELS = TABLE2_CASES + ("forward", "ao")
_COMPARATOR_POLICIES = ("offline-best", "star-center", "explicit")


class ConfigError(ValueError):
    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where
        self.message = message


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _atomic_write(path: str, text: str) -> None:
    """Write through a temp file and a rename.  mkstemp creates the file with
    mode 0600; the output gets the mode open() would give it, 0666 less the
    process umask."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj.ravel()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


# -- config -------------------------------------------------------------------

def _need(cfg: dict, key: str, types, where: str):
    if key not in cfg:
        raise ConfigError(where, f"missing required key {key!r}")
    v = cfg[key]
    if not isinstance(v, types):
        raise ConfigError(f"{where}.{key}", f"expected {types}, got {type(v).__name__}")
    return v


def _finite(v) -> bool:
    """True for a JSON number (int or float) with a finite float value."""
    try:
        return isinstance(v, (int, float)) and math.isfinite(v)
    except OverflowError:       # an int beyond the float range
        return False


def _number(cfg: dict, key: str, default, where: str, positive: bool = False):
    v = cfg.get(key, default)
    if not _finite(v):
        raise ConfigError(f"{where}.{key}", "must be a finite number")
    if positive and v <= 0:
        raise ConfigError(f"{where}.{key}", "must be positive")
    return float(v)


def _integer(v, where: str, least: int) -> int:
    """A JSON integer (not a bool) of at least ``least``."""
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        raise ConfigError(where, "must be a positive integer" if least > 0
                          else "must be a non-negative integer")
    return v


def _vector(v, dim: int, where: str) -> np.ndarray:
    if isinstance(v, (int, float)):
        v = [v] * dim
    if isinstance(v, list) and len(v) == dim and all(_finite(u) for u in v):
        return np.asarray(v, dtype=float)
    raise ConfigError(where, f"expected a finite number or a list of {dim} "
                      "finite numbers")


def build_set(cfg: dict) -> solvers.FeasibleSet:
    kind = _need(cfg, "kind", str, "set")
    dim = _integer(_need(cfg, "dim", int, "set"), "set.dim", 1)
    if kind == "unconstrained":
        return solvers.Unconstrained(dim)
    if kind == "box":
        lo = _vector(cfg.get("lo", -1.0), dim, "set.lo")
        hi = _vector(cfg.get("hi", 1.0), dim, "set.hi")
        if np.any(lo >= hi):
            raise ConfigError("set", "box needs lo < hi in every coordinate")
        return solvers.Box(lo, hi)
    if kind == "ball":
        radius = _number(cfg, "radius", 1.0, "set", positive=True)
        return solvers.Ball(_vector(cfg.get("center", 0.0), dim, "set.center"), radius)
    if kind == "simplex":
        return solvers.Simplex(dim, _number(cfg, "scale", 1.0, "set", positive=True))
    raise ConfigError("set.kind", f"unknown kind {kind!r}; use unconstrained, "
                      "box, ball, or simplex")


def build_losses(cfg: dict, dim: int) -> losses.LossSequence:
    kind = _need(cfg, "kind", str, "losses")
    if kind == "random-linear":
        seed = _integer(cfg.get("seed", 0), "losses.seed", 0)
        return losses.random_stream(
            dim, seed=seed, scale=_number(cfg, "scale", 1.0, "losses"))
    if kind == "alternating":
        base = _vector(_need(cfg, "base", (list, int, float), "losses"), dim,
                       "losses.base")
        return losses.alternating_stream(base)
    if kind == "drift-then-constant":
        base = _vector(_need(cfg, "base", (list, int, float), "losses"), dim,
                       "losses.base")
        flips = _integer(cfg.get("flips", 8), "losses.flips", 1)
        return losses.drift_then_constant_stream(base, flips)
    if kind == "sine-quadratic":
        return losses.sine_drift_quadratic(
            dim, amplitude=_number(cfg, "amplitude", 0.5, "losses"),
            period=_number(cfg, "period", 8.0, "losses", positive=True),
            weight=_number(cfg, "weight", 1.0, "losses", positive=True))
    if kind == "fixed-quadratic":
        center = _vector(cfg.get("center", 0.0), dim, "losses.center")
        weight = _number(cfg, "weight", 1.0, "losses", positive=True)
        base = losses.quadratic_loss(center, weight)
        noise = _number(cfg, "noise", 0.0, "losses")
        if noise < 0:
            raise ConfigError("losses.noise", "must be non-negative")
        if noise == 0.0:
            return losses.FixedLoss(base, dim)
        noise_kind = cfg.get("noise_kind", "gaussian")
        if noise_kind not in ("gaussian", "uniform"):
            raise ConfigError("losses.noise_kind", "use gaussian or uniform")
        return losses.StochasticLoss(base, dim, noise=noise, noise_kind=noise_kind)
    raise ConfigError("losses.kind", f"unknown kind {kind!r}; use random-linear, "
                      "alternating, drift-then-constant, sine-quadratic, or "
                      "fixed-quadratic")


def validate_run_config(raw: dict) -> dict:
    """Fill defaults and reject anything the runner could not execute."""
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")
    known = {"name", "preset", "params", "set", "losses", "T", "seeds",
             "comparator", "bounds", "inputs", "variational"}
    extra = set(raw) - known
    if extra:
        raise ConfigError("config", f"unknown keys: {sorted(extra)}")

    cfg = dict(raw)
    cfg.setdefault("name", "run")
    if not isinstance(cfg["name"], str) or not cfg["name"]:
        raise ConfigError("name", "must be a non-empty string")
    preset = _need(cfg, "preset", str, "config")
    if preset not in PRESETS:
        raise ConfigError("preset", f"unknown preset {preset!r}; known: "
                          f"{', '.join(PRESETS)}")
    params = cfg.setdefault("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params", "must be an object")

    fs = build_set(_need(cfg, "set", dict, "config"))
    seq = build_losses(_need(cfg, "losses", dict, "config"), fs.dim)
    # the preset's own parse: unknown or bad parameters, and custom hints,
    # which need a hint function and are library-only
    try:
        Driver(preset, fs, params)
    except solvers.IllPosedError:
        raise                   # no first iterate: a runtime failure
    except (TypeError, ValueError) as e:
        raise ConfigError("params", str(e)) from None
    _integer(_need(cfg, "T", int, "config"), "T", 1)
    seeds = cfg.setdefault("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds", "must be a non-empty list of non-negative "
                          "integers")
    for s in seeds:
        _integer(s, "seeds", 0)
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds", "must not repeat")

    comparator = cfg.setdefault("comparator", {"policy": "offline-best"})
    policy = _need(comparator, "policy", str, "comparator")
    if policy not in _COMPARATOR_POLICIES:
        raise ConfigError("comparator.policy", f"unknown policy {policy!r}; "
                          f"known: {', '.join(_COMPARATOR_POLICIES)}")
    if policy == "explicit":
        point = _vector(_need(comparator, "point", (list, int, float),
                              "comparator"), fs.dim, "comparator.point")
        if not fs.contains(point):
            raise ConfigError("comparator.point", "lies outside the feasible set")
        if not isinstance(comparator["point"], list):
            # the run takes the vector checked here; a list keeps its bytes
            cfg["comparator"] = dict(comparator, point=point.tolist())

    kind = PRESET_TABLE[preset][0]
    default_case = "oo-ftrl" if kind == "ftrl" else "oo-md"
    bounds = cfg.setdefault("bounds", [default_case])
    if not isinstance(bounds, list) or not bounds:
        raise ConfigError("bounds", "must be a non-empty list of labels")
    for label in bounds:
        if label not in _BOUND_LABELS:
            raise ConfigError("bounds", f"unknown label {label!r}; known: "
                              f"{', '.join(_BOUND_LABELS)}")
        if label in TABLE2_CASES and label.endswith("ftrl") != (kind == "ftrl"):
            raise ConfigError("bounds", f"case {label!r} does not apply to "
                              f"a {kind} run")

    inputs = cfg.setdefault("inputs", {})
    if not isinstance(inputs, dict):
        raise ConfigError("inputs", "must be an object")
    bad = set(inputs) - {"radius", "smoothness", "d_init"}
    if bad:
        raise ConfigError("inputs", f"unknown keys: {sorted(bad)}")
    for k, v in inputs.items():
        if not isinstance(v, (int, float)):
            raise ConfigError(f"inputs.{k}", "must be a number")

    variational = cfg.setdefault("variational", False)
    if not isinstance(variational, bool):
        raise ConfigError("variational", "must be true or false")
    if variational and preset != "ao-ftrl-prox":
        raise ConfigError("variational", "needs the ao-ftrl-prox preset, which "
                          "records the step-size schedule")

    needs_smooth = any(label.startswith("smooth") for label in bounds)
    if needs_smooth or variational:
        L = inputs.get("smoothness", seq.loss(1).smoothness)
        if L is None:
            raise ConfigError("inputs.smoothness", "required for smooth bounds "
                              "and not derivable from these losses")
    return cfg


def _auto_d_init(seq, fs, x1) -> float | None:
    f1 = seq.loss(1)
    if losses.is_isotropic_quadratic(f1):
        # the projection of the center minimizes an isotropic quadratic
        xm = fs.project(f1.isotropic[1])
        return f1.value(x1) - f1.value(xm)
    return None


def _bound_inputs(cfg: dict, seq, fs, led) -> BoundInputs:
    given = cfg["inputs"]
    L = given.get("smoothness", seq.loss(1).smoothness)
    radius = given.get("radius")
    if radius is None and math.isfinite(fs.diameter()):
        radius = 0.5 * fs.diameter()
    d_init = given.get("d_init")
    if d_init is None:
        d_init = _auto_d_init(seq, fs, led.x1)
    variation = None
    variation_terms = None
    quality = "exact"
    if cfg["variational"]:
        per = seq.per_round_variation(led.T, fs)
        if per is not None:
            variation_terms = [float(v) for v in per]
            variation = float(np.sum(per))
        else:
            variation, quality = losses.variation_estimate(seq, fs, led.T)
    return BoundInputs(radius=radius, smoothness=L, variation=variation,
                       variation_terms=variation_terms,
                       variation_quality=quality, d_init=d_init)


# -- one (config, seed) cell ----------------------------------------------------

def _report_dict(rep, regret_value: float) -> dict:
    return _jsonable({
        "case": rep.case,
        "value": rep.value,
        "slack": rep.value - regret_value,
        "certified": rep.certified,
        "quality": rep.quality,
        "terms": rep.terms,
        "notes": rep.notes,
    })


def run_seed(cfg: dict, seed: int, solver_tol: float) -> dict:
    """Play one seeded run and return the JSON-ready result plus CSV text."""
    fs = build_set(cfg["set"])
    seq = build_losses(cfg["losses"], fs.dim)
    driver = Driver(cfg["preset"], fs, dict(cfg["params"]), solver_tol=solver_tol)
    led = run_rounds(driver, seq, cfg["T"], rng=np.random.default_rng(seed))

    comp = cfg["comparator"]
    x_star = regret.select_comparator(led, comp["policy"], comp.get("point"))
    # one set of columns: the terms, the running regret and R+_T all come
    # from it
    terms = regret.decomposition_terms(led, x_star)
    r_emp = regret.empirical_regret(led, x_star, terms=terms)
    r_fwd = regret.forward_regret(led, x_star, terms=terms)
    residual = regret.decomposition_residual(led, x_star, terms)
    bi = _bound_inputs(cfg, seq, fs, led)

    reports = []
    primary = None      # the first Table-2 report: the CSV's running bound
    for label in cfg["bounds"]:
        if label == "forward":
            rep = regret.bound_forward_ftrl(led, x_star) if led.kind == "ftrl" \
                else regret.bound_forward_md(led, x_star)
            reports.append(_report_dict(rep, r_fwd))
        elif label == "ao":
            rep = regret.bound_ao_ftrl(led, x_star) if led.kind == "ftrl" \
                else regret.bound_ao_md(led, x_star)
            reports.append(_report_dict(rep, r_emp))
        else:
            rep = regret.bound_table2(led, x_star, label, inputs=bi)
            reports.append(_report_dict(rep, r_emp))
            primary = primary or rep
    if cfg["variational"]:
        try:
            rep = regret.bound_variational_smooth(led, x_star, bi)
            reports.append(_report_dict(rep, r_emp))
        except ValueError as e:
            reports.append({"case": "variational-smooth", "error": str(e)})
        if led.schedule.get("name") == "final-attack":
            rep = regret.bound_final_attack(led, bi)
            reports.append(_report_dict(rep, r_emp))

    header = regret.ledger_header(fs.dim)
    # t, then every float with 17 significant digits, as _fmt renders it;
    # the rows and lines are gone before the replay allocates its own
    row_fmt = ",".join(["%d"] + ["%.17g"] * (len(header) - 1))
    csv_text = "\n".join([",".join(header)] + [
        row_fmt % tuple(row) for row in regret.ledger_rows(
            led, x_star, inputs=bi, terms=terms, report=primary)]) + "\n"

    replay = replay_check(csv_text, cfg, x_star)
    return {
        "seed": seed,
        "T": led.T,
        "regret": float(r_emp),
        "forward_regret": float(r_fwd),
        "residual": float(residual),
        "comparator": [float(v) for v in x_star],
        "comparator_policy": comp["policy"],
        "final_point": [float(v) for v in led.final_point()],
        "solver_calls": int(led.solver_calls),
        # every emitted term is certified, and a failed argmin raises
        "certified": True,
        "bounds": reports,
        "replay": replay,
        "_csv": csv_text,
    }


def replay_check(csv_text: str, cfg: dict, x_star, tol: float = 1e-9) -> dict:
    """Re-derive the per-round quantities from the written CSV.

    The body is parsed back in one call (17 significant digits round
    float64 exactly), the losses of its rounds are regenerated from the
    config as one ``LossColumn``, and every check is a column expression:
    the forward and drift terms against <g_t, x_t - x*>, the divergence and
    the linearization gap against the regenerated loss, and each
    ``cum_regret`` step against f_t(x_t) - f_t(x*) plus the composite term.
    Each row's error is scaled by 1 + |cum_regret| + ||g_t|| ||x_t - x*||.
    Nothing is read from the ledger: a mismatch means the export lost
    information.
    """
    x_star = as_point(x_star)
    d = x_star.size
    seq = build_losses(cfg["losses"], d)
    alpha = float(cfg["params"].get("composite_alpha", 0.0))
    # a list of lines, not a StringIO, which would hold the text as UCS-4;
    # the CSV has no comments, and not looking for them parses faster
    table = np.loadtxt(csv_text.splitlines(), delimiter=",", skiprows=1,
                       ndmin=2, usecols=range(6 + 2 * d), comments=None)
    x, g = table[:, 1:1 + d], table[:, 1 + d:1 + 2 * d]
    lin_fwd, drift, breg_loss, delta, cum = table[:, 1 + 2 * d:].T
    loss = seq.column(table[:, 0].astype(np.int64).tolist())
    off, to_star = x - x_star, x_star - x
    f_x, f_star = loss.value(x), loss.value(x_star)
    dd = loss.dir_deriv(x, to_star)
    inc = f_x - f_star
    if alpha > 0.0:
        inc += alpha * (np.abs(x).sum(axis=1) - float(np.sum(np.abs(x_star))))
    err = np.max([
        np.abs((lin_fwd + drift) - rowdot(g, off)),
        np.abs(breg_loss - (f_star - f_x - dd)),
        np.abs(delta - (rowdot(g, to_star) - dd)),
        np.abs(np.diff(cum, prepend=0.0) - inc)], axis=0)
    scale = 1.0 + np.abs(cum) + np.sqrt(rowdot(g, g)) * np.sqrt(rowdot(off, off))
    worst = float(np.max(err / scale, initial=0.0))
    return {"ok": worst <= tol, "worst_error": worst, "rows": len(table)}


def _aggregate(results: list) -> dict:
    regrets = [r["regret"] for r in results]
    n = len(regrets)
    mean = sum(regrets) / n
    var = sum((v - mean) ** 2 for v in regrets) / (n - 1) if n > 1 else 0.0
    se = math.sqrt(var / n) if n > 1 else 0.0
    agg = {"seeds": n, "regret_mean": mean, "regret_std": math.sqrt(var),
           "regret_se": se, "cases": {}}
    by_case: dict = {}
    for r in results:
        for rep in r["bounds"]:
            if "error" in rep:
                continue
            by_case.setdefault(rep["case"], []).append((rep["value"], rep["slack"]))
    for case, pairs in by_case.items():
        if len(pairs) != n:
            continue
        values = [v for v, _ in pairs]
        bound_mean = sum(values) / n
        agg["cases"][case] = {
            "bound_mean": bound_mean,
            "min_slack": min(s for _, s in pairs),
            "mean_plus_2se_ok": mean + 2.0 * se <= bound_mean,
        }
    return agg


def _worker(task):
    cfg, seed, solver_tol = task
    return run_seed(cfg, seed, solver_tol)


def _run_config(cfg: dict, out_dir: str, jobs: int, solver_tol: float) -> dict:
    tasks = [(cfg, seed, solver_tol) for seed in cfg["seeds"]]
    if jobs > 1 and len(tasks) > 1:
        # imported here: a one-process run does not need it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_worker, tasks))
    else:
        results = [_worker(t) for t in tasks]

    for res in results:
        csv_name = f"{cfg['name']}.seed{res['seed']}.csv"
        _atomic_write(os.path.join(out_dir, csv_name), res.pop("_csv"))
        res["csv"] = csv_name

    doc = {
        "version": __version__,
        "config": _jsonable(cfg),
        "results": results,
        "aggregate": _aggregate(results),
    }
    _atomic_write(os.path.join(out_dir, f"{cfg['name']}.json"),
                  json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


# -- commands -------------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"invalid JSON: {e}")


def cmd_run(args) -> int:
    cfg = validate_run_config(_load_json(args.config))
    os.makedirs(args.out, exist_ok=True)
    doc = _run_config(cfg, args.out, args.jobs, args.solver_tol)
    agg = doc["aggregate"]
    print(f"{cfg['name']}: {agg['seeds']} seed(s), T={cfg['T']}, "
          f"regret mean {_fmt(agg['regret_mean'])}")
    for case, c in agg["cases"].items():
        print(f"  {case}: bound mean {_fmt(c['bound_mean'])}, "
              f"min slack {_fmt(c['min_slack'])}")
    bad_replay = [r["seed"] for r in doc["results"] if not r["replay"]["ok"]]
    if bad_replay:
        print(json.dumps({"error": {"where": "replay",
                                    "message": f"seeds {bad_replay} failed "
                                    "the CSV replay check"}}), file=sys.stderr)
        return 3
    return 0


def _merge_cell(base: dict, cell: dict) -> dict:
    merged = json.loads(json.dumps(base))
    if "preset" in cell and cell["preset"] != merged.get("preset"):
        # a different preset takes a different parameter space
        merged.pop("params", None)
        merged.pop("bounds", None)
    for k, v in cell.items():
        if k in ("params", "set", "losses", "comparator", "inputs") and \
                isinstance(v, dict) and isinstance(merged.get(k), dict):
            merged[k].update(v)
        else:
            merged[k] = v
    return merged


def cmd_sweep(args) -> int:
    raw = _load_json(args.config)
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")
    name = raw.get("name", "sweep")
    base = _need(raw, "base", dict, "config")
    cells = _need(raw, "cells", list, "config")
    if not cells or not all(isinstance(c, dict) for c in cells):
        raise ConfigError("cells", "must be a non-empty list of override objects")
    os.makedirs(args.out, exist_ok=True)

    summary = []
    for i, cell in enumerate(cells):
        cfg = _merge_cell(base, cell)
        cfg["name"] = f"{name}-{i:03d}"
        cfg = validate_run_config(cfg)
        doc = _run_config(cfg, args.out, args.jobs, args.solver_tol)
        summary.append({"name": cfg["name"], "overrides": _jsonable(cell),
                        "aggregate": doc["aggregate"]})
        agg = doc["aggregate"]
        print(f"{cfg['name']}: regret mean {_fmt(agg['regret_mean'])}")
    _atomic_write(os.path.join(args.out, f"{name}.json"),
                  json.dumps({"version": __version__, "base": _jsonable(base),
                              "cells": summary}, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(args) -> int:
    from . import suites     # only this command reads the suites
    names = args.suite or sorted(suites.SUITES)
    for n in names:
        if n not in suites.SUITES:
            raise ConfigError("suite", f"unknown suite {n!r}; known: "
                              f"{', '.join(sorted(suites.SUITES))}")
    all_results = {}
    failed = False
    for n in names:
        all_results[n] = suites.run_suite(n, fast=args.fast, seed=args.seed)
    if args.json:
        print(json.dumps(_jsonable(all_results), indent=2, sort_keys=True))
    else:
        print(f"{'suite':14s} {'property':42s} {'checks':>7s} {'fail':>5s} worst")
        for n in names:
            for prop, entry in all_results[n].items():
                worst = "-" if entry["worst"] is None else f"{entry['worst']:.3e}"
                print(f"{n:14s} {prop:42s} {entry['checks']:7d} "
                      f"{entry['failures']:5d} {worst}")
    for res in all_results.values():
        for entry in res.values():
            failed = failed or not entry["pass"]
    if failed:
        print(json.dumps({"error": {"where": "verify",
                                    "message": "at least one property failed"}}),
              file=sys.stderr)
        return 1
    return 0


def cmd_presets(args) -> int:
    print(json.dumps({p: preset_defaults(p) for p in PRESETS},
                     indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adaopt",
        description="Adaptive FTRL and mirror descent with regret accounting.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="play one configuration over its seeds")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes across seeds")
    p_run.add_argument("--solver-tol", type=float, default=1e-10)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a base config under overrides")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--solver-tol", type=float, default=1e-10)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("suite", nargs="*",
                          help="suite names (default: all)")
    p_verify.add_argument("--fast", action="store_true",
                          help="smaller instance counts")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_presets = sub.add_parser("presets", help="print presets and defaults")
    p_presets.set_defaults(func=cmd_presets)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(json.dumps({"error": {"where": e.where, "message": e.message}}),
              file=sys.stderr)
        return 2
    except (ValueError, solvers.IllPosedError, solvers.NumericArgminError) as e:
        error = {"where": "runtime", "message": str(e)}
        # an error raised inside a round names it (learners._name_round)
        error.update((k, getattr(e, k)) for k in ("round", "layer") if hasattr(e, k))
        print(json.dumps({"error": error}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
