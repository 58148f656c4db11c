"""Randomized verification suites.

Each suite hammers one layer of the package with randomized instances and
returns a summary dict per property: number of checks, number of failures,
and the worst slack seen (negative slack = violation for bound-type
properties).  The command line runner prints these; the acceptance tests
call them at full scale and assert zero failures.
"""

from __future__ import annotations

import math

import numpy as np

from . import losses, regret, solvers
from .core import QuadMetric, bregman, dot, dual_norm_sq, numeric_dir_derivative, quad_norm_sq
from .learners import Driver, run_rounds
from .regularizers import L1, Linear, Quadratic, Sum, Zero, affine_shift


def _entry():
    return {"checks": 0, "failures": 0, "worst": None}


def _note(entry, ok: bool, slack: float | None = None):
    entry["checks"] += 1
    if not ok:
        entry["failures"] += 1
    if slack is not None:
        entry["worst"] = slack if entry["worst"] is None else min(entry["worst"], slack)


def _finish(out: dict) -> dict:
    for entry in out.values():
        entry["pass"] = entry["failures"] == 0 and entry["checks"] > 0
    return out


def _random_regularizer(rng, dim: int):
    kind = rng.integers(0, 4)
    if kind == 0:
        return Quadratic(rng.normal(size=dim), QuadMetric.scaled(float(rng.uniform(0.1, 3.0)), dim))
    if kind == 1:
        return Quadratic(rng.normal(size=dim), QuadMetric.diagonal(rng.uniform(0.1, 3.0, dim)))
    if kind == 2:
        a = rng.normal(size=(dim, dim))
        return Quadratic(rng.normal(size=dim), QuadMetric.full(a @ a.T + 0.1 * np.eye(dim)))
    return Sum([L1(float(rng.uniform(0.0, 2.0))),
                Quadratic(np.zeros(dim), QuadMetric.scaled(float(rng.uniform(0.1, 1.0)), dim))])


# -- suite: divergence calculus ------------------------------------------------

def bregman_suite(n: int = 10000, seed: int = 0, tol: float = 1e-9) -> dict:
    rng = np.random.default_rng(seed)
    out = {
        "non_negative": _entry(),
        "affine_invariant": _entry(),
        "three_point": _entry(),
        "fenchel_young": _entry(),
        "numeric_dir_deriv": _entry(),
    }
    for _ in range(n):
        dim = int(rng.integers(1, 5))
        f = _random_regularizer(rng, dim)
        x = rng.normal(size=dim)
        y = rng.normal(size=dim)
        b = f.bregman(y, x)
        _note(out["non_negative"], b >= -tol, b)
        shifted = affine_shift(f, rng.normal(size=dim), float(rng.normal()))
        diff = abs(bregman(shifted, y, x) - b)
        _note(out["affine_invariant"], diff <= tol * (1.0 + abs(b)), -diff)
        # smooth three-point rule: B(w,x) - B(w,y) - B(y,x) = <grad(x)-grad(y), y-w>
        q = Quadratic(rng.normal(size=dim), QuadMetric.diagonal(rng.uniform(0.1, 3.0, dim)))
        w = rng.normal(size=dim)
        lhs = q.bregman(w, x) - q.bregman(w, y) - q.bregman(y, x)
        rhs = dot(q.grad(x) - q.grad(y), y - w)
        resid = abs(lhs - rhs)
        _note(out["three_point"], resid <= tol * (1.0 + abs(lhs) + abs(rhs)), -resid)
        m = QuadMetric.diagonal(rng.uniform(0.1, 3.0, dim))
        g = rng.normal(size=dim)
        slack = 0.5 * quad_norm_sq(m, x) + 0.5 * dual_norm_sq(m, g) - dot(g, x)
        _note(out["fenchel_young"], slack >= -tol, slack)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        q = Quadratic(rng.normal(size=dim), QuadMetric.diagonal(rng.uniform(0.5, 2.0, dim)))
        x = rng.normal(size=dim)
        z = rng.normal(size=dim)
        est = numeric_dir_derivative(q.value, x, z)
        exact = q.dir_deriv(x, z)
        err = abs(est - exact)
        _note(out["numeric_dir_deriv"], err <= 1e-5 * (1.0 + abs(exact)), -err)
    return _finish(out)


# -- suite: solvers ------------------------------------------------------------

def _random_set(rng, dim: int, kinds=("unconstrained", "box", "ball", "simplex")):
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind == "unconstrained":
        return solvers.Unconstrained(dim)
    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, dim)
        return solvers.Box(lo, lo + rng.uniform(0.5, 3.0, dim))
    if kind == "ball":
        return solvers.Ball(rng.normal(size=dim), float(rng.uniform(0.5, 2.0)))
    return solvers.Simplex(dim, float(rng.uniform(0.5, 2.0)))


def solver_suite(n: int = 500, seed: int = 0, tol: float = 1e-6) -> dict:
    rng = np.random.default_rng(seed)
    out = {
        "projection_idempotent": _entry(),
        "projection_nonexpansive": _entry(),
        "simplex_kkt": _entry(),
        "closed_vs_numeric": _entry(),
        "l1_vs_numeric": _entry(),
        "argmin_margin": _entry(),
        "full_box_vs_numeric": _entry(),
    }
    for _ in range(n):
        dim = int(rng.integers(1, 6))
        fs = _random_set(rng, dim, kinds=("box", "ball", "simplex"))
        y = 3.0 * rng.normal(size=dim)
        z = 3.0 * rng.normal(size=dim)
        py, pz = fs.project(y), fs.project(z)
        again = float(np.linalg.norm(fs.project(py) - py))
        _note(out["projection_idempotent"], again <= 1e-12, -again)
        expand = float(np.linalg.norm(py - pz) - np.linalg.norm(y - z))
        _note(out["projection_nonexpansive"], expand <= 1e-9, -expand)
        if isinstance(fs, solvers.Simplex):
            p = solvers.simplex_project(y, fs.scale)
            feas = abs(float(np.sum(p)) - fs.scale) <= 1e-9 and np.all(p >= -1e-12)
            # KKT: active coordinates share one multiplier, inactive ones sit below it
            resid = y - p
            active = p > 1e-12
            theta = resid[active]
            kkt = (theta.size > 0 and float(np.ptp(theta)) <= 1e-9
                   and np.all(resid[~active] <= float(np.min(theta)) + 1e-9))
            _note(out["simplex_kkt"], feas and kkt)

        # strongly convex quadratic: the routed argmin vs the numeric route
        fs2 = _random_set(rng, dim)
        lin = rng.normal(size=dim)
        obj = solvers.Objective.build(fs2, linear=lin)
        obj.gamma = float(rng.uniform(0.2, 2.0))
        if rng.uniform() < 0.5:
            obj.diag = rng.uniform(0.0, 2.0, dim)
        x_closed = solvers.minimize(obj)
        x_num = solvers.argmin_numeric(obj, tol=1e-11)
        d = float(np.linalg.norm(x_closed - x_num))
        _note(out["closed_vs_numeric"], d <= tol, -d)

        # l1 composite route vs numeric
        fs3 = _random_set(rng, dim, kinds=("unconstrained", "box"))
        obj3 = solvers.Objective.build(fs3, linear=rng.normal(size=dim))
        obj3.diag = rng.uniform(0.3, 2.0, dim)
        obj3.l1_alpha = float(rng.uniform(0.1, 1.5))
        x_l1 = solvers.argmin_l1_composite(obj3)
        x_num3 = solvers.argmin_numeric(obj3, tol=1e-11)
        d3 = float(np.linalg.norm(x_l1 - x_num3))
        _note(out["l1_vs_numeric"], d3 <= tol, -d3)

        # one-step argmin margin: <g, x - x+> + r(x) - r(x+) >= B_r(x, x+)
        r = Quadratic(rng.normal(size=dim), QuadMetric.scaled(float(rng.uniform(0.3, 2.0)), dim))
        g = rng.normal(size=dim)
        obj4 = solvers.Objective.build(fs2, linear=g, regularizer=r)
        x_plus = solvers.minimize(obj4, tol=1e-11)
        probe = fs2.sample(rng)
        margin = (dot(g, probe - x_plus) + r.value(probe) - r.value(x_plus)
                  - r.bregman(probe, x_plus))
        _note(out["argmin_margin"], margin >= -1e-7, margin)

    # a child generator, so the draws above stay what they were
    full_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    for _ in range(n):
        obj, x_star, cond = _full_box_instance(full_rng)
        x = solvers.argmin_quadratic(obj)
        d = float(np.linalg.norm(x - x_star))
        # the numeric route's certificate needs eps * cond well below its
        # tol and about cond iterations, so it is the reference only for
        # well-conditioned metrics; x_star is exact by construction
        if cond <= 100.0:
            d = max(d, float(np.linalg.norm(x - solvers.argmin_numeric(obj, tol=1e-11))))
        _note(out["full_box_vs_numeric"], d <= tol, -d)
    return _finish(out)


def _full_box_instance(rng):
    """(objective, its minimizer, condition number) for a random
    positive-definite full metric on a box.

    The condition number reaches 1e6, about a fifth of the coordinates have
    lo == hi, and the minimizer x_star is fixed first: each coordinate is
    free, at lo or at hi, and lin = mu - M x_star with multipliers mu that
    vanish off the bounds, have the sign that keeps x_star optimal on them
    and are exactly zero on about a third of the bound coordinates."""
    dim = int(rng.integers(1, 8))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    cond = 10.0 ** rng.uniform(0.0, 6.0)
    ev = np.exp(rng.uniform(0.0, math.log(cond), dim))
    ev[0], ev[-1] = 1.0, cond
    ev *= 10.0 ** rng.uniform(-1.0, 1.0)
    m = (q * ev) @ q.T
    m = 0.5 * (m + m.T)
    lo = rng.uniform(-2.0, -0.2, dim)
    hi = rng.uniform(0.2, 2.0, dim)
    pinned = rng.uniform(size=dim) < 0.2
    hi[pinned] = lo[pinned]
    status = rng.integers(0, 3, dim)            # 0 free, 1 at lo, 2 at hi
    x_star = np.where(status == 1, lo, np.where(status == 2, hi, rng.uniform(lo, hi)))
    size = rng.uniform(0.1, 2.0, dim) * (rng.uniform(size=dim) < 0.67) * ev.max()
    mu = np.where(status == 1, size, np.where(status == 2, -size, 0.0))
    mu[pinned] = rng.normal(size=int(pinned.sum()))
    obj = solvers.Objective.build(solvers.Box(lo, hi), linear=mu - m @ x_star)
    obj.full = m
    # a warm start that is right, wrong, or absent
    pick = int(rng.integers(0, 3))
    if pick == 0:
        obj.init = x_star
    elif pick == 1:
        obj.init = np.where(rng.uniform(size=dim) < 0.5, lo, hi)
    return obj, x_star, float(np.linalg.cond(m))


# -- suite: the decomposition and forward bounds on randomized runs -------------

_RUN_VARIANTS = (
    "ogd", "da", "adagrad-da", "adagrad-da-full", "ftrl-prox", "adagrad-md",
    "md", "md-strong", "ao-ftrl-prox", "ao-ftrl-prox-attack", "ao-md",
    "implicit-md", "nonlin-ftrl", "composite-ftrl", "composite-md",
)


def random_run(rng, variant: str | None = None):
    """One randomized (variant, set, losses, horizon) configuration.

    Returns (driver, seq, T).  Covers every preset, feasible-set shape, and
    feedback type the package supports; solver-route restrictions (composite
    needs boxes, implicit needs exact losses) are respected by construction.
    """
    if variant is None:
        variant = _RUN_VARIANTS[int(rng.integers(0, len(_RUN_VARIANTS)))]
    dim = int(rng.integers(2, 6))
    T = int(rng.integers(20, 41))
    seed = int(rng.integers(0, 2 ** 31))

    def linear_seq():
        return losses.random_stream(dim, seed=seed, scale=float(rng.uniform(0.5, 2.0)))

    def quad_seq():
        if rng.uniform() < 0.5:
            return losses.sine_drift_quadratic(
                dim, amplitude=float(rng.uniform(0.2, 1.0)),
                period=float(rng.uniform(5.0, 12.0)), weight=float(rng.uniform(0.5, 2.0)))
        return losses.StochasticLoss(
            losses.quadratic_loss(rng.normal(size=dim) * 0.5, float(rng.uniform(0.5, 2.0))),
            dim, noise=float(rng.uniform(0.1, 0.8)),
            noise_kind="gaussian" if rng.uniform() < 0.5 else "uniform")

    any_set = _random_set(rng, dim)
    box = _random_set(rng, dim, kinds=("box",))
    tol = 1e-11

    if variant == "ogd":
        return Driver("ogd", any_set, {"eta": float(rng.uniform(0.05, 1.0))},
                      solver_tol=tol), linear_seq(), T
    if variant == "da":
        return Driver("da", any_set, {"alpha0": float(rng.uniform(0.3, 2.0)),
                                      "alpha_growth": float(rng.uniform(0.0, 2.0))},
                      solver_tol=tol), linear_seq(), T
    if variant == "adagrad-da":
        return Driver("adagrad-da", any_set,
                      {"eta": float(rng.uniform(0.3, 1.5)), "gamma0": float(rng.uniform(0.2, 2.0)),
                       "metric": "diag"}, solver_tol=tol), linear_seq(), T
    if variant == "adagrad-da-full":
        return Driver("adagrad-da", any_set,
                      {"eta": float(rng.uniform(0.3, 1.5)), "gamma0": float(rng.uniform(0.2, 2.0)),
                       "metric": "full"}, solver_tol=tol), linear_seq(), min(T, 25)
    if variant == "ftrl-prox":
        return Driver("ftrl-prox", any_set,
                      {"eta": float(rng.uniform(0.3, 1.5)), "gamma0": float(rng.uniform(0.0, 1.0)),
                       "metric": "diag"}, solver_tol=tol), linear_seq(), T
    if variant == "adagrad-md":
        return Driver("adagrad-md", any_set,
                      {"eta": float(rng.uniform(0.3, 1.5)), "gamma0": float(rng.uniform(0.2, 2.0)),
                       "metric": "diag"}, solver_tol=tol), linear_seq(), T
    if variant == "md":
        return Driver("md", any_set, {"q0_scale": float(rng.uniform(0.2, 2.0)),
                                      "sigma_r": float(rng.uniform(0.0, 1.0))},
                      solver_tol=tol), linear_seq(), T
    if variant == "md-strong":
        seq = quad_seq()
        w = seq.loss(1).strong_convexity
        return Driver("md", any_set, {"q0_scale": 0.0,
                                      "sigma_r": float(rng.uniform(0.2, 1.0)) * w},
                      solver_tol=tol), seq, T
    if variant == "ao-ftrl-prox":
        hints = ("none", "prev-gradient")[int(rng.integers(0, 2))]
        return Driver("ao-ftrl-prox", any_set,
                      {"eta_schedule": "scale-free", "eta0": float(rng.uniform(0.5, 2.0)),
                       "hints": hints}, solver_tol=tol), linear_seq(), T
    if variant == "ao-ftrl-prox-attack":
        fs = _random_set(rng, dim, kinds=("box", "ball", "simplex"))
        return Driver("ao-ftrl-prox", fs,
                      {"eta_schedule": "final-attack", "smooth_l": float(rng.uniform(0.0, 1.0)),
                       "hints": "prev-gradient"}, solver_tol=tol), linear_seq(), T
    if variant == "ao-md":
        return Driver("ao-md", any_set,
                      {"q0_scale": float(rng.uniform(0.0, 1.0)),
                       "sigma_r": float(rng.uniform(0.3, 1.5)), "hints": "prev-gradient"},
                      solver_tol=tol), linear_seq(), T
    if variant == "implicit-md":
        seq = losses.sine_drift_quadratic(dim, amplitude=0.7,
                                          period=float(rng.uniform(5.0, 11.0)),
                                          weight=float(rng.uniform(0.5, 2.0)))
        return Driver("implicit-md", any_set,
                      {"q0_scale": float(rng.uniform(0.0, 0.5)),
                       "sigma_r": float(rng.uniform(0.0, 1.0))},
                      solver_tol=tol), seq, min(T, 25)
    if variant == "nonlin-ftrl":
        seq = losses.sine_drift_quadratic(dim, amplitude=0.7,
                                          period=float(rng.uniform(5.0, 11.0)),
                                          weight=float(rng.uniform(0.5, 2.0)))
        return Driver("nonlin-ftrl", any_set, {"q0_scale": float(rng.uniform(0.3, 1.5))},
                      solver_tol=tol), seq, min(T, 25)
    if variant == "composite-ftrl":
        return Driver("ao-ftrl-prox", box,
                      {"eta_schedule": "scale-free", "eta0": float(rng.uniform(0.5, 2.0)),
                       "hints": "none", "composite_alpha": float(rng.uniform(0.1, 1.0))},
                      solver_tol=tol), linear_seq(), T
    if variant == "composite-md":
        return Driver("md", box, {"q0_scale": float(rng.uniform(0.3, 1.5)),
                                  "sigma_r": float(rng.uniform(0.0, 1.0)),
                                  "composite_alpha": float(rng.uniform(0.1, 1.0))},
                      solver_tol=tol), linear_seq(), T
    raise ValueError(f"unknown run variant {variant!r}")


def decomposition_suite(n_runs: int = 200, seed: int = 0, tol: float = 1e-8) -> dict:
    """Randomized end-to-end runs: the regret identity must close to
    rounding error and the forward bounds must never dip below the realized
    forward regret."""
    rng = np.random.default_rng(seed)
    out = {
        "identity_residual": _entry(),
        "forward_bound": _entry(),
        "full_bound": _entry(),
    }
    for i in range(n_runs):
        driver, seq, T = random_run(rng)
        led = run_rounds(driver, seq, T, rng=np.random.default_rng(int(rng.integers(0, 2 ** 31))))
        x_star = led.feasible_set.sample(rng)
        r_emp = regret.empirical_regret(led, x_star, composite=False)
        resid = regret.decomposition_residual(led, x_star)
        _note(out["identity_residual"], resid <= tol * (1.0 + abs(r_emp)), -resid)
        fwd = regret.forward_regret(led, x_star)
        if led.kind == "ftrl":
            fb = regret.bound_forward_ftrl(led, x_star)
            tb = regret.bound_table2(led, x_star, "oo-ftrl")
        else:
            fb = regret.bound_forward_md(led, x_star)
            tb = regret.bound_table2(led, x_star, "oo-md")
        _note(out["forward_bound"], fb.value >= fwd - tol, fb.value - fwd)
        # the convex full-regret bound dominates the composite-free regret
        r_full = regret.empirical_regret(led, x_star)
        _note(out["full_bound"], tb.value >= r_full - tol, tb.value - r_full)
    return _finish(out)


# -- suite: closed-form bound identities ----------------------------------------

def bounds_suite(seed: int = 0, tol: float = 1e-8) -> dict:
    rng = np.random.default_rng(seed)
    out = {
        "ao_equals_dropped_q": _entry(),
        "optimistic_never_worse_with_perfect_hints": _entry(),
        "variational": _entry(),
        "final_attack": _entry(),
        "scale_free": _entry(),
        "equivalence": _entry(),
    }

    # zero hints: the optimistic bound and the dropped-final-q bound agree
    for k in range(20):
        dim = int(rng.integers(2, 5))
        seq = losses.random_stream(dim, seed=int(rng.integers(0, 10 ** 6)))
        fs = _random_set(rng, dim, kinds=("box", "ball"))
        drv = Driver("ao-ftrl-prox", fs, {"eta_schedule": "scale-free",
                                          "eta0": float(rng.uniform(0.5, 2.0)),
                                          "hints": "none"}, solver_tol=1e-11)
        led = run_rounds(drv, seq, 30)
        x_star = fs.sample(rng)
        ao = regret.bound_ao_ftrl(led, x_star)
        tb = regret.bound_table2(led, x_star, "oo-ftrl", include_final_q=False)
        diff = abs(ao.value - tb.value)
        _note(out["ao_equals_dropped_q"], diff <= 1e-12 * (1.0 + abs(ao.value)), -diff)

    # perfect hints kill the dual-norm term
    for k in range(10):
        dim = int(rng.integers(2, 5))
        seq = losses.random_stream(dim, seed=int(rng.integers(0, 10 ** 6)))
        fs = solvers.Ball(np.zeros(dim), 1.0)
        drv = Driver("ao-ftrl-prox", fs,
                     {"eta_schedule": "final-attack", "smooth_l": 0.5,
                      "hints": "custom"}, hint_fn=seq.vector, solver_tol=1e-11)
        led = run_rounds(drv, seq, 30)
        x_star = fs.sample(rng)
        ao = regret.bound_ao_ftrl(led, x_star)
        _note(out["optimistic_never_worse_with_perfect_hints"],
              ao.terms["hint_err_sum"] <= 1e-12,
              -ao.terms["hint_err_sum"])

    # variational and closed-form schedules on drifting smooth losses
    for k in range(10):
        dim = int(rng.integers(2, 4))
        L = float(rng.uniform(0.5, 1.5))
        R = float(rng.uniform(1.0, 2.0))
        fs = solvers.Ball(np.zeros(dim), R)
        seq = losses.sine_drift_quadratic(dim, amplitude=float(rng.uniform(0.2, 0.6)),
                                          period=float(rng.uniform(6.0, 12.0)), weight=L)
        drv = Driver("ao-ftrl-prox", fs, {"eta_schedule": "final-attack", "radius": R,
                                          "smooth_l": L, "hints": "prev-gradient"},
                     solver_tol=1e-11)
        T = 40
        led = run_rounds(drv, seq, T)
        x_star = regret.select_comparator(led)
        terms = seq.per_round_variation(T, fs)
        inputs = regret.BoundInputs(smoothness=L, radius=R,
                                    variation=float(np.sum(terms)), variation_terms=terms)
        r_emp = regret.empirical_regret(led, x_star)
        try:
            vb = regret.bound_variational_smooth(led, x_star, inputs)
            _note(out["variational"], vb.value >= r_emp - tol, vb.value - r_emp)
        except ValueError:
            # eta condition can fail for small R*L; that is a flagged config,
            # not a bound violation
            _note(out["variational"], True)
        fa = regret.bound_final_attack(led, inputs)
        _note(out["final_attack"], fa.value >= r_emp - tol, fa.value - r_emp)

    # scale-free schedule: iterates invariant under loss scaling
    for k in range(10):
        dim = 3
        base_seed = int(rng.integers(0, 10 ** 6))
        c = float(rng.uniform(10.0, 200.0))
        fs = solvers.Box(-np.ones(dim), np.ones(dim))
        led_a = run_rounds(Driver("ao-ftrl-prox", fs,
                                  {"eta_schedule": "scale-free", "eta0": 1.0,
                                   "hints": "prev-gradient"}, solver_tol=1e-12),
                           losses.random_stream(dim, seed=base_seed, scale=1.0), 30)
        led_b = run_rounds(Driver("ao-ftrl-prox", fs,
                                  {"eta_schedule": "scale-free", "eta0": 1.0,
                                   "hints": "prev-gradient"}, solver_tol=1e-12),
                           losses.random_stream(dim, seed=base_seed, scale=c), 30)
        dev = max(float(np.max(np.abs(ra.x_next - rb.x_next)))
                  for ra, rb in zip(led_a.records, led_b.records))
        _note(out["scale_free"], dev <= 1e-6, -dev)

    # one-step-size equivalence: ftrl with fixed quadratic == md == explicit recursion
    for k in range(10):
        dim = int(rng.integers(2, 5))
        c = float(rng.uniform(2.0, 20.0))
        seq = losses.random_stream(dim, seed=int(rng.integers(0, 10 ** 6)))
        led_f = run_rounds(Driver("ogd", solvers.Unconstrained(dim), {"eta": 1.0 / c},
                                  solver_tol=1e-12), seq, 30)
        led_m = run_rounds(Driver("md", solvers.Unconstrained(dim),
                                  {"q0_scale": c, "sigma_r": 0.0}, solver_tol=1e-12), seq, 30)
        x = np.zeros(dim)
        dev = 0.0
        for rf, rm in zip(led_f.records, led_m.records):
            x = x - rf.g / c
            dev = max(dev, float(np.max(np.abs(rf.x_next - x))),
                      float(np.max(np.abs(rm.x_next - x))))
        _note(out["equivalence"], dev <= 1e-9, -dev)
    return _finish(out)


# -- suite: star-convexity machinery --------------------------------------------

def nonconvex_suite(seed: int = 0, n_probes: int = 10000) -> dict:
    rng = np.random.default_rng(seed)
    out = {
        "star_certificates": _entry(),
        "tau_estimates": _entry(),
        "tau_strong": _entry(),
        "pl_matches_tau": _entry(),
    }
    half = Quadratic(np.zeros(2), QuadMetric.scaled(1.0, 2))

    cases = [
        (losses.quadratic_loss(np.zeros(2)), np.zeros(2), True),
        (losses.two_slope_abs(2), np.zeros(2), True),
        (losses.sqrt_abs(2), np.zeros(2), False),
        (losses.power_product((0.5, 0.7)), np.zeros(2), True),
        (losses.l1_loss(1.0, 2), np.zeros(2), True),
    ]
    for loss, center, expect in cases:
        got = losses.verify_star_convex(loss, center, n_probes=n_probes, rng=rng)
        _note(out["star_certificates"], got == expect)

    taus = [
        (losses.quadratic_loss(np.zeros(2)), 2.0),
        (losses.sqrt_abs(2), 0.5),
        (losses.two_slope_abs(2), 1.0),
        (losses.power_product((0.5, 0.7)), 1.2),
    ]
    for loss, expect in taus:
        est = losses.estimate_tau(loss, np.zeros(2), n_probes=n_probes, rng=rng)
        err = abs(est - expect)
        _note(out["tau_estimates"], err <= 1e-2, -err)

    # f = ||x||^2 against r = (1/2)||x||^2: modulus 2 minus the half gives 1.5
    f2 = losses.quadratic_loss(np.zeros(2), weight=2.0)
    est = losses.estimate_tau_strong(f2, half, np.zeros(2), n_probes=n_probes, rng=rng)
    _note(out["tau_strong"], abs(est - 1.5) <= 1e-2, -abs(est - 1.5))
    _note(out["tau_strong"],
          losses.verify_tau_star_strong(f2, half, np.zeros(2), 1.5,
                                        n_probes=n_probes, rng=rng))

    # a w-strong quadratic satisfies gradient domination with constant w
    # exactly, and with nothing larger
    for w in (0.7, 1.0, 2.0):
        f = losses.quadratic_loss(np.zeros(2), weight=w)
        _note(out["pl_matches_tau"],
              losses.check_pl(f, w, center=np.zeros(2), n_probes=n_probes, rng=rng))
        _note(out["pl_matches_tau"],
              not losses.check_pl(f, 1.1 * w, center=np.zeros(2),
                                  n_probes=n_probes, rng=rng))
    return _finish(out)


# -- suite: scalar lemmas --------------------------------------------------------

def lemma_suite(n: int = 10000, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    out = {"sum_sqrt": _entry()}
    for _ in range(n):
        k = int(rng.integers(1, 30))
        a = rng.uniform(0.0, 3.0, k)
        a[0] = rng.uniform(1e-6, 3.0)
        lhs, rhs = regret.sum_sqrt_check(a)
        _note(out["sum_sqrt"], lhs <= rhs + 1e-12, rhs - lhs)
    lhs, rhs = regret.sum_sqrt_check(np.ones(4))
    _note(out["sum_sqrt"], abs(lhs - 2.7844570503761734) <= 1e-12 and rhs == 4.0)
    return _finish(out)


SUITES = {
    "bregman": bregman_suite,
    "solvers": solver_suite,
    "decomposition": decomposition_suite,
    "bounds": bounds_suite,
    "nonconvex": nonconvex_suite,
    "lemmas": lemma_suite,
}

_FAST_ARGS = {
    "bregman": {"n": 500},
    "solvers": {"n": 60},
    "decomposition": {"n_runs": 30},
    "bounds": {},
    "nonconvex": {"n_probes": 1000},
    "lemmas": {"n": 500},
}


def run_suite(name: str, fast: bool = False, seed: int = 0) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    kwargs = dict(_FAST_ARGS[name]) if fast else {}
    kwargs["seed"] = seed
    return SUITES[name](**kwargs)
