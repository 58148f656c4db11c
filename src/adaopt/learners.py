"""Learner state machines and preset schedules.

Two update families, both reduced to one argmin per round:

    ftrl:  x_{t+1} = argmin_X <g_{1:t}, x> + p_{1:t}(x) + q_{0:t}(x)
    md:    x_{t+1} = argmin_X <g_t, x> + q_t(x) + B_{r_{1:t}}(x, x_t)

The learners keep running aggregates (cumulative linear term, combined
quadratic slots, the quadratic part of r_{1:t}) so a T-round run costs T
solver calls, each O(d) for the closed-form routes.  Every step returns the
emitted regularizer handles and the round's r-divergence, which is all the
regret calculators need.

Optimistic variants are implemented literally as the plain updates with the
hint shift folded into the round regularizer (ftrl) or the round's linear
term (md), so the claimed equivalences hold by construction and tests only
have to confirm them.  Implicit and non-linearized updates are the plain
updates too, with the loss's divergence from x_t folded into q_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import QuadMetric, as_point, quad_norm_sq
from .losses import BregmanAround, is_isotropic_quadratic
from .regularizers import (Difference, L1, Linear, Quadratic, Regularizer,
                           ScheduleState, Sum, Zero, _certified,
                           adagrad_diag_step, adagrad_full_step,
                           adagrad_initial_metric, check_proximal,
                           composite_wrap, final_attack_eta,
                           ftrl_prox_increment, optimistic_shift,
                           proximal_eta_increment, scale_free_eta)
from . import regret, solvers

HINT_POLICIES = ("none", "prev-gradient", "custom")

# preset -> (update family, default parameters)
PRESET_TABLE = {
    "ogd": ("ftrl", {"eta": 0.1}),
    "da": ("ftrl", {"alpha0": 1.0, "alpha_growth": 0.0}),
    "adagrad-da": ("ftrl", {"eta": 1.0, "gamma0": 1.0, "metric": "diag"}),
    "ftrl-prox": ("ftrl", {"eta": 1.0, "gamma0": 0.0, "metric": "diag",
                           "composite_alpha": 0.0,
                           "composite_setting": "revealed-after"}),
    "adagrad-md": ("md", {"eta": 1.0, "gamma0": 1.0, "metric": "diag"}),
    "md": ("md", {"q0_scale": 1.0, "sigma_r": 0.0, "composite_alpha": 0.0,
                  "composite_setting": "revealed-after"}),
    "ao-ftrl-prox": ("ftrl", {"eta_schedule": "scale-free", "eta0": 1.0,
                              "radius": None, "smooth_l": 0.0,
                              "hints": "prev-gradient", "composite_alpha": 0.0,
                              "composite_setting": "revealed-after"}),
    "ao-md": ("md", {"q0_scale": 0.0, "sigma_r": 1.0, "hints": "prev-gradient"}),
    "implicit-md": ("md", {"q0_scale": 0.0, "sigma_r": 1.0}),
    "nonlin-ftrl": ("ftrl", {"q0_scale": 1.0}),
}
PRESETS = tuple(PRESET_TABLE)


@dataclass
class StepResult:
    t: int
    x: np.ndarray
    x_next: np.ndarray
    g: np.ndarray
    hint: np.ndarray
    p: Regularizer
    q: Regularizer
    q_tilde: Regularizer
    psi: object | None
    r_metric: QuadMetric | None
    breg_r: float
    eta: float | None
    certified: bool


def _quad_metric_of(reg, dim: int, extra: list | None = None) -> QuadMetric | None:
    """Combined PSD metric of the quadratic parts, None if any signed part
    makes the curvature uncertifiable.  The parts' metrics were validated
    when they were built; unit-scale parts enter as they are.

    A quadratic loss's divergence is exactly (w/2)||. - x_t||^2 and enters
    as the metric w I; any other loss divergence is appended to ``extra``,
    since folding a strong-convexity estimate on top of the handle would
    count the curvature twice."""
    metric = QuadMetric.zero(dim)

    def walk(r):
        nonlocal metric
        if metric is None or r is None or r.is_zero():
            return
        if isinstance(r, Quadratic):
            if r.scale < 0:
                metric = None
            else:
                metric = metric.add(r.metric if r.scale == 1.0
                                    else r.metric.scale(r.scale))
        elif isinstance(r, Sum):
            for part in r.parts:
                walk(part)
        elif isinstance(r, Difference):
            metric = None
        elif isinstance(r, BregmanAround):
            if is_isotropic_quadratic(r.loss):
                metric = metric.add(QuadMetric.scaled(r.loss.smoothness, dim))
            elif extra is not None:
                extra.append(r)

    walk(reg)
    return metric


def _l1_alpha_of(reg) -> float:
    if isinstance(reg, L1):
        return reg.alpha
    if isinstance(reg, Sum):
        return sum(_l1_alpha_of(p) for p in reg.parts)
    return 0.0


def _pure_quadratic(reg) -> bool:
    if reg is None or reg.is_zero() or isinstance(reg, (Quadratic, Linear)):
        return True
    if isinstance(reg, Sum):
        return all(_pure_quadratic(p) for p in reg.parts)
    return False


class LearnerBase:
    """Shared state: the feasible set, the iterate, the hint trail, and the
    quadratic part of r_{1:t} used to certify dual norms."""

    kind = ""

    def __init__(self, feasible_set, q0: Regularizer | None = None, hint1=None,
                 solver_tol: float = 1e-10, prox_probes: int = 8, seed: int = 0):
        self.feasible_set = feasible_set
        self.dim = feasible_set.dim
        self.q0_tilde = q0 if q0 is not None else Zero()
        self.hint = (np.zeros(self.dim) if hint1 is None
                     else as_point(hint1).copy())
        if np.any(self.hint):
            self.q0 = Sum([self.q0_tilde, Linear(self.hint)])
        else:
            self.q0 = self.q0_tilde
        self.solver_tol = float(solver_tol)
        self.prox_probes = int(prox_probes)
        self._rng = np.random.default_rng(seed)
        self.solver_calls = 0
        self._cert_ok = _certified(self.q0_tilde)
        self.x1 = self._solve_init()
        self.x = self.x1.copy()
        self.t = 0

    def _solve_init(self) -> np.ndarray:
        if self.q0_tilde.is_zero():
            if not np.any(self.hint):
                return self.feasible_set.center()
            return solvers.linear_argmin(self.feasible_set, self.hint)
        obj = solvers.Objective.build(self.feasible_set, linear=self.hint,
                                      regularizer=self.q0_tilde)
        x1 = solvers.minimize(obj, tol=self.solver_tol)
        self.solver_calls += 1
        return x1

    def _finish(self, res: StepResult) -> StepResult:
        self.t = res.t
        self.x = res.x_next
        return res


class FtrlLearner(LearnerBase):
    """Follow-the-regularized-leader over accumulated linear and
    regularizer terms.  r_{1:t} = p_{1:t} + q_{0:t-1}: the round-t metric
    snapshot includes p_t but not q_t."""

    kind = "ftrl"

    def __init__(self, feasible_set, q0=None, hint1=None, **kw):
        super().__init__(feasible_set, q0, hint1, **kw)
        self._obj = solvers.Objective.build(self.feasible_set, linear=self.hint,
                                            regularizer=self.q0_tilde)
        self._r_metric = _quad_metric_of(self.q0_tilde, self.dim)
        self._r_l1 = _l1_alpha_of(self.q0_tilde)
        self._r_extra = []      # non-quadratic divergence handles inside r

    def _breg_r(self, r_metric, r_l1, y, x) -> float:
        total = 0.0
        if r_metric is not None:
            total += 0.5 * quad_norm_sq(r_metric, y - x)
        if r_l1 > 0.0:
            total += L1(r_l1).bregman(y, x)
        for h in self._r_extra:
            total += h.bregman(y, x)
        return total

    def ftrl_step(self, g, p_t=None, q_t=None, *, q_tilde=None, psi=None,
                  eta=None) -> StepResult:
        """One round on the gradient g, which Driver.round has validated.

        A q_t carrying a loss's divergence from x_t is the non-linearized
        update: the objective folds that divergence in (see Objective)."""
        p_t = p_t if p_t is not None else Zero()
        q_t = q_t if q_t is not None else Zero()
        q_tilde = q_tilde if q_tilde is not None else q_t
        x_t = self.x
        check_proximal(p_t, x_t, self.feasible_set, rng=self._rng,
                       n_probes=self.prox_probes)

        pm = _quad_metric_of(p_t, self.dim)
        r_metric = None if (self._r_metric is None or pm is None) \
            else self._r_metric.add(pm)
        r_l1 = self._r_l1 + _l1_alpha_of(p_t)

        self._obj.add_regularizer(p_t)
        self._obj.add_regularizer(q_t)
        self._obj.lin = self._obj.lin + g
        self._obj.init = x_t
        x_next = solvers.minimize(self._obj, tol=self.solver_tol)
        self.solver_calls += 1

        breg = self._breg_r(r_metric, r_l1, x_next, x_t)
        self._cert_ok = (self._cert_ok and r_metric is not None
                         and _certified(p_t) and _certified(q_t))

        qm = _quad_metric_of(q_t, self.dim, self._r_extra)
        self._r_metric = None if (r_metric is None or qm is None) \
            else r_metric.add(qm)
        self._r_l1 = r_l1 + _l1_alpha_of(q_t)

        return self._finish(StepResult(
            t=self.t + 1, x=x_t, x_next=x_next, g=g, hint=self.hint,
            p=p_t, q=q_t, q_tilde=q_tilde, psi=psi,
            r_metric=r_metric, breg_r=breg, eta=eta, certified=self._cert_ok))

    def ao_ftrl_step(self, g, hint_next, p_t=None, q_tilde=None, psi=None,
                     eta=None) -> StepResult:
        """Optimistic step: exactly ftrl_step with the hint change folded
        into the round regularizer, so the two updates coincide by
        construction."""
        q_tilde = q_tilde if q_tilde is not None else Zero()
        hint_next = as_point(hint_next)
        q_t = optimistic_shift(q_tilde, self.hint, hint_next)
        res = self.ftrl_step(g, p_t=p_t, q_t=q_t, q_tilde=q_tilde,
                             psi=psi, eta=eta)
        self.hint = hint_next.copy()
        return res


class MdLearner(LearnerBase):
    """Mirror descent anchored at the running iterate.

    Each round solves argmin <g_t, x> + q_t(x) + B_{r_{1:t}}(x, x_t) in one
    call; r_t must be quadratic-family so the anchor divergence is exact.
    p_t := r_t - q_{t-1} is reported for the bound calculators, with the
    convention that (+inf) - (+inf) = +inf.
    """

    kind = "md"

    def __init__(self, feasible_set, q0=None, hint1=None, **kw):
        super().__init__(feasible_set, q0, hint1, **kw)
        self._r_metric = QuadMetric.zero(self.dim)
        self._q_prev = self.q0

    def md_step(self, g, q_t=None, r_t=None, *, q_tilde=None, psi=None,
                eta=None) -> StepResult:
        """One round on the gradient g, which Driver.round has validated.

        A q_t carrying a loss's divergence from x_t is the implicit
        update: the objective folds that divergence in (see Objective)."""
        q_t = q_t if q_t is not None else Zero()
        r_t = r_t if r_t is not None else Zero()
        q_tilde = q_tilde if q_tilde is not None else q_t
        if not _pure_quadratic(r_t):
            raise ValueError("mirror-descent rounds need quadratic-family r_t")
        rm = _quad_metric_of(r_t, self.dim)
        if rm is None:
            raise ValueError("r_t has negative curvature, anchor undefined")
        x_t = self.x
        r_metric = self._r_metric.add(rm)
        p_t = Difference(r_t, self._q_prev)

        obj = solvers.Objective.build(self.feasible_set, linear=g,
                                      regularizer=q_t)
        obj.add_quadratic(x_t, r_metric, 1.0)
        obj.init = x_t
        x_next = solvers.minimize(obj, tol=self.solver_tol)
        self.solver_calls += 1

        breg = 0.5 * quad_norm_sq(r_metric, x_next - x_t)
        self._cert_ok = self._cert_ok and _certified(q_t)
        self._r_metric = r_metric
        self._q_prev = q_t

        return self._finish(StepResult(
            t=self.t + 1, x=x_t, x_next=x_next, g=g, hint=self.hint,
            p=p_t, q=q_t, q_tilde=q_tilde, psi=psi,
            r_metric=r_metric, breg_r=breg, eta=eta, certified=self._cert_ok))

    def ao_md_step(self, g, hint_next, q_tilde=None, r_t=None, psi=None,
                   eta=None) -> StepResult:
        """Optimistic step in one solver call: the hint change rides in the
        round regularizer as a linear term, which the objective folds into
        its linear slot."""
        q_tilde = q_tilde if q_tilde is not None else Zero()
        hint_next = as_point(hint_next)
        q_t = optimistic_shift(q_tilde, self.hint, hint_next)
        res = self.md_step(g, q_t=q_t, r_t=r_t, q_tilde=q_tilde,
                           psi=psi, eta=eta)
        self.hint = hint_next.copy()
        return res


# -- preset schedules ----------------------------------------------------------

def preset_defaults(preset: str) -> dict:
    if preset not in PRESET_TABLE:
        raise ValueError(f"unknown preset {preset!r}; known: {', '.join(PRESETS)}")
    return dict(PRESET_TABLE[preset][1])


def _positive(params, key):
    v = float(params[key])
    if not math.isfinite(v) or v <= 0:
        raise ValueError(f"{key} must be a positive finite number, got {params[key]}")
    return v


def _non_negative(params, key):
    v = float(params[key])
    if not math.isfinite(v) or v < 0:
        raise ValueError(f"{key} must be a non-negative finite number, got {params[key]}")
    return v


class Driver:
    """Binds a learner to a preset schedule.

    ``round`` emits the round's regularizers, invokes the matching step,
    and threads hint and step-size state.  Presets needing the loss handle
    itself (implicit, non-linearized) set ``needs_loss``.  The preset's
    parameters are parsed once, here; ``round`` validates the gradient.
    """

    def __init__(self, preset: str, feasible_set, params: dict | None = None,
                 hint_fn=None, solver_tol: float = 1e-10, seed: int = 0):
        merged = preset_defaults(preset)
        unknown = set(params or ()) - set(merged)
        if unknown:
            raise ValueError(f"preset {preset} got unknown parameters: {sorted(unknown)}")
        merged.update(params or {})
        self.preset = preset
        self.params = merged
        self.feasible_set = feasible_set
        self.hint_fn = hint_fn
        self._sched = ScheduleState()
        self._eta_prev = 0.0
        self.needs_loss = preset in ("implicit-md", "nonlin-ftrl")

        d = feasible_set.dim
        # the center of every origin-centered quadratic the schedules emit
        self._origin = np.zeros(d)
        self.hint_policy = merged.get("hints", "none")
        if self.hint_policy not in HINT_POLICIES:
            raise ValueError(f"unknown hint policy {self.hint_policy!r}")
        if self.hint_policy == "custom" and hint_fn is None:
            raise ValueError("custom hint policy needs a hint function")

        self.composite_alpha = _non_negative(merged, "composite_alpha") \
            if "composite_alpha" in merged else 0.0
        self.composite_setting = merged.get("composite_setting", "revealed-after")
        if self.composite_alpha > 0 and not isinstance(
                feasible_set, (solvers.Unconstrained, solvers.Box)):
            raise ValueError("composite runs support box and free sets only")
        self.composite = self.composite_alpha > 0
        self._parse_schedule(merged)

        q0 = self._initial_regularizer(d)
        if self.composite and self.composite_setting == "known-before":
            q0 = composite_wrap(q0, self._psi(1), "known-before")
        hint1 = self._hint(1, None)
        cls = MdLearner if PRESET_TABLE[preset][0] == "md" else FtrlLearner
        self.learner = cls(feasible_set, q0=q0, hint1=hint1,
                           solver_tol=solver_tol, seed=seed)

    # -- schedule pieces ------------------------------------------------

    def _parse_schedule(self, p: dict):
        """Check and store the preset's numeric parameters."""
        if self.preset == "ogd":
            self._eta = _positive(p, "eta")
        elif self.preset == "da":
            self._alpha0 = _positive(p, "alpha0")
            self._alpha_growth = _non_negative(p, "alpha_growth")
        elif self.preset in ("adagrad-da", "ftrl-prox", "adagrad-md"):
            self._eta = _positive(p, "eta")
            self._gamma0 = _non_negative(p, "gamma0")
            if p["metric"] not in ("diag", "full"):
                raise ValueError(f"metric must be diag or full, got {p['metric']!r}")
            self._adagrad_step = adagrad_full_step if p["metric"] == "full" \
                else adagrad_diag_step
        elif self.preset == "ao-ftrl-prox":
            if p["eta_schedule"] == "scale-free":
                self._eta0 = _positive(p, "eta0")
            elif p["eta_schedule"] == "final-attack":
                self._radius = self._schedule_radius()
                self._smooth_l = _non_negative(p, "smooth_l")
            else:
                raise ValueError(f"unknown eta schedule {p['eta_schedule']!r}")
        else:
            self._q0_scale = _non_negative(p, "q0_scale")
            if "sigma_r" in p:
                self._sigma_r = _non_negative(p, "sigma_r")

    def _initial_regularizer(self, d):
        if self.preset == "ogd":
            return Quadratic(self._origin, QuadMetric.scaled(1.0 / self._eta, d))
        if self.preset == "da":
            return Quadratic(self._origin, QuadMetric.scaled(self._alpha0, d))
        if self.preset in ("adagrad-da", "ftrl-prox", "adagrad-md"):
            if self.preset == "adagrad-da" and self._gamma0 <= 0:
                raise ValueError("adagrad-da needs gamma0 > 0 to keep round-1 "
                                 "regularization non-degenerate")
            if self._gamma0 > 0 and self.preset != "adagrad-md":
                return Quadratic(self._origin,
                                 adagrad_initial_metric(d, self._eta, self._gamma0))
            return Zero()
        if self.preset in ("md", "ao-md", "implicit-md", "nonlin-ftrl"):
            if self._q0_scale == 0.0:
                return Zero()
            return Quadratic(self._origin, QuadMetric.scaled(self._q0_scale, d))
        if self.preset == "ao-ftrl-prox":
            return Zero()
        raise AssertionError(self.preset)

    def _md_r(self, t: int, d: int):
        if t == 1:
            scale = self._q0_scale + self._sigma_r
        else:
            scale = self._sigma_r
        if scale == 0.0:
            return Zero()
        return Quadratic(self._origin, QuadMetric.scaled(scale, d))

    def _psi(self, t: int):
        return L1(self.composite_alpha) if self.composite else None

    def _hint(self, t: int, g_prev):
        """The hint for round t's gradient, decided before g_t arrives."""
        if self.hint_policy == "none":
            return None if g_prev is None else np.zeros(self.feasible_set.dim)
        if self.hint_policy == "prev-gradient":
            return g_prev
        return as_point(self.hint_fn(t))

    def schedule_info(self) -> dict:
        info = {"preset": self.preset, "params": dict(self.params)}
        if self.preset == "ao-ftrl-prox":
            info["name"] = self.params["eta_schedule"]
            info["smooth_l"] = self.params["smooth_l"]
            if self.params["eta_schedule"] == "final-attack":
                info["radius"] = self._radius
        return info

    def _schedule_radius(self) -> float:
        r = self.params.get("radius")
        if r is not None:
            return _positive({"radius": r}, "radius")
        half = 0.5 * self.feasible_set.diameter()
        if not math.isfinite(half) or half <= 0:
            raise ValueError("schedule needs an explicit radius on this set")
        return half

    # -- the per-round dispatch ------------------------------------------

    def round(self, t: int, loss=None, g=None) -> StepResult:
        d = self.feasible_set.dim
        lrn = self.learner

        if self.needs_loss:
            if loss is None:
                raise ValueError(f"preset {self.preset} needs the loss handle")
            # implicit / non-linearized: g_t is the loss gradient at x_t and
            # q_t = B_f(., x_t) + q~_t, with q~_t = 0
            div = BregmanAround(loss, lrn.x)
            q_t = Sum([div, Zero()])
            if lrn.kind == "md":
                return lrn.md_step(div.g_anchor, q_t=q_t, r_t=self._md_r(t, d))
            return lrn.ftrl_step(div.g_anchor, q_t=q_t)

        # the round's one validation of g; the schedule and step trust it
        try:
            g = as_point(g)
        except ValueError as e:
            raise ValueError(f"round {t}: gradient: {e}") from None
        if g.size != d:
            raise ValueError(f"round {t}: gradient has dim {g.size}, learner has {d}")
        psi = self._psi(t)
        if self.composite:
            if self.composite_setting == "known-before":
                folded = self._psi(t + 1)
            else:
                folded = psi
        else:
            folded = None

        if self.preset == "ogd":
            return lrn.ftrl_step(g, psi=psi)
        if self.preset == "da":
            alpha_t = self._alpha_growth * (math.sqrt(t + 1.0) - math.sqrt(float(t)))
            q_t = Zero() if alpha_t == 0.0 else \
                Quadratic(self._origin, QuadMetric.scaled(alpha_t, d))
            return lrn.ftrl_step(g, q_t=q_t, psi=psi)
        if self.preset == "adagrad-da":
            incr, _ = self._adagrad_step(self._sched, g, self._eta, self._gamma0)
            return lrn.ftrl_step(g, q_t=Quadratic(self._origin, incr), psi=psi)
        if self.preset == "ftrl-prox":
            incr, _ = self._adagrad_step(self._sched, g, self._eta, self._gamma0)
            p_t = ftrl_prox_increment(lrn.x, incr)
            q_t = composite_wrap(Zero(), folded, self.composite_setting)
            return lrn.ftrl_step(g, p_t=p_t, q_t=q_t, psi=psi)
        if self.preset == "adagrad-md":
            incr, _ = self._adagrad_step(self._sched, g, self._eta, self._gamma0)
            return lrn.md_step(g, r_t=ftrl_prox_increment(lrn.x, incr), psi=psi)
        if self.preset == "md":
            q_t = composite_wrap(Zero(), folded, self.composite_setting)
            return lrn.md_step(g, q_t=q_t, r_t=self._md_r(t, d), psi=psi)
        if self.preset == "ao-ftrl-prox":
            hint_t = lrn.hint
            eta_t = self._eta_t(g, hint_t)
            p_t = proximal_eta_increment(lrn.x, eta_t, self._eta_prev)
            self._eta_prev = eta_t
            q_tilde = composite_wrap(Zero(), folded, self.composite_setting)
            hint_next = self._next_hint(t, g)
            return lrn.ao_ftrl_step(g, hint_next, p_t=p_t, q_tilde=q_tilde,
                                    psi=psi, eta=eta_t)
        if self.preset == "ao-md":
            hint_next = self._next_hint(t, g)
            return lrn.ao_md_step(g, hint_next, q_tilde=Zero(),
                                  r_t=self._md_r(t, d), psi=psi)
        raise AssertionError(self.preset)

    def _eta_t(self, g, hint):
        if self.params["eta_schedule"] == "scale-free":
            return scale_free_eta(self._sched, g, hint, self._eta0)
        return final_attack_eta(self._sched, g, hint, self._radius, self._smooth_l)

    def _next_hint(self, t: int, g):
        h = self._hint(t + 1, g)
        return np.zeros(self.feasible_set.dim) if h is None else h


def run_rounds(driver: Driver, seq, T: int, rng=None) -> regret.Ledger:
    """Play T rounds and return the full ledger.

    The feedback order is fixed: the loss is revealed, the (possibly noisy)
    gradient is drawn at the current iterate, the learner steps.  All
    randomness comes from ``rng``, so runs are reproducible bit for bit.
    """
    if T < 1:
        raise ValueError("need at least one round")
    if rng is None:
        rng = np.random.default_rng(0)
    lrn = driver.learner
    records = []
    for t in range(1, T + 1):
        loss_t = seq.loss(t)
        x_t = lrn.x.copy()
        if driver.needs_loss:
            if seq.stochastic:
                raise ValueError(f"preset {driver.preset} needs exact losses")
            res = driver.round(t, loss=loss_t)
            sigma = None
        else:
            if seq.stochastic:
                g, sigma = seq.gradient(t, x_t, rng)
            else:
                # exact feedback is the revealed loss's own gradient
                g = loss_t.grad(x_t)
                sigma = np.zeros_like(g)
            res = driver.round(t, g=g)
        records.append(regret.RoundRecord(
            t=t, x=x_t, x_next=res.x_next, g=res.g, hint=res.hint,
            loss=loss_t, loss_value=loss_t.value(x_t), sigma=sigma,
            psi=res.psi, p=res.p, q=res.q, q_tilde=res.q_tilde,
            r_metric=res.r_metric, breg_r=res.breg_r, eta=res.eta,
            certified=res.certified))
    return regret.Ledger(
        records=records, x1=lrn.x1, q0=lrn.q0, q0_tilde=lrn.q0_tilde,
        feasible_set=driver.feasible_set, kind=lrn.kind, seq=seq,
        composite=driver.composite, stochastic=bool(seq.stochastic),
        schedule=driver.schedule_info(), solver_calls=lrn.solver_calls)
