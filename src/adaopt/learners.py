"""Learner state machines and preset schedules.

Two update families, both reduced to one argmin per round:

    ftrl:  x_{t+1} = argmin_X <g_{1:t}, x> + p_{1:t}(x) + q_{0:t}(x)
    md:    x_{t+1} = argmin_X <g_t, x> + q_t(x) + B_{r_{1:t}}(x, x_t)

Both families play a round through ``LearnerBase.step(g, prox, q_t)``; the
proximal term is p_t for ftrl and r_t for md, what r_{1:t} adds to r_{1:t-1}
either way.  ``step`` classifies the proximal term and q_t once each
(``regularizers.classify``); a family adds only its argmin (``_solve``)
and ``carries_q``, whether q_t enters r (ftrl) or not (md).  The learners
keep running aggregates so a T-round run costs T solver calls, each O(d)
for the closed-form routes.  A step returns what the regret calculators
need besides the emitted handles: p_t, the metric of r_{1:t} and the
round's r-divergence.

Every preset plays its rounds through one path, ``Driver.round``.  The
preset's schedule emits the proximal term and q~_t; a composite term is
folded into q~_t; an implicit or non-linearized preset adds the loss's
divergence from x_t; an optimistic preset shifts q~_t by the hint change.
So the composite, implicit, non-linearized and optimistic variants are the
plain updates with one more term in q_t: the claimed equivalences hold by
construction and tests only have to confirm them.
"""

from __future__ import annotations

import math

import numpy as np

from .core import QuadMetric, as_point, quad_norm_sq
from .losses import BregmanAround
from .regularizers import (COMPOSITE_SETTINGS, Difference, L1, Linear,
                           Quadratic, Regularizer, ScheduleState, Sum, Zero,
                           adagrad_diag_step, adagrad_full_step,
                           adagrad_initial_metric, check_proximal, classify,
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


# probes of the proximal condition for a p_t not centered at x_t
PROX_PROBES = 8


class LearnerBase:
    """Shared state: the feasible set, the iterate, whether every
    regularizer emitted so far is certified, and r_{1:t}'s quadratic metric
    (None once a signed part makes it uncertifiable), l1 weight and
    non-quadratic divergence handles.  The first iterate minimizes
    q_0 = q~_0 + <hint_1, .> over the set.  A family supplies
    ``_solve(g, prox, q_t, r_metric, prox_terms)`` -> (p_t, x_{t+1}) and
    ``carries_q``, whether q_t enters r_{1:t+1}."""

    kind = ""
    carries_q = True

    def __init__(self, feasible_set, q0: Regularizer | None = None, hint1=None,
                 solver_tol: float = 1e-10, seed: int = 0):
        self.feasible_set = feasible_set
        self.dim = feasible_set.dim
        self.q0_tilde = q0 if q0 is not None else Zero()
        self.hint1 = (np.zeros(self.dim) if hint1 is None
                      else as_point(hint1).copy())
        if np.any(self.hint1):
            self.q0 = Sum([self.q0_tilde, Linear(self.hint1)])
        else:
            self.q0 = self.q0_tilde
        self.solver_tol = float(solver_tol)
        self._rng = np.random.default_rng(seed)
        self.solver_calls = 0
        self.x1 = self._solve_init(solvers.Objective.build(
            self.feasible_set, linear=self.hint1, regularizer=self.q0_tilde))
        self.x = self.x1.copy()
        self.t = 0
        q0_terms = classify(self.q0_tilde, self.dim)
        self.certified = q0_terms.certified
        if self.carries_q:
            self._r_metric, self._r_l1 = q0_terms.metric, q0_terms.l1
        else:
            self._r_metric, self._r_l1 = QuadMetric.zero(self.dim), 0.0
        # non-quadratic divergence handles inside r
        self._r_extra = list(q0_terms.handles) if self.carries_q else []

    def _solve_init(self, obj) -> np.ndarray:
        """x_1, the argmin of ``obj`` = q~_0 + <hint_1, .>."""
        if self.q0_tilde.is_zero():
            if not np.any(self.hint1):
                return self.feasible_set.center()
            return solvers.linear_argmin(self.feasible_set, self.hint1)
        x1 = solvers.minimize(obj, tol=self.solver_tol)
        self.solver_calls += 1
        return x1

    def step(self, g, prox: Regularizer, q_t: Regularizer):
        """One round on the gradient g, which Driver.round has validated;
        returns (p_t, metric of r_{1:t}, B_{r_{1:t}}(x_{t+1}, x_t)).

        A q_t carrying a loss's divergence from x_t is the implicit or
        non-linearized update: the objective folds that divergence in."""
        x_t = self.x
        pt = classify(prox, self.dim)
        r_metric = None if (self._r_metric is None or pt.metric is None) \
            else self._r_metric.add(pt.metric)
        r_l1 = self._r_l1 + pt.l1
        p_t, x_next = self._solve(g, prox, q_t, r_metric, pt)
        self._r_extra.extend(pt.handles)

        breg = 0.0
        if r_metric is not None:
            breg += 0.5 * quad_norm_sq(r_metric, x_next - x_t)
        if r_l1 > 0.0:
            breg += L1(r_l1).bregman(x_next, x_t)
        for h in self._r_extra:
            breg += h.bregman(x_next, x_t)

        qt = classify(q_t, self.dim)
        self.certified = (self.certified and r_metric is not None
                          and pt.certified and qt.certified)
        self._r_metric, self._r_l1 = r_metric, r_l1
        if self.carries_q:
            self._r_extra.extend(qt.handles)
            self._r_metric = None if (r_metric is None or qt.metric is None) \
                else r_metric.add(qt.metric)
            self._r_l1 = r_l1 + qt.l1
        self.solver_calls += 1
        self.t += 1
        self.x = x_next
        return p_t, r_metric, breg


class FtrlLearner(LearnerBase):
    """Follow-the-regularized-leader over accumulated linear and
    regularizer terms.  r_{1:t} = p_{1:t} + q_{0:t-1}: the round-t metric
    snapshot includes p_t but not q_t."""

    kind = "ftrl"

    def _solve_init(self, obj):
        self._obj = obj     # the running objective starts at q~_0 + <hint_1, .>
        return super()._solve_init(obj)

    def _solve(self, g, p_t, q_t, r_metric, p_terms):
        x_t = self.x
        check_proximal(p_t, x_t, self.feasible_set, rng=self._rng,
                       n_probes=PROX_PROBES)
        self._obj.add_regularizer(p_t)
        self._obj.add_regularizer(q_t)
        self._obj.lin = self._obj.lin + g
        self._obj.init = x_t
        return p_t, solvers.minimize(self._obj, tol=self.solver_tol)


class MdLearner(LearnerBase):
    """Mirror descent anchored at the running iterate.

    Each round solves argmin <g_t, x> + q_t(x) + B_{r_{1:t}}(x, x_t) in one
    call; r_t must be quadratic-family so the anchor divergence is exact.
    r_t already carries q_{t-1}'s share of r, so q_t does not enter r.
    p_t := r_t - q_{t-1} is reported for the bound calculators, with the
    convention that (+inf) - (+inf) = +inf.
    """

    kind = "md"
    carries_q = False

    def __init__(self, feasible_set, q0=None, hint1=None, **kw):
        super().__init__(feasible_set, q0, hint1, **kw)
        self._q_prev = self.q0

    def _solve(self, g, r_t, q_t, r_metric, r_terms):
        if not r_terms.quadratic:
            raise ValueError("mirror-descent rounds need quadratic-family r_t")
        if r_metric is None:
            raise ValueError("r_t has negative curvature, anchor undefined")
        x_t = self.x
        p_t = Difference(r_t, self._q_prev)
        obj = solvers.Objective.build(self.feasible_set, linear=g,
                                      regularizer=q_t)
        obj.add_quadratic(x_t, r_metric, 1.0)
        obj.init = x_t
        x_next = solvers.minimize(obj, tol=self.solver_tol)
        self._q_prev = q_t
        return p_t, x_next


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
    """Binds a learner to a preset schedule and plays its rounds.

    ``__init__`` parses the preset's parameters once, and q~_0 with them.
    ``round`` is the one round path of every preset: it validates g_t (a
    preset that ``needs_loss`` takes g_t = grad f_t(x_t) and
    q~_t = B_f(., x_t) instead), asks the schedule for (proximal term, q~_t,
    eta_t), folds the composite term psi in when the run is composite,
    shifts q~_t by the hint change when the preset has hints, calls the
    family's ``step`` and returns the round's ``regret.RoundRecord``.
    Preset names are read in two places only: ``_parse`` and ``_emit``.
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
        self.family = PRESET_TABLE[preset][0]
        self.feasible_set = feasible_set
        self.hint_fn = hint_fn
        self._sched = ScheduleState()
        self._eta_prev = 0.0
        self.needs_loss = preset in ("implicit-md", "nonlin-ftrl")

        # the center of every origin-centered quadratic the schedules emit
        self._origin = np.zeros(feasible_set.dim)
        self.optimistic = "hints" in merged
        self.hint_policy = merged.get("hints", "none")
        if self.hint_policy not in HINT_POLICIES:
            raise ValueError(f"unknown hint policy {self.hint_policy!r}")
        if self.hint_policy == "custom" and hint_fn is None:
            raise ValueError("custom hint policy needs a hint function")

        alpha = _non_negative(merged, "composite_alpha") \
            if "composite_alpha" in merged else 0.0
        self.composite_setting = merged.get("composite_setting", "revealed-after")
        if self.composite_setting not in COMPOSITE_SETTINGS:
            raise ValueError(f"unknown composite setting {self.composite_setting!r}")
        if alpha > 0 and not isinstance(
                feasible_set, (solvers.Unconstrained, solvers.Box)):
            raise ValueError("composite runs support box and free sets only")
        self.composite = alpha > 0
        self.psi = L1(alpha) if self.composite else None

        q0 = self._parse(merged)
        if self.composite and self.composite_setting == "known-before":
            if q0.is_zero():
                # x_1 would minimize psi alone, which has no unique minimizer
                raise ValueError(
                    f"preset {preset} with composite_setting known-before needs "
                    "a q~_0 with quadratic curvature, and its parameters give "
                    "none")
            q0 = composite_wrap(q0, self.psi)
        self.hint = self._hint(1, None).copy()
        cls = MdLearner if self.family == "md" else FtrlLearner
        self.learner = cls(feasible_set, q0=q0, hint1=self.hint,
                           solver_tol=solver_tol, seed=seed)

    # -- schedule pieces ------------------------------------------------

    def _iso(self, scale: float) -> Regularizer:
        """(scale/2) ||x||^2, or Zero for scale 0."""
        if scale == 0.0:
            return Zero()
        return Quadratic(self._origin, QuadMetric.scaled(scale, self.feasible_set.dim))

    def _parse(self, p: dict) -> Regularizer:
        """Check and store the preset's numeric parameters; return q~_0."""
        if self.preset == "ogd":
            return self._iso(1.0 / _positive(p, "eta"))
        if self.preset == "da":
            alpha0 = _positive(p, "alpha0")
            self._alpha_growth = _non_negative(p, "alpha_growth")
            return self._iso(alpha0)
        if self.preset in ("adagrad-da", "ftrl-prox", "adagrad-md"):
            self._eta = _positive(p, "eta")
            self._gamma0 = _non_negative(p, "gamma0")
            if p["metric"] not in ("diag", "full"):
                raise ValueError(f"metric must be diag or full, got {p['metric']!r}")
            self._adagrad_step = adagrad_full_step if p["metric"] == "full" \
                else adagrad_diag_step
            if self.family == "md" and p["metric"] == "full" \
                    and self.feasible_set.dim > 1:
                # an md round has no curvature but r_1's, which is rank one
                raise ValueError(f"preset {self.preset} with metric full needs "
                                 "dim 1: its round-1 metric is rank one")
            if self.preset == "adagrad-da" and self._gamma0 <= 0:
                raise ValueError("adagrad-da needs gamma0 > 0 to keep round-1 "
                                 "regularization non-degenerate")
            if self._gamma0 > 0 and self.family == "ftrl":
                return Quadratic(self._origin, adagrad_initial_metric(
                    self.feasible_set.dim, self._eta, self._gamma0))
            return Zero()
        if self.preset == "ao-ftrl-prox":
            if p["eta_schedule"] == "scale-free":
                self._eta0 = _positive(p, "eta0")
            elif p["eta_schedule"] == "final-attack":
                self._radius = self._schedule_radius()
                self._smooth_l = _non_negative(p, "smooth_l")
            else:
                raise ValueError(f"unknown eta schedule {p['eta_schedule']!r}")
            return Zero()
        # md, ao-md, implicit-md, nonlin-ftrl
        self._q0_scale = _non_negative(p, "q0_scale")
        if "sigma_r" in p:
            self._sigma_r = _non_negative(p, "sigma_r")
        return self._iso(self._q0_scale)

    def _emit(self, t: int, g, x_t):
        """Round t's (proximal term, q~_t, eta_t): the proximal term is p_t
        for ftrl and r_t for md; eta_t is recorded for the optimistic
        step-size schedules and None elsewhere."""
        if self.preset in ("adagrad-da", "ftrl-prox", "adagrad-md"):
            incr, _ = self._adagrad_step(self._sched, g, self._eta, self._gamma0)
            if self.preset == "adagrad-da":
                return Zero(), Quadratic(self._origin, incr), None
            return ftrl_prox_increment(x_t, incr), Zero(), None
        if self.preset == "ao-ftrl-prox":
            if self.params["eta_schedule"] == "scale-free":
                eta_t = scale_free_eta(self._sched, g, self.hint, self._eta0)
            else:
                eta_t = final_attack_eta(self._sched, g, self.hint,
                                         self._radius, self._smooth_l)
            p_t = proximal_eta_increment(x_t, eta_t, self._eta_prev)
            self._eta_prev = eta_t
            return p_t, Zero(), eta_t
        if self.preset == "da":
            alpha_t = self._alpha_growth * (math.sqrt(t + 1.0) - math.sqrt(float(t)))
            return Zero(), self._iso(alpha_t), None
        if self.family == "md":
            # md, ao-md, implicit-md: r_1 also carries q~_0's scale
            scale = self._q0_scale + self._sigma_r if t == 1 else self._sigma_r
            return self._iso(scale), Zero(), None
        return Zero(), Zero(), None     # ogd, nonlin-ftrl

    def _hint(self, t: int, g_prev):
        """The hint for round t's gradient, decided before g_t arrives."""
        if self.hint_policy == "custom":
            return as_point(self.hint_fn(t))
        if self.hint_policy == "none" or g_prev is None:
            return np.zeros(self.feasible_set.dim)
        return g_prev

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

    # -- the round ---------------------------------------------------------

    def round(self, t: int, loss, g=None, sigma=None) -> regret.RoundRecord:
        """Play round t on the revealed loss: g is the gradient feedback at
        x_t and sigma its noise level; a preset that ``needs_loss`` takes
        g from the loss itself."""
        lrn = self.learner
        x_t = lrn.x
        if self.needs_loss:
            div = BregmanAround(loss, x_t)
            g = div.g_anchor
        else:
            # the round's one validation of g; the schedule and step trust it
            try:
                g = as_point(g)
            except ValueError as e:
                raise ValueError(f"round {t}: gradient: {e}") from None
            if g.size != lrn.dim:
                raise ValueError(f"round {t}: gradient has dim {g.size}, "
                                 f"learner has {lrn.dim}")

        prox, q_tilde, eta = self._emit(t, g, x_t)
        if self.composite:
            q_tilde = composite_wrap(q_tilde, self.psi)
        if self.needs_loss:
            # implicit / non-linearized: q_t = B_f(., x_t) + q~_t
            q_tilde = Sum([div, q_tilde])
        hint = self.hint
        q_t = q_tilde
        if self.optimistic:
            hint_next = self._hint(t + 1, g)
            q_t = optimistic_shift(q_tilde, hint, hint_next)
            self.hint = hint_next.copy()

        p_t, r_metric, breg = lrn.step(g, prox, q_t)
        return regret.RoundRecord(
            t=t, x=x_t.copy(), x_next=lrn.x, g=g, hint=hint, loss=loss,
            loss_value=loss.value(x_t), sigma=sigma, psi=self.psi, p=p_t,
            q=q_t, q_tilde=q_tilde, r_metric=r_metric, breg_r=breg, eta=eta,
            certified=lrn.certified)


def run_rounds(driver: Driver, seq, T: int, rng=None) -> regret.Ledger:
    """Play T rounds and return the full ledger.

    The feedback order is fixed: the loss is revealed, the (possibly noisy)
    gradient is drawn at the current iterate, the learner steps.  All
    randomness comes from ``rng``, so runs are reproducible bit for bit.
    """
    if T < 1:
        raise ValueError("need at least one round")
    if driver.needs_loss and seq.stochastic:
        raise ValueError(f"preset {driver.preset} needs exact losses")
    if rng is None:
        rng = np.random.default_rng(0)
    lrn = driver.learner
    # the ledger's columns; each record's x, x_next and g become row views
    x = np.empty((T + 1, lrn.dim))
    g_col = np.empty((T, lrn.dim))
    loss_value = np.empty(T)
    x[0] = lrn.x1
    records = []
    for t in range(1, T + 1):
        loss_t = seq.loss(t)
        if driver.needs_loss:
            rec = driver.round(t, loss_t)
        else:
            if seq.stochastic:
                g, sigma = seq.gradient(t, lrn.x, rng)
            else:
                # exact feedback is the revealed loss's own gradient
                g = loss_t.grad(lrn.x)
                sigma = np.zeros_like(g)
            rec = driver.round(t, loss_t, g, sigma)
        i = t - 1
        x[t], g_col[i], loss_value[i] = rec.x_next, rec.g, rec.loss_value
        # the learner plays on from the column's row, so whatever the next
        # round centres at x_{t+1} (a proximal term, a divergence anchor)
        # shares the ledger's copy
        lrn.x = rec.x_next = x[t]
        rec.x, rec.g = x[i], g_col[i]
        records.append(rec)
    return regret.Ledger(
        records=records, x=x, g=g_col, loss_value=loss_value, q0=lrn.q0,
        q0_tilde=lrn.q0_tilde, feasible_set=driver.feasible_set, kind=lrn.kind,
        composite=driver.composite, stochastic=bool(seq.stochastic),
        schedule=driver.schedule_info(), solver_calls=lrn.solver_calls)
