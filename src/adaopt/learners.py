"""Preset schedules and the round driver.

Two update families, both reduced to one argmin per round:

    ftrl:  x_{t+1} = argmin_X <g_{1:t}, x> + p_{1:t}(x) + q_{0:t}(x)
    md:    x_{t+1} = argmin_X <g_t, x> + q_t(x) + B_{r_{1:t}}(x, x_t)

``Driver`` plays both, a round at a time through ``Driver.round``, or a
run at a time by column play (below).  The preset's schedule emits the
metrics of the proximal term and of q~_t; the proximal term is p_t for ftrl
and r_t for md, what r_{1:t} adds to r_{1:t-1} either way.  A composite l1
weight and an implicit or non-linearized preset's loss divergence from x_t
join q~_t; an optimistic preset shifts q~_t by the hint change.  So the composite, implicit,
non-linearized and optimistic variants are the plain updates with one more
part in q_t: the claimed equivalences hold by construction and tests only
have to confirm them.  Each term is a parameter tuple,
``regularizers.Terms``, which ``Driver._step`` folds into the argmin's
objective once (``solvers.Objective.add_terms``) and adds to r.  The
families differ only in that objective: ftrl's runs over all rounds and
its r carries q_t, md's is fresh each round and anchored at x_t.  A T-round
run costs T solver calls, each O(d) for the closed-form routes.  A round
computes what x_{t+1} needs and returns the metric of r_{1:t}; the
r-divergence B_{r_{1:t}}(x_{t+1}, x_t), a term of the forward bound only,
is derived from the ledger's columns when read (``regret.Ledger.breg_r``).
``run_rounds`` writes each round's parameters into the ledger's columns.

A separable schedule (all but ao-ftrl-prox's and a full metric's) is one
scan over g rows, ``Driver._emit_rows``, and a round that ``round`` plays
reads row 0 of a one-row scan.  Column play: in an ftrl run whose terms are
all centred at the origin and whose q~_t reads g alone (ogd, da, diagonal
adagrad-da), and in an md run whose r_t reads g alone (md, composite or
not, and diagonal adagrad-md), the schedule, r_{1:t} and ftrl's objective
depend on the g column only; x_t is the argmin's warm start and md's
Bregman anchor.  So, given that column, ``run_rounds`` computes them as
prefix scans, and a round only points ftrl's objective at its rows, or
anchors its row of r_{1:t} at x_t in md's fresh objective, and makes one
certified ``solvers.minimize`` call on the floats ``round`` would compute.
A run that needs its loss (nonlin-ftrl, implicit-md) plays isotropic
quadratics from their centre column alike: a round computes
g_t = w (x_t - c_t) and folds B_{f_t}(., x_t) in closed form, and f_t and
ftrl's constant are scans.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .core import MetricColumn, QuadMetric, Roots, as_point, rowdot, running
from .losses import LinearLoss, QuadraticLoss, is_isotropic_quadratic
from .regularizers import (COMPOSITE_SETTINGS, ScheduleState, Terms,
                           adagrad_diag_rows, adagrad_diag_step,
                           adagrad_full_step,
                           adagrad_initial_metric, check_proximal,
                           eta_increment, final_attack_eta, scale_free_eta)
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
    """A preset schedule and the play state of its run.

    ``__init__`` parses the preset's parameters once, and q~_0 with them
    as a ``Terms`` (``q0_term``), and folds it to solve x_1, the argmin of
    q_0 = q~_0 + <hint_1, .> over the set.  The state is the iterate ``x``
    (x_t before round t), ``x1``, the rounds played ``t``,
    ``solver_calls``, r's running metric and ftrl's running objective.
    ``seed`` is accepted for callers that pass one; play draws nothing.
    ``round`` plays what column play (module docstring) does not: every
    round of ftrl-prox, of a composite ftrl run, of ao-ftrl-prox and ao-md
    and of a full-metric run, every round on a stochastic stream or on one
    that gives neither a g column nor, for nonlin-ftrl and implicit-md, a
    centre column, and a round that column play hands back.  It validates
    g_t (a preset that ``needs_loss`` takes g_t = grad f_t(x_t) and
    q~_t = B_f(., x_t) instead), asks the schedule for the metrics of the
    proximal term and of q~_t and for eta_t, adds the composite weight when
    the run is composite, shifts q~_t by the hint change when the preset has
    hints, folds the terms through ``_step`` and returns the round's
    parameters (a zero metric is ``_zero``; a term with no part is not
    built or folded).  A ``ValueError`` or ``NumericArgminError`` raised on
    the way is raised again, its message prefixed by the round and the
    layer (gradient, loss, schedule, fold or step), which it also carries as
    its ``round`` and ``layer`` attributes.  Preset names are read in
    ``_parse``, in ``_emit_rows``, the one form of every separable
    schedule, and in ``_emit``'s adagrad and ao-ftrl-prox branches.
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
        self.dim = feasible_set.dim
        self.hint_fn = hint_fn
        self._sched = ScheduleState()
        self._eta_prev = 0.0
        self.needs_loss = preset in ("implicit-md", "nonlin-ftrl")
        # whether the proximal term is centred at x_t (else at the origin)
        self.prox_at_x = False

        self._zero = QuadMetric.zero(feasible_set.dim)
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
        self.alpha = alpha if self.composite else 0.0
        # a term with no part, and q~_t's where its metric is zero
        self._no_term = Terms(self._zero)
        self._q_zero = Terms(self._zero, self.alpha, loss=self.needs_loss) \
            if self.alpha or self.needs_loss else self._no_term

        q0 = self._parse(merged)
        known = self.composite and self.composite_setting == "known-before"
        if known and q0 is self._zero:
            # x_1 would minimize psi alone, which has no unique minimizer
            raise ValueError(
                f"preset {preset} with composite_setting known-before needs "
                "a q~_0 with quadratic curvature, and its parameters give none")
        self.q0_term = Terms(q0, alpha if known else 0.0)
        self.hint = self._hint(1, None).copy()
        self.solver_tol = float(solver_tol)
        self.solver_calls = 0
        # ftrl's running objective starts at q~_0 + <hint_1, .>
        self._obj = solvers.Objective(feasible_set, lin=self.hint)
        self._obj.add_terms(self.q0_term, None)
        if q0 is not self._zero:
            self.x1 = solvers.minimize(self._obj, tol=self.solver_tol)
            self.solver_calls += 1
        elif np.any(self.hint):
            self.x1 = solvers.linear_argmin(feasible_set, self.hint)
        else:
            self.x1 = feasible_set.center()
        self.x = self.x1.copy()
        self.t = 0
        # r_{1:t}'s metric, which carries q_{0:t-1} in an ftrl run only
        self._r_metric = q0 if self.family == "ftrl" else self._zero
        # whether ``_play_columns`` can play a g column, or a centre column
        # if the preset needs its loss (module docstring)
        self.column_play = (not self.optimistic and merged.get("metric") != "full"
                            and (self.family == "md"
                                 or not (self.prox_at_x or self.composite)))

    # -- schedule pieces ------------------------------------------------

    def _iso(self, scale: float) -> QuadMetric:
        """scale * I, or ``_zero`` for scale 0."""
        if scale == 0.0:
            return self._zero
        return QuadMetric.scaled(scale, self.dim)

    def _parse(self, p: dict) -> QuadMetric:
        """Check and store the preset's numeric parameters; return the
        metric of q~_0's quadratic (``_zero`` when it has none)."""
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
            if p["metric"] == "full" and self.feasible_set.dim > 1:
                # the first increment, (gamma0 I + g_1 g_1')^{1/2} less
                # sqrt(gamma0) I, over eta, is rank one: an md round has no
                # other curvature, and an ftrl round only gamma0's
                if self.family == "md":
                    raise ValueError(f"preset {self.preset} with metric full "
                                     "needs dim 1: its round-1 metric is rank one")
                if self._gamma0 <= 0:
                    raise ValueError(f"preset {self.preset} with metric full "
                                     "needs gamma0 > 0 above dim 1: at gamma0 = 0 "
                                     "its round-1 metric is rank one")
            self.prox_at_x = self.preset != "adagrad-da"
            if self.preset == "adagrad-da" and self._gamma0 <= 0:
                raise ValueError("adagrad-da needs gamma0 > 0 to keep round-1 "
                                 "regularization non-degenerate")
            if self._gamma0 > 0 and self.family == "ftrl":
                return adagrad_initial_metric(self.dim, self._eta, self._gamma0)
            return self._zero
        if self.preset == "ao-ftrl-prox":
            self.prox_at_x = True
            if p["eta_schedule"] == "scale-free":
                self._eta0 = _positive(p, "eta0")
            elif p["eta_schedule"] == "final-attack":
                self._radius = self._schedule_radius()
                self._smooth_l = _non_negative(p, "smooth_l")
            else:
                raise ValueError(f"unknown eta schedule {p['eta_schedule']!r}")
            return self._zero
        # md, ao-md, implicit-md, nonlin-ftrl
        self._q0_scale = _non_negative(p, "q0_scale")
        if "sigma_r" in p:
            self._sigma_r = _non_negative(p, "sigma_r")
        return self._iso(self._q0_scale)

    def _emit(self, t: int, g):
        """Round t's (metric of the proximal term, metric of q~_t's
        quadratic, eta_t): the proximal term is p_t for ftrl and r_t for md,
        centred where ``prox_at_x`` says; eta_t is the optimistic schedules'
        (else None).  A separable schedule's is row 0 of a one-row scan,
        which ``_iso``'s checking constructor raises on where it rejects it."""
        zero = self._zero
        if self.preset == "ao-ftrl-prox":
            # eta_t accumulates into a copy: the driver's state is written
            # once the round's metric is built
            sched = ScheduleState(accum_hint_err=self._sched.accum_hint_err)
            if self.params["eta_schedule"] == "scale-free":
                eta_t = scale_free_eta(sched, g, self.hint, self._eta0)
            else:
                eta_t = final_attack_eta(sched, g, self.hint,
                                         self._radius, self._smooth_l)
            m = QuadMetric.scaled(eta_increment(eta_t, self._eta_prev),
                                  self.feasible_set.dim)
            self._sched.accum_hint_err, self._eta_prev = sched.accum_hint_err, eta_t
            return m, zero, eta_t
        if self.preset in ("adagrad-da", "ftrl-prox", "adagrad-md"):
            m, _ = self._adagrad_step(self._sched, g, self._eta, self._gamma0)
        else:
            m = self._iso(float(self._emit_rows(t, g[None])[0][0]))
        return (m, zero, None) if self.prox_at_x or self.family == "md" else (zero, m, None)

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

    def round(self, t: int, loss, g=None) -> tuple:
        """Play round t on the revealed loss: g is the gradient feedback at
        x_t; a preset that ``needs_loss`` takes g from the loss itself.
        Returns (g_t, f_t(x_t), the metric of the proximal term, that of
        q~_t's quadratic, eta_t, the metric of r_{1:t})."""
        x_t = self.x
        if not self.needs_loss:
            # the round's one validation of g; the schedule and step trust it
            try:
                g = as_point(g)
            except ValueError as e:
                raise _name_round(e, t, "gradient")
            if g.size != self.dim:
                e = ValueError(f"round {t}: gradient has dim {g.size}, "
                               f"the set has {self.dim}")
                e.round, e.layer = t, "gradient"
                raise e

        layer = "loss"
        try:
            if self.needs_loss:
                f_t, g = loss.value(x_t), loss.grad(x_t)
            else:
                f_t = loss.value(x_t)
            layer = "schedule"
            prox_metric, q_metric, eta = self._emit(t, g)
            layer = "fold"
            # an ftrl r grows by each full-matrix increment to the schedule's
            # running metric, which rides on the term with the increment
            total = self._sched.total if self.family == "ftrl" else None
            prox = self._no_term if prox_metric is self._zero else Terms(
                prox_metric, center=x_t if self.prox_at_x else None, total=total)
            # q~_t: the schedule's quadratic, psi when the run is composite,
            # and B_f(., x_t) for an implicit or non-linearized preset
            q_t = self._q_zero if q_metric is self._zero else Terms(
                q_metric, self.alpha, loss=self.needs_loss, total=total)
            if self.optimistic:
                hint_next = self._hint(t + 1, g)
                shift = hint_next - self.hint
                if np.any(shift):
                    q_t = q_t._replace(shift=shift)
                self.hint = hint_next.copy()
            layer = "step"
            r_metric = self._step(g, prox, q_t, loss, f_t)
        except (ValueError, solvers.NumericArgminError) as e:
            _name_round(e, t, layer)
            raise
        return g, f_t, prox_metric, q_metric, eta, r_metric

    def _step(self, g, prox: Terms, q_t: Terms, loss, f_t) -> QuadMetric:
        """Fold round t's proximal term and q_t into the argmin, move to
        x_{t+1} and return the metric of r_{1:t}.  A q_t whose ``loss`` flag
        is set carries B_f(., x_t) for the round loss f = ``loss``, with
        f_t = f(x_t) and g = grad f(x_t): the implicit or non-linearized
        update.  ftrl's objective runs on, and its r_{1:t} + q_t becomes
        r_{1:t+1}; md's objective is fresh, anchored at x_t by
        B_{r_{1:t}}(., x_t), and q_t does not enter its r."""
        x_t, zero, none = self.x, self._zero, self._no_term
        div = (loss, f_t, g) if q_t.loss else None
        r_metric = metric = prox.total if prox.total is not None \
            else self._r_metric if prox.metric is zero \
            else self._r_metric.add(prox.metric)
        if self.family == "ftrl":
            check_proximal(prox, x_t, self.feasible_set)
            q_metric = q_t.metric
            if q_t.loss and is_isotropic_quadratic(loss):
                q_metric = QuadMetric.scaled(loss.isotropic[0], self.dim).add(q_metric)
            metric = q_t.total if q_t.total is not None else r_metric \
                if q_metric is zero else r_metric.add(q_metric)
            # a metric with eigenpairs is the objective's whole quadratic
            # part, r_{1:t} + q_t: the objective takes it, and the terms
            # their centres
            obj, take = self._obj, metric._evals is not None
            if prox is not none:
                obj.add_terms(prox, x_t, div, quadratic=not take)
            if q_t is not none:
                obj.add_terms(q_t, x_t, div, quadratic=not take)
            if take:
                obj.take_quadratic(metric)
            obj.lin = obj.lin + g
        else:
            # g was checked in round, x_t by the argmin that made it
            obj = solvers.Objective(self.feasible_set, lin=g)
            if q_t is not none:
                obj.add_terms(q_t, x_t, div)
            obj.fold_quadratic(x_t, r_metric, 1.0)
        obj.init = x_t
        x_next = solvers.minimize(obj, tol=self.solver_tol)
        self._r_metric = metric
        self.solver_calls += 1
        self.t += 1
        self.x = x_next
        return r_metric

    def _emit_rows(self, t: int, G: np.ndarray):
        """``_emit``'s metrics of rounds t, t+1, ... that grow r (q~_t's
        for ftrl, r_t for md) from their g rows G, as a column of gammas or
        diagonals: (the column, how many rows ``_emit`` accepts, adagrad's
        sums and roots after k rounds)."""
        if self.preset in ("adagrad-da", "adagrad-md"):
            return adagrad_diag_rows(self._sched, G, self._eta, self._gamma0)
        if self.family == "md":
            # r_1 also carries q~_0's scale, whose sum may overflow
            q = np.full(len(G), self._sigma_r)
            if t == 1:
                q[0] = self._q0_scale + self._sigma_r
            return q, len(G) if q[0] < math.inf else 0, None, None
        # da's alpha_t; ogd's q~_t is 0
        growth = self._alpha_growth if self.preset == "da" else 0.0
        ts = np.arange(t, t + len(G), dtype=float)
        return growth * (np.sqrt(ts + 1.0) - np.sqrt(ts)), len(G), None, None


def _name_round(e: BaseException, t: int, layer: str) -> BaseException:
    """e, its message prefixed by the round and the layer, which it also
    carries as its ``round`` (int) and ``layer`` (str) attributes."""
    head = e.args[0] if e.args else ""
    e.args = (f"round {t}: {layer}: {head}",) + e.args[1:]
    e.round, e.layer = t, layer
    return e


def _play_columns(driver: Driver, G, x, loss_value, losses, sched_col, r_col,
                  quad=None) -> int:
    """Column play (module docstring) of the g column G, checked once, in
    chunks of at most 2**14 // d rounds, the stream kernel's; each scan
    starts from what the driver holds.  An ftrl round points its running
    objective at its rows; an md round folds its row of r_{1:t}, anchored
    at x_t, into a fresh objective over g_t, as ``Driver._step`` does.
    Given ``quad``, a centre column's (centres, weights), a round computes
    its g row into G and folds B_{f_t}(., x_t) first (``fold_loss``), and
    f_t and ftrl's constant are scanned after the rounds.  Writes the
    ledger's rows (``sched_col`` is the column the schedule fills: q~'s for
    ftrl, the proximal term's for md), leaves the driver as per-round play
    would and returns the rounds played: fewer than T before a round with a
    non-finite g, a schedule row ``_emit`` rejects, an argmin that raises or
    any step that would warn of overflow or an invalid value, which
    ``Driver.round`` plays, raising and warning as it does."""
    if quad is None:
        finite = np.isfinite(G).all(axis=1)
        stop = len(G) if finite.all() else int(finite.argmin())
    else:
        (C, W), stop = quad, len(G)
    d, fs, md = driver.dim, driver.feasible_set, driver.family == "md"
    cap, i = max(1, 2 ** 14 // d), 0
    while i < stop:
        j, r_held = min(i + cap, stop), driver._r_metric
        with np.errstate(over="ignore", invalid="ignore"):
            # a needs_loss preset's schedule reads no g, only the row count
            q, n, sums, roots = driver._emit_rows(i + 1, G[i:j])
            # r grows by the schedule's metric, or in nonlin-ftrl, whose
            # q~_t is B_{f_t}(., x_t) alone, by f_t's weight
            grow = q[:n] if quad is None or md else W[i:i + n]
            r = rows = running(r_held._summand(), grow)
            if not md:
                # a copy: the driver takes it only once a round is played
                obj = copy.copy(driver._obj)
                slot = "diag" if q.ndim == 2 else "gamma"
                held = getattr(obj, slot)
                lin = [obj.lin] if quad else running(obj.lin, G[i:i + n])
                rows = running(0.0 if held is None else held, grow)
        rows, m, k = rows if q.ndim == 2 else rows.tolist(), n, 0
        # a round that would warn raises here instead, and Driver.round
        # plays it; a row past an overflow in a scan is such a round, since
        # its fold or argmin meets the inf
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            try:
                if quad is None:
                    for k in range(n):
                        if md:
                            obj = solvers.Objective(fs, lin=G[i + k], l1_alpha=driver.alpha)
                            obj.fold_row(x[i + k], rows[k + 1])
                        else:
                            obj.lin = lin[k + 1]
                            setattr(obj, slot, rows[k + 1])
                        obj.init = x[i + k]
                        x[i + k + 1] = solvers.minimize(obj, tol=driver.solver_tol)
                else:
                    ws = W[i:i + n].tolist()
                    for k in range(n):
                        g = G[i + k] = ws[k] * (x[i + k] - C[i + k])
                        if md:
                            obj = solvers.Objective(fs, lin=g)
                        obj.fold_loss((ws[k], C[i + k]), g, const=False)
                        if md:
                            obj.fold_row(x[i + k], rows[k + 1])
                        else:
                            obj.lin = obj.lin + g
                            lin.append(obj.lin)
                        obj.init = x[i + k]
                        x[i + k + 1] = solvers.minimize(obj, tol=driver.solver_tol)
            except (ValueError, FloatingPointError, solvers.NumericArgminError):
                m = k
        s = slice(i, i + m)
        with np.errstate(over="ignore", invalid="ignore"):
            # <g_t, x_t>: f_t, or with |x_t - c_t|^2 and |c_t|^2 the dots
            # of f_t and the fold's constant
            dots = [rowdot(G[s], x[s])]
            f = dots[0]
            if quad is not None:
                D = x[s] - C[s]
                dots += [rowdot(D, D), rowdot(C[s], C[s])]
                f = 0.5 * W[s] * dots[1]
                # ftrl's constant after each fold: a round adds (w/2)|c_t|^2
                # (0.0 for c_t = 0, which leaves the constant, never -0.0,
                # as it is), then <g_t, x_t> - f_t
                const = running(driver._obj.const, np.stack(
                    (0.5 * W[s] * dots[2], dots[0] - f), axis=1).ravel())
        finite = np.isfinite(dots).all(axis=0)
        if not finite.all():
            # a dot product overflows: Driver.round warns of it
            m = int(finite.argmin())
        if m:
            if not md:
                obj.lin, obj.init = lin[m], x[i + m - 1]
                setattr(obj, slot, rows[m])
                if quad:
                    obj.const = float(const[2 * m])
                driver._obj = obj
                r_col.put(i, r_held)
            driver.x = x[i + m]
            driver._r_metric = QuadMetric("diag", weights=r[m], dim=d) \
                if q.ndim == 2 else QuadMetric("scaled", gamma=float(r[m]), dim=d)
            if sums is not None:
                driver._sched.accum_sq, driver._sched._prev_root = sums[m], roots[m]
            driver.t += m
            driver.solver_calls += m
            loss_value[i:i + m] = f[:m]
            losses[i:i + m] = map(LinearLoss, G[i:i + m]) if quad is None else \
                map(QuadraticLoss, C[i:i + m], ws)
            sched_col.put_rows(slice(i, i + m), q[:m])
            # ftrl's r_{1:t} is r's running metric before round t, md's after
            r_col.put_rows(slice(i + 1 - md, i + m), r[1:m + md])
        i += m
        if i < j:
            break
    return i


def run_rounds(driver: Driver, seq, T: int, rng=None) -> regret.Ledger:
    """Play T rounds and return the full ledger.

    The feedback order is fixed: the loss is revealed, the (possibly noisy)
    gradient is drawn at the current iterate, the driver plays the round.  All
    randomness comes from ``rng``, so runs are reproducible bit for bit.
    Every round writes into the ledger's preallocated columns (a zero metric
    is their initial row), and keeps a linear loss under exact feedback, its
    round's g, as a ``LinearLoss`` of its g row.  A stream that gives its
    g column before play (``g_column``) gives the ledger's: round t reads
    g_t there, and one ``LinearLoss`` of it is the revealed loss and the
    ledger's, and a ``column_play`` driver, ftrl or md, plays it by column
    play (module docstring).  A stream of isotropic quadratics gives its
    centre column (``quadratic_column``), whose rows the ledger's losses
    view, and a ``column_play`` driver that needs its loss plays it.  A
    failure in any other stream (revealing the loss or drawing its
    gradient) names its round and the layer ``loss``, as ``Driver.round``
    names its own.
    """
    if T < 1:
        raise ValueError("need at least one round")
    if driver.needs_loss and seq.stochastic:
        raise ValueError(f"preset {driver.preset} needs exact losses")
    if rng is None:
        rng = np.random.default_rng(0)
    d = driver.dim
    x = np.empty((T + 1, d))
    g_col = seq.g_column(T)
    by_round = g_col is None
    if by_round:
        g_col = np.empty((T, d))
    quad = seq.quadratic_column(T) if by_round else None
    loss_value = np.empty(T)
    losses = [None] * T
    sigma = np.empty((T, d)) if seq.stochastic else None
    hint = np.empty((T + 1, d)) if driver.optimistic else None
    roots = None
    if driver.params.get("metric") == "full":
        # a full-matrix run's running metric of r after each round, from
        # the scaled identity it starts at
        roots = Roots([QuadMetric.eigen(np.full(d, driver._r_metric.gamma), np.empty((d, 0)))])
    prox, q_metric, r_metric = (MetricColumn(T, d, roots) for _ in range(3))
    eta = None
    x[0] = driver.x1
    # the driver plays on from the column's rows, so whatever a round
    # centres at x_t (a proximal term, a divergence anchor) shares the
    # ledger's copy
    driver.x = x[0]
    played = 0
    if driver.column_play and not seq.stochastic and (
            quad is not None if driver.needs_loss else not by_round):
        played = _play_columns(driver, g_col, x, loss_value, losses,
                               prox if driver.family == "md" else q_metric,
                               r_metric, quad)
    for t in range(played + 1, T + 1):
        i = t - 1
        if hint is not None:
            hint[i] = driver.hint
        if by_round:
            g = None
            try:
                loss_t = losses[i] = seq.loss(t) if quad is None \
                    else QuadraticLoss(quad[0][i], quad[1][i])
                if sigma is not None:
                    g, sigma[i] = seq.gradient(t, driver.x, rng)
                elif not driver.needs_loss:
                    # exact feedback is the revealed loss's own gradient
                    g = loss_t.grad(driver.x)
            except (ValueError, solvers.NumericArgminError) as e:
                _name_round(e, t, "loss")
                raise
        else:
            g = g_col[i]
            loss_t = losses[i] = LinearLoss(g)
        g, f, prox_t, q_t, eta_t, r_t = driver.round(t, loss_t, g)
        x[t], loss_value[i] = driver.x, f
        driver.x = x[t]
        if by_round:
            g_col[i] = g
            if type(loss_t) is LinearLoss and sigma is None:
                losses[i] = LinearLoss(g_col[i])
        if prox_t is not driver._zero:
            prox.put(i, prox_t)
        if q_t is not driver._zero:
            q_metric.put(i, q_t)
        if roots is None:
            r_metric.put(i, r_t)
        else:
            roots.append(driver._r_metric)
            # r_{1:t} is r's running metric after the round, or before it
            # when q_t carries the increment
            vecs = {"g": g} if sigma is None else {"g": g, "sigma": sigma[i]}
            r_metric.put(i, r_t, r_t is driver._r_metric, **vecs)
        if eta_t is not None:
            if eta is None:
                eta = np.empty(T)
            eta[i] = eta_t
    if hint is not None:
        hint[T] = driver.hint
    return regret.Ledger(
        x=x, g=g_col, loss_value=loss_value, losses=losses, sigma=sigma,
        hint=hint, prox=prox, q_metric=q_metric, r_metric=r_metric,
        eta=eta, q0_term=driver.q0_term, feasible_set=driver.feasible_set,
        kind=driver.family, prox_at_x=driver.prox_at_x, psi_alpha=driver.alpha,
        needs_loss=driver.needs_loss, composite=driver.composite,
        stochastic=bool(seq.stochastic), schedule=driver.schedule_info(),
        solver_calls=driver.solver_calls, quadratic=quad)
