"""Preset schedules and the round loop.

Two update families, both reduced to one argmin per round:

    ftrl:  x_{t+1} = argmin_X <g_{1:t}, x> + p_{1:t}(x) + q_{0:t}(x)
    md:    x_{t+1} = argmin_X <g_t, x> + q_t(x) + B_{r_{1:t}}(x, x_t)

``Driver`` plays both through one loop, ``Driver._chunk``.  The preset's
schedule emits the metric of the proximal term, p_t for ftrl and r_t for md
(what r_{1:t} adds to r_{1:t-1} either way), or of q~_t's quadratic.  A
composite l1 weight and an implicit or non-linearized preset's loss
divergence from x_t join q~_t; an optimistic preset shifts q~_t by the hint
change.  So the composite, implicit, non-linearized and optimistic variants
are the plain updates with one more part in q_t: the claimed equivalences
hold by construction and tests only have to confirm them.  The families
differ only in the argmin's objective: ftrl's runs over all rounds and its
r carries q_t, md's is fresh each round and anchored at x_t.  A T-round run
costs T solver calls, each O(d) for the closed-form routes.  A round
computes what x_{t+1} needs; the r-divergence B_{r_{1:t}}(x_{t+1}, x_t), a
term of the forward bound only, is derived from the ledger's columns when
read (``regret.Ledger.breg_r``).

The loop plays a run's rows in chunks.  What depends on the g rows alone is
a scan over a chunk, added in the order the rounds add it: the separable
schedule (``_emit_rows``: AdaGrad's diagonal, md's and da's scales,
ao-ftrl-prox's eta_t over ||g_t - h_t||^2), r_{1:t}, and the rows of ftrl's
running objective that no term centred at x_t moves (its quadratic part,
its l1 weight and <g_{1:t}, .>).  What depends on x_t is a row operation:
f_t (and g_t for a preset that needs its loss), a proximal term centred at
x_t (lin gains -P_t x_t), the loss divergence, the hint change, md's anchor
B_{r_{1:t}}(., x_t) and the one ``solvers.minimize`` call.  A one-row chunk
certifies its argmin in the call; a longer chunk's separable argmins leave
their certificate to one ``solvers._certify_rows`` pass over the chunk's
rows (``_chunk``).  A stream that gives its g column, or its centre column
of isotropic quadratics to a preset that needs its loss, is played in
chunks of at most 2**14 // d rows; any other stream reveals a round's loss
and draws g_t at x_t, and ``Driver.round`` plays that row as a one-row
chunk.  A full-metric row is a one-row chunk too: its schedule row is
``adagrad_full_step``'s increment, and ftrl's objective takes r's running
metric (``Objective.take_quadratic``).  So a chunk and its rows played one
at a time write the same ledger, bit for bit.

The scans of a chunk of more than one row run silenced.  A row the
schedule rejects, or whose diagonal or linear running sum overflows, ends
its chunk and is scanned again alone.  A one-row scan runs unsilenced, so
such a row warns in its round, and the schedule's checking constructor
raises on the row it rejects; its one row is added as a round adds it
(``core.running``), and a scalar running sum overflows silently, as a
float sum does.  Row operations run unsilenced, but a longer chunk
records the floating-point errors they meet in place of their warnings;
where a row meets one, raises or fails the batched certificate, the chunk
is played again as one-row chunks from the state it started from, so each
warning comes once, in its round, and an error in its round.
An error names its round and its layer (gradient, loss, schedule, fold or
step).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np

from .core import MetricColumn, QuadMetric, Roots, as_point, rowdot, running
from .losses import LinearLoss, QuadraticLoss
from .regularizers import (COMPOSITE_SETTINGS, ScheduleState, Terms,
                           adagrad_diag_rows, adagrad_full_step,
                           adagrad_initial_metric, hint_eta_rows)
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
    ``solver_calls``, the schedule's sums, r's running metric, ftrl's
    running objective and an optimistic preset's ``hint``.  ``seed`` is
    accepted for callers that pass one; play draws nothing.  ``run_rounds``
    gives the driver its run's columns, which ``_chunk`` fills (module
    docstring), a column's chunks in turn (``_play``) or one row
    (``round``).  Preset names are read in
    ``_parse`` and in ``_emit_rows``, the one form of every separable
    schedule.
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
        self._full = merged.get("metric") == "full"

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
        # ftrl's running objective starts at q~_0 + <hint_1, .>: its l1
        # weight, then its quadratic at the origin
        self._obj = solvers.Objective(feasible_set, lin=self.hint,
                                      l1_alpha=self.q0_term.l1)
        self._obj.fold_quadratic(None, q0, 1.0)
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
        self._run = None

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
                self._eta_schedule = {"eta0": _positive(p, "eta0")}
            elif p["eta_schedule"] == "final-attack":
                self._radius = self._schedule_radius()
                self._eta_schedule = {"radius": self._radius,
                                      "smooth_l": _non_negative(p, "smooth_l")}
            else:
                raise ValueError(f"unknown eta schedule {p['eta_schedule']!r}")
            return self._zero
        # md, ao-md, implicit-md, nonlin-ftrl
        self._q0_scale = _non_negative(p, "q0_scale")
        if "sigma_r" in p:
            self._sigma_r = _non_negative(p, "sigma_r")
        return self._iso(self._q0_scale)

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

    def _emit_rows(self, t: int, G: np.ndarray, H=None):
        """The separable schedule of rounds t, t+1, ... from their g rows G
        (and ao-ftrl-prox's hint rows H): (the metric column of the term
        that grows r, q~_t's for an ftrl run centred at the origin and the
        proximal term's otherwise, as gammas or diagonals; how many leading
        rows ``QuadMetric``'s checking constructors accept; the schedule's
        state after each row, AdaGrad's sums and roots or ao-ftrl-prox's
        sum of ||g_s - h_s||^2 and eta_t, else None).  Rows past the
        accepted ones may overflow (call it under np.errstate)."""
        if self.preset in ("adagrad-da", "ftrl-prox", "adagrad-md"):
            W, n, sums, roots = adagrad_diag_rows(self._sched, G, self._eta, self._gamma0)
            return W, n, (sums, roots)
        if self.preset == "ao-ftrl-prox":
            err = G - H
            gam, n, acc, eta = hint_eta_rows(self._sched, rowdot(err, err),
                                             self._eta_prev, **self._eta_schedule)
            return gam, n, (acc, eta)
        if self.family == "md":
            # r_1 also carries q~_0's scale, whose sum may overflow
            q = np.full(len(G), self._sigma_r)
            if t == 1:
                q[0] = self._q0_scale + self._sigma_r
            return q, len(G) if q[0] < math.inf else 0, None
        if self.preset != "da":
            # ogd's and nonlin-ftrl's q~_t is 0
            return np.zeros(len(G)), len(G), None
        ts = np.arange(t, t + len(G), dtype=float)
        return self._alpha_growth * (np.sqrt(ts + 1.0) - np.sqrt(ts)), len(G), None

    # -- the round loop ----------------------------------------------------

    def round(self, t: int, loss, g=None) -> None:
        """Play round t of a stream that gives no column as a one-row
        ``_chunk``: ``loss`` is the revealed loss and g the gradient
        feedback drawn at x_t, checked here once (the row's scans and argmin
        trust it); a preset that ``needs_loss`` takes g = grad f_t(x_t) in
        the row instead."""
        if not self.needs_loss:
            try:
                g = as_point(g)
            except ValueError as e:
                raise _name_round(e, t, "gradient")
            if g.size != self.dim:
                e = ValueError(f"round {t}: gradient has dim {g.size}, "
                               f"the set has {self.dim}")
                e.round, e.layer = t, "gradient"
                raise e
            self._run.g[t - 1] = g
        self._chunk(t - 1, t, loss)

    def _play(self, i: int, j: int) -> None:
        """Play rows i..j-1, rounds i+1..j, of the run's columns in chunks
        of at most 2**14 // d rows, the stream kernel's.  A full-metric run
        plays a row a chunk, and so does a custom hint, which is drawn in its
        round."""
        cap = 1 if self._full or self.hint_policy == "custom" else max(1, 2 ** 14 // self.dim)
        while i < j:
            i = self._chunk(i, min(i + cap, j), None)

    def _chunk(self, i: int, k: int, loss) -> int:
        """Play rows i..k-1 up to the first that the schedule rejects, and
        return the row after the last one played (``_rows``).  A chunk of
        more than one row defers its argmins' certificate to one
        ``solvers._certify_rows`` pass over its rows, with the floating-point
        errors they meet recorded, not warned of.  Where a row fails it, a
        row raises or meets one, the chunk restores ftrl's running objective
        and the hint it started from, and plays its rows again as one-row
        chunks, each certified in its round; so its error, warnings, state
        and ledger rows are theirs."""
        if k - i == 1:
            return self._rows(i, k, loss)
        obj, hint = self._obj, self.hint
        kept, kept_losses = [getattr(obj, f) for f in obj.__slots__], obj.losses[:]
        # each floating-point error the caller's errstate would warn of or
        # raise is recorded instead, so the one-row chunks meet it afresh
        caught = []
        modes = {e: "ignore" if mode == "ignore" else "call" for e, mode in np.geterr().items()}
        with np.errstate(call=lambda err, flag: caught.append(err), **modes):
            try:
                m = self._rows(i, k, loss, caught)
            except Exception:
                # whatever a row raised, its one-row chunk raises it again
                m = None
        if m is not None:
            return m
        for f, v in zip(obj.__slots__, kept):
            setattr(obj, f, v)
        obj.losses, self.hint = kept_losses, hint
        for r in range(i, k):
            self._rows(r, r + 1, loss)
        return k

    def _rows(self, i: int, k: int, loss, caught: list | None = None) -> int | None:
        """Play rows i..k-1 up to the first that the schedule rejects, and
        return the row after the last one played.  A row is its loss layer
        (f_t, and g_t for a preset that needs its loss, from a linear loss's
        vector, an isotropic quadratic's (w, c) or else the loss handle);
        in the chunk's first row, the chunk's scans (``_scan``); the fold
        of its hint change and of its terms into ftrl's running objective or
        md's fresh one; and the step.  The driver's state and the ledger's
        rows are written for the rows played (``_commit``), also when a row
        raises.  Given the list ``caught`` of the chunk's recorded
        floating-point errors, the argmins defer their certificate, and the
        rows are written only once ``solvers._certify_rows`` passes them,
        from the X column, their linear parts (ftrl's ``LIN`` rows, else
        each objective's), the routes' weights and the l1 weights, and no
        error was recorded; else None is returned."""
        run, md, full = self._run, self.family == "md", self._full
        G, X, quad = run.g, run.x, run.quad if loss is None else None
        ws = None if quad is None else quad[1][i:k].tolist()
        obj, sc, r, t, layer = self._obj, None, i, i + 1, "loss"
        held, lins = (None, None) if caught is None else ([], [])
        try:
            while r < k:
                t, xt, layer = r + 1, X[r], "loss"
                if loss is not None:
                    v, iso = loss.vector, loss.isotropic
                else:
                    v, iso = (None, (ws[r - i], quad[0][r])) if quad else (G[r], None)
                if v is not None:
                    f = float(v.dot(xt))
                elif iso is not None:
                    D = xt - iso[1]
                    f = 0.5 * iso[0] * float(D.dot(D))
                else:
                    f = loss.value(xt)
                if self.needs_loss and (loss is not None or quad):
                    G[r] = iso[0] * D if iso is not None else loss.grad(xt)
                g, run.loss_value[r] = G[r], f
                if sc is None:
                    layer = "schedule"
                    sc = self._scan(i, k, ws if quad else
                                    None if iso is None or loss is None else [iso[0]])
                    k = i + sc.n
                layer = "fold"
                if self.optimistic:
                    run.hint[r] = self.hint
                    hint_next = self._hint(t + 1, g)
                    shift = hint_next - self.hint
                    self.hint = hint_next.copy()
                if md:
                    obj = solvers.Objective(self.feasible_set, lin=g, l1_alpha=self.alpha)
                elif self.prox_at_x:
                    # the proximal term is centred at x_t: lin gains -P_t x_t
                    # (a zero scale is no term)
                    p = sc.incr if full else sc.q[r - i]
                    if full:
                        obj.fold_quadratic(xt, p, 1.0, quadratic=False)
                    elif p.ndim or p:
                        obj.fold_row(xt, p if p.ndim else float(p))
                if self.needs_loss and v is None:
                    obj.fold_divergence(iso or loss, xt, f, g)
                if self.optimistic and shift.any():
                    obj.lin = obj.lin + shift
                if md:
                    if full:
                        obj.fold_quadratic(xt, sc.r_next, 1.0)
                    else:
                        obj.fold_row(xt, sc.rows[r - i + 1])
                else:
                    if full:
                        obj.take_quadratic(sc.r_next)
                    elif sc.S is not None:
                        setattr(obj, sc.slot, sc.S[r - i + 1])
                    if sc.L1 is not None:
                        obj.l1_alpha = sc.L1[r - i + 1]
                    obj.lin = obj.lin + g if sc.LIN is None else sc.LIN[r - i + 1]
                layer = "step"
                obj.init = xt
                X[r + 1] = solvers.minimize(obj, tol=self.solver_tol, _defer=held)
                if lins is not None and sc.LIN is None:
                    lins.append(obj.lin)
                r += 1
        except (ValueError, solvers.NumericArgminError) as e:
            _name_round(e, t, layer)
            raise
        finally:
            if caught is None:
                self._commit(sc, i, r, loss)
        if caught is None:
            return r
        if held:
            # a chunk's rows share their route: each row left its weights
            n = r - i
            solvers._certify_rows(
                self.feasible_set, X[i + 1:r + 1],
                np.array(lins) if sc.LIN is None else sc.LIN[1:n + 1], np.array(held),
                self.alpha if sc.L1 is None else np.array(sc.L1[1:n + 1]))
        if caught:
            return None
        self._commit(sc, i, r, loss)
        return r

    def _scan(self, i: int, k: int, weights):
        """The scans of rows i..k-1 (module docstring): the schedule's rows
        ``q`` and how many it accepts, ``n``; r_{1:t}'s rows ``R`` from r's
        running metric, grown by q, or in nonlin-ftrl, whose q~_t is
        B_{f_t}(., x_t) alone, by its isotropic losses' ``weights`` (None:
        no isotropic loss); and ftrl's objective rows: its quadratic
        ``slot``'s ``S`` and its ``LIN`` where no term centred at x_t or
        loss moves them, and ``L1`` when it is composite.  The scans of more
        than one row are silenced.  A row whose diagonal or linear sum
        overflows is not accepted there either; where row i is not, its
        one-row scan is made, unsilenced, for its warnings, and the
        schedule's checking constructor raises on a row it rejects.  A
        full-metric row is ``adagrad_full_step``'s increment ``incr`` and
        r's running metric after it, ``r_next``."""
        G, md, obj = self._run.g[i:k], self.family == "md", self._obj
        sc, one = SimpleNamespace(n=k - i, S=None, L1=None, LIN=None), k - i == 1
        with nullcontext() if one else np.errstate(over="ignore", invalid="ignore",
                                                   divide="ignore"):
            if self.composite and not md:
                sc.L1 = running(obj.l1_alpha, np.full(k - i, self.alpha)).tolist()
            if self._full:
                sc.incr = adagrad_full_step(self._sched, G[0], self._eta, self._gamma0)[0]
                sc.r_next = self._r_metric.add(sc.incr) if md else self._sched.total
                return sc
            H = None
            if self.preset == "ao-ftrl-prox":
                H = np.concatenate((self.hint[None], G[:-1])) \
                    if self.hint_policy == "prev-gradient" else np.broadcast_to(self.hint, G.shape)
            sc.q, sc.n, sc.state = self._emit_rows(i + 1, G, H)
            grow = sc.q if md or not self.needs_loss \
                else np.zeros(k - i) if weights is None else np.array(weights)
            sc.R = running(self._r_metric._summand(), grow)
            sc.rows = sc.R if sc.R.ndim == 2 else sc.R.tolist()
            if not (md or self.prox_at_x or self.needs_loss):
                if sc.q.ndim == 2:
                    sc.slot = "diag"
                    sc.S = running(0.0 if obj.diag is None else obj.diag, sc.q)
                else:
                    # the gamma slot holds r_{1:t+1}'s scale, summed as r's
                    sc.slot, sc.S = "gamma", sc.rows
                sc.LIN = running(obj.lin, G)
        if one:
            if not sc.n:
                # the scans accept what the checking constructors accept
                QuadMetric.diagonal(sc.q[0]) if sc.q.ndim == 2 else QuadMetric.scaled(sc.q[0])
                sc.n = 1
            return sc
        # a round added a diagonal or linear part as an array, which warns
        # of its overflow (a scalar one as a float, which does not)
        for A in (sc.R, sc.S, sc.LIN):
            if type(A) is np.ndarray and A.ndim == 2:
                ok = np.isfinite(A).all(axis=1)
                if ok[0] and not ok[-1]:
                    sc.n = min(sc.n, int(ok.argmin()) - 1)
        return sc if sc.n else self._scan(i, i + 1, weights and weights[:1])

    def _commit(self, sc, i: int, m: int, loss) -> None:
        """Write the driver's state and the ledger's rows after rows i..m-1:
        the schedule's column (q~'s for an ftrl run centred at the origin,
        else the proximal term's), r_{1:t}'s (r's running metric before
        round t for such a run, else after it), eta_t's, and a chunk's
        losses, one ``LinearLoss`` of each g row or one ``QuadraticLoss`` of
        each centre row."""
        n = m - i
        if not n:
            return
        run, d, after = self._run, self.dim, self.family == "md" or self.prox_at_x
        sched, G = run.prox if after else run.q, run.g
        self.x, self.t, self.solver_calls = run.x[m], self.t + n, self.solver_calls + n
        if self._full:
            r_held, self._r_metric = self._r_metric, sc.r_next
            run.roots.append(sc.r_next)
            vecs = {"g": G[i]} if run.sigma is None else {"g": G[i], "sigma": run.sigma[i]}
            run.r.put(i, sc.r_next if after else r_held, after, **vecs)
            sched.put(i, sc.incr)
        else:
            R = sc.R
            if not after:
                run.r.put(i, self._r_metric)
            run.r.put_rows(slice(i + 1 - after, m), R[1:n + after])
            self._r_metric = QuadMetric("diag", weights=R[n], dim=d) if R.ndim == 2 \
                else QuadMetric("scaled", gamma=float(R[n]), dim=d)
            sched.put_rows(slice(i, m), sc.q[:n])
            if self.preset == "ao-ftrl-prox":
                acc, eta = sc.state
                run.eta[i:m] = eta[:n]
                self._sched.accum_hint_err, self._eta_prev = float(acc[n]), float(eta[n - 1])
            elif sc.state is not None:
                self._sched.accum_sq, self._sched._prev_root = sc.state[0][n], sc.state[1][n]
        if loss is None:
            run.losses[i:m] = map(LinearLoss, G[i:m]) if run.quad is None else \
                map(QuadraticLoss, run.quad[0][i:m], run.quad[1][i:m].tolist())


def _name_round(e: BaseException, t: int, layer: str) -> BaseException:
    """e, its message prefixed by the round and the layer, which it also
    carries as its ``round`` (int) and ``layer`` (str) attributes."""
    head = e.args[0] if e.args else ""
    e.args = (f"round {t}: {layer}: {head}",) + e.args[1:]
    e.round, e.layer = t, layer
    return e


class _Run:
    """A run's ledger columns, row i for round i + 1, which play fills:
    ``column`` is whether the stream gave its g column, ``quad`` a stream
    of isotropic quadratics' (centres, weights) or None, and ``roots`` a
    full-matrix run's running metric of r after each round, from the
    scaled identity it starts at, which its metric columns share."""

    def __init__(self, driver: Driver, seq, T: int):
        d = driver.dim
        self.x = np.empty((T + 1, d))
        g = seq.g_column(T)
        self.column = g is not None
        self.g = np.empty((T, d)) if g is None else g
        self.quad = None if self.column else seq.quadratic_column(T)
        self.loss_value = np.empty(T)
        self.losses = [None] * T
        self.sigma = np.empty((T, d)) if seq.stochastic else None
        self.hint = np.empty((T + 1, d)) if driver.optimistic else None
        self.eta = np.empty(T) if driver.preset == "ao-ftrl-prox" else None
        self.roots = Roots([QuadMetric.eigen(np.full(d, driver._r_metric.gamma),
                                             np.empty((d, 0)))]) if driver._full else None
        self.prox, self.q, self.r = (MetricColumn(T, d, self.roots) for _ in range(3))


def run_rounds(driver: Driver, seq, T: int, rng=None) -> regret.Ledger:
    """Play T rounds and return the full ledger.

    The feedback order is fixed: the loss is revealed, the (possibly noisy)
    gradient is drawn at the current iterate, the driver plays the round.  All
    randomness comes from ``rng``, so runs are reproducible bit for bit.
    Play writes into the ledger's preallocated columns (a zero metric is
    their initial row).  A stream that gives its g column before play
    (``g_column``) gives the ledger's, which the driver plays by chunks
    (module docstring), and each round keeps one ``LinearLoss`` of its g
    row, its loss.  A stream of isotropic quadratics gives its centre
    column (``quadratic_column``), whose rows the ledger's losses view, and
    a preset that needs its loss plays it by chunks.  Any other stream
    reveals each round's loss and draws its gradient here, a failure named
    by its round and the layer ``loss``, and ``Driver.round`` plays the
    round; under exact feedback a linear loss is kept as a ``LinearLoss``
    of its g row.
    """
    if T < 1:
        raise ValueError("need at least one round")
    if driver.needs_loss and seq.stochastic:
        raise ValueError(f"preset {driver.preset} needs exact losses")
    if rng is None:
        rng = np.random.default_rng(0)
    run = driver._run = _Run(driver, seq, T)
    run.x[0] = driver.x1
    # the driver plays on from the column's rows, so whatever a round
    # centres at x_t (a proximal term, a divergence anchor) shares the
    # ledger's copy
    driver.x = run.x[0]
    quad = run.quad
    if run.column or quad is not None and driver.needs_loss:
        stop = T
        if run.column:
            finite = np.isfinite(run.g).all(axis=1)
            stop = T if finite.all() else int(finite.argmin())
        driver._play(0, stop)
        if stop < T:
            raise _name_round(ValueError("point has non-finite entries"), stop + 1,
                              "gradient")
    else:
        for t in range(1, T + 1):
            i, g = t - 1, None
            try:
                loss = run.losses[i] = seq.loss(t) if quad is None \
                    else QuadraticLoss(quad[0][i], quad[1][i])
                if run.sigma is not None:
                    g, run.sigma[i] = seq.gradient(t, driver.x, rng)
                elif not driver.needs_loss:
                    # exact feedback is the revealed loss's own gradient
                    g = loss.grad(driver.x)
            except (ValueError, solvers.NumericArgminError) as e:
                _name_round(e, t, "loss")
                raise
            driver.round(t, loss, g)
            if type(loss) is LinearLoss and run.sigma is None:
                run.losses[i] = LinearLoss(run.g[i])
    if run.hint is not None:
        run.hint[T] = driver.hint
    return regret.Ledger(
        x=run.x, g=run.g, loss_value=run.loss_value, losses=run.losses,
        sigma=run.sigma, hint=run.hint, prox=run.prox, q_metric=run.q,
        r_metric=run.r, eta=run.eta, q0_term=driver.q0_term,
        feasible_set=driver.feasible_set, kind=driver.family,
        prox_at_x=driver.prox_at_x, psi_alpha=driver.alpha,
        needs_loss=driver.needs_loss, composite=driver.composite,
        stochastic=bool(seq.stochastic), schedule=driver.schedule_info(),
        solver_calls=driver.solver_calls, quadratic=quad)
