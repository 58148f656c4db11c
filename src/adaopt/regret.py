"""Regret accounting: the exact decomposition and the bound calculators.

For any loss sequence, gradient sequence, and point sequence, the realized
regret against a comparator x* splits exactly as

    R_T = R+_T + sum_t <g_t, x_t - x_{t+1}> - sum_t B_{f_t}(x*, x_t) + sum_t delta_t

where R+_T = sum_t <g_t, x_{t+1} - x*> is the forward (one-step-ahead)
linear regret and delta_t = <g_t, x* - x_t> - f_t'(x_t; x* - x_t) is the
linearization gap.  The calculators in this module evaluate every term from
a recorded run, bound R+_T through the emitted regularizers, and evaluate
the closed-form full-regret bounds for the standard schedule families.

A ledger is columns that ``learners.run_rounds`` fills in place, one row
per round (see ``Ledger``); a ``RoundRecord`` is a view of one row, whose
regularizer handles are rebuilt from the row on demand.  Play fills only
what the update needs: the forward bound's B_{r_{1:t}}(x_{t+1}, x_t) is
derived from the columns when first read (``Ledger.breg_r``).

There is one accounting path.  The decomposition terms, the running
regret, the CSV rows, B_{r_{1:t}}(x_{t+1}, x_t) and every bound are column
expressions over the ledger that repeat the float steps of the per-round
handles: row dot products go through ``core.rowdot``, running sums through
np.cumsum (which adds in loop order), the losses through
``losses.LossColumn``, and a term's parts add in the order of its ``Sum``.
An l1 directional derivative sums a zero-filled row where ``L1.dir_deriv``
sums the compressed one; from 8 coordinates on numpy's pairwise sum groups
the two differently, so that term agrees to rounding, not bit for bit; so
does a full metric's dual norm, sum_j p_j^2 / (lambda_j - s) over the
eigenvalues and projections play recorded (``core.MetricColumn``), and a
quadratic under a root the Gram served, read from the roots'
eigenvectors, all such rows at once (``_quad_values``).  Loops over rows
remain for a d x d root's matrix-vector product, losses outside the
linear and isotropic-quadratic families, and an ftrl B_r's non-isotropic
loss parts.
A report carries the running sum of its terms, its value is the last
entry, and the CSV's ``cum_bound`` column is that same running bound, so a
report and its ledger cannot disagree.

All q-sums run over t = 0..T by default; since the regret never depends on
the last emitted regularizer, each calculator can also drop the final q
term (``include_final_q=False``), which is the bound obtained by re-running
the last round with q_T set to zero.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (_PD_FLOOR, INF, MetricColumn, QuadMetric, SingularMetricError,
                   as_point, dual_norm_sq, rowdot)
from .losses import BregmanAround, LinearLoss, LossColumn, is_isotropic_quadratic
from .regularizers import (L1, Difference, Linear, Quadratic, Regularizer, Sum,
                           Terms, Zero, composite_wrap, optimistic_shift)
from . import solvers

TABLE2_CASES = (
    "oo-ftrl", "oo-md", "oo-md-strong",
    "so-ftrl", "so-md", "so-md-strong",
    "smooth-so-ftrl", "smooth-so-md", "smooth-so-md-strong",
)


@dataclass
class Ledger:
    """A run's rounds as columns, row t-1 for round t.

    ``x`` is (T+1) x d, rows t-1 and t the x_t and x_{t+1} of round t, and
    ``hint`` (an optimistic run's, else None) likewise holds hint_t and
    hint_{t+1}, whose difference shifts q_t.  ``sigma`` is a stochastic
    run's gradient noise (else None).  ``prox`` holds the metric of the
    proximal term (p_t for ftrl, r_t for md), centred at x_t when
    ``prox_at_x`` and at the origin otherwise; ``q_metric`` that of q~_t's
    quadratic, centred at the origin.  q~_t also holds
    psi = ``psi_alpha`` ||.||_1 when ``composite``, and B_{f_t}(., x_t)
    when ``needs_loss``.  ``r_metric`` holds the metric of r_{1:t},
    ``eta`` eta_t (None for a schedule without one).  ``q0_term`` is q~_0
    as the driver emitted it; ``q0_tilde`` and ``q0`` are its handle views.
    ``breg_r``, B_{r_{1:t}}(x_{t+1}, x_t), is no column: play does not need
    it, and it is derived from the columns when first read.  ``quadratic``
    is the centre column whose rows the losses view, or None.
    """

    x: np.ndarray
    g: np.ndarray
    loss_value: np.ndarray
    losses: list
    sigma: np.ndarray | None
    hint: np.ndarray | None
    prox: MetricColumn
    q_metric: MetricColumn
    r_metric: MetricColumn
    eta: np.ndarray | None
    q0_term: Terms
    feasible_set: object
    kind: str                      # "ftrl" or "md"
    prox_at_x: bool
    psi_alpha: float
    needs_loss: bool
    composite: bool = False
    stochastic: bool = False
    schedule: dict = field(default_factory=dict)
    solver_calls: int = 0
    quadratic: tuple | None = None

    @property
    def T(self) -> int:
        return self.loss_value.size

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def x1(self) -> np.ndarray:
        return self.x[0]

    @property
    def records(self) -> list:
        """A view of each round, built on demand."""
        return [RoundRecord(self, i) for i in range(self.T)]

    def final_point(self) -> np.ndarray:
        return self.x[-1]

    @property
    def q0_tilde(self) -> Regularizer:
        """q~_0: psi_1 when it was known before, then the origin-centred
        quadratic, the parts in the order ``composite_wrap`` folds them."""
        term = self.q0_term
        q = _quadratic(term.metric, np.zeros(self.dim))
        return Sum([L1(term.l1), q]) if term.l1 else q

    @property
    def q0(self) -> Regularizer:
        """q_0 = q~_0 + <hint_1, .>."""
        q = self.q0_tilde
        if self.hint is None or not self.hint[0].any():
            return q
        return Sum([q, Linear(self.hint[0])])

    @cached_property
    def loss_column(self) -> LossColumn:
        """The losses as one ``LossColumn``, built when first read.  Under
        exact feedback play keeps a linear loss as a ``LinearLoss`` of its
        g row, so a run of them is the column ``g`` itself; a run of
        quadratics from one centre column is that column."""
        if self.quadratic is not None:
            return LossColumn(self.T, [(slice(None), "quadratic", self.quadratic)])
        if self.sigma is None and all(type(f) is LinearLoss for f in self.losses):
            return LossColumn(self.T, [(slice(None), "linear", self.g)])
        return LossColumn.of(self.losses)

    @cached_property
    def breg_r(self) -> np.ndarray:
        """Row t-1: B_{r_{1:t}}(x_{t+1}, x_t), r_{1:t}'s parts added in the
        order play added them: 0.0, the quadratic under ``r_metric``, then
        for ftrl, whose r_{1:t} carries q_{0:t-1}, the l1 part at its
        running weight a, a||y||_1 - a||x||_1 - a||.||_1'(x; y - x), and
        each earlier round's loss divergence that is neither isotropic nor
        linear (a loop over handles; the isotropic ones are in
        ``r_metric``, the linear ones are 0)."""
        x = self.x
        out = 0.0 + _quad_values(self.r_metric, x[1:] - x[:-1])
        if self.kind != "ftrl":
            return out
        # r_{1:t}'s l1 weight: q~_0's, then psi's from each q_s, s < t
        a = np.cumsum(np.concatenate((
            [self.q0_term.l1],
            np.full(self.T - 1, self.psi_alpha))))
        n = np.abs(x).sum(axis=1)
        out += a * n[1:] - a * n[:-1] - a * _l1_deriv(x[:-1], x[1:] - x[:-1])
        if self.needs_loss:
            kept = []
            for i, f in enumerate(self.losses):
                for h in kept:
                    out[i] += h.bregman(x[i + 1], x[i])
                if not (is_isotropic_quadratic(f) or type(f) is LinearLoss):
                    kept.append(BregmanAround(f, x[i]))
        return out

    def prefix(self, T: int) -> "Ledger":
        """The run cut after round T."""
        def cut(col, n=T):
            return None if col is None else col[:n]
        return dataclasses.replace(
            self, x=self.x[:T + 1], g=self.g[:T], loss_value=self.loss_value[:T],
            losses=self.losses[:T], sigma=cut(self.sigma),
            hint=cut(self.hint, T + 1), prox=self.prox.cut(T),
            q_metric=self.q_metric.cut(T), r_metric=self.r_metric.cut(T),
            eta=cut(self.eta), quadratic=self.quadratic and tuple(
                cut(col) for col in self.quadratic))


class RoundRecord:
    """Round t of a ledger, read from row t-1 of its columns.

    ``p``, ``q`` and ``q_tilde`` are the round's regularizer handles, built
    from the row when asked for, so any comparator can be evaluated after
    the fact; for mirror descent ``p`` is r_t - q_{t-1}, with the convention
    (+inf) - (+inf) = +inf.  ``r_metric`` is the metric of
    r_{1:t} = p_{1:t} + q_{0:t-1}; it certifies the round's strong-convexity
    norm, so dual-norm terms use it.  ``x``, ``x_next`` and ``g`` are row
    views of the ledger's columns.
    """

    __slots__ = ("ledger", "i")

    def __init__(self, ledger: Ledger, i: int):
        self.ledger = ledger
        self.i = i

    t = property(lambda self: self.i + 1)
    x = property(lambda self: self.ledger.x[self.i])
    x_next = property(lambda self: self.ledger.x[self.i + 1])
    g = property(lambda self: self.ledger.g[self.i])
    loss = property(lambda self: self.ledger.losses[self.i])
    loss_value = property(lambda self: float(self.ledger.loss_value[self.i]))
    breg_r = property(lambda self: float(self.ledger.breg_r[self.i]))
    r_metric = property(lambda self: self.ledger.r_metric[self.i])

    @property
    def hint(self) -> np.ndarray:
        led = self.ledger
        return np.zeros(led.dim) if led.hint is None else led.hint[self.i]

    @property
    def sigma(self) -> np.ndarray | None:
        led = self.ledger
        if led.sigma is not None:
            return led.sigma[self.i]
        # exact feedback has no noise; a needs-loss preset takes no feedback
        return None if led.needs_loss else np.zeros(led.dim)

    @property
    def eta(self) -> float | None:
        eta = self.ledger.eta
        return None if eta is None else float(eta[self.i])

    @property
    def psi(self) -> L1 | None:
        led = self.ledger
        return L1(led.psi_alpha) if led.composite else None

    @property
    def q_tilde(self) -> Regularizer:
        led = self.ledger
        q = _quadratic(led.q_metric[self.i], np.zeros(led.dim))
        q = composite_wrap(q, self.psi)
        if led.needs_loss:
            q = Sum([BregmanAround(self.loss, self.x), q])
        return q

    @property
    def q(self) -> Regularizer:
        hint = self.ledger.hint
        if hint is None:
            return self.q_tilde
        return optimistic_shift(self.q_tilde, hint[self.i], hint[self.i + 1])

    @property
    def p(self) -> Regularizer:
        led = self.ledger
        center = self.x if led.prox_at_x else np.zeros(led.dim)
        prox = _quadratic(led.prox[self.i], center)
        if led.kind == "ftrl":
            return prox
        q_prev = led.q0 if self.i == 0 else RoundRecord(led, self.i - 1).q
        return Difference(prox, q_prev)


def _quadratic(metric, center) -> Regularizer:
    """(1/2) ||x - center||_metric^2, or Zero for a zero scaled metric, as the
    schedules emit it."""
    if metric.kind == "scaled" and metric.gamma == 0.0:
        return Zero()
    return Quadratic(center, metric)


@dataclass
class BoundInputs:
    """Problem-level constants that bounds may need beyond the ledger."""

    radius: float | None = None        # R, feasible-set width
    smoothness: float | None = None    # L
    variation: float | None = None     # D, total gradient variation
    variation_terms: list | None = None
    variation_quality: str = "exact"
    d_init: float | None = None        # f(x_1) - inf f for smooth stochastic rows


@dataclass
class BoundReport:
    case: str
    value: float
    terms: dict
    certified: bool = True
    quality: str = "exact"
    notes: list = field(default_factory=list)
    running: np.ndarray | None = field(default=None, repr=False)


# -- decomposition -----------------------------------------------------------

def _running(*cols) -> np.ndarray:
    """Entry t: ``total`` after row t of the loop ``total = 0.0``, then per
    row ``total += c[t]`` for each column c in turn.  np.cumsum adds in
    that order; the leading 0.0 is the loop's start."""
    steps = np.concatenate(([0.0], np.column_stack(cols).ravel()))
    return np.cumsum(steps)[len(cols)::len(cols)]


def _running_regret(ledger: Ledger, x_star, composite: bool | None = None,
                    regret=None) -> np.ndarray:
    """Entry t: sum_{s<=t} f_s(x_s) - f_s(x*), plus psi_s(x_s) - psi_s(x*)
    after each round's loss term when ``composite`` (the run's own setting
    by default).  ``regret`` takes the per-round f_t(x_t) - f_t(x*) when
    the caller has it."""
    x_star = as_point(x_star)
    if composite is None:
        composite = ledger.composite
    if regret is None:
        regret = ledger.loss_value - ledger.loss_column.value(x_star)
    if not composite:
        return _running(regret)
    # an uncomposite ledger has alpha 0, whose +0.0 leaves a total as it is
    alpha = ledger.psi_alpha
    psi = (alpha * np.abs(ledger.x[:-1]).sum(axis=1)
           - alpha * float(np.sum(np.abs(x_star))))
    return _running(regret, psi)


def _lin_fwd(ledger: Ledger, x_star) -> np.ndarray:
    return rowdot(ledger.g, ledger.x[1:] - x_star)


def empirical_regret(ledger: Ledger, x_star, composite: bool | None = None,
                     terms: dict | None = None) -> float:
    """sum_t f_t(x_t) - f_t(x*), plus the composite terms when requested:
    the last entry of the running regret.  ``terms`` is as in
    :func:`decomposition_residual`."""
    if composite is None:
        composite = ledger.composite
    if terms is not None and composite == ledger.composite:
        running = terms["cum_regret"]
    else:
        running = _running_regret(ledger, x_star, composite,
                                  None if terms is None else terms["regret"])
    return float(running[-1]) if running.size else 0.0


def forward_regret(ledger: Ledger, x_star, terms: dict | None = None) -> float:
    """R+_T = sum_t <g_t, x_{t+1} - x*>, summed in round order."""
    lin_fwd = _lin_fwd(ledger, as_point(x_star)) if terms is None \
        else terms["lin_fwd"]
    return float(_running(lin_fwd)[-1]) if lin_fwd.size else 0.0


def decomposition_terms(ledger: Ledger, x_star) -> dict:
    """Per-round columns of the four decomposition terms, plus ``regret``,
    f_t(x_t) - f_t(x*), and ``cum_regret``, the running regret under the
    run's composite setting (the CSV's column and, last entry,
    :func:`empirical_regret`).

    The directional derivative f_t'(x_t; x* - x_t) is evaluated once per
    round and shared between the divergence and the linearization gap, so
    the identity holds to rounding error by construction of the terms, not
    by cancellation luck.
    """
    x_star = as_point(x_star)
    x, x_next, g = ledger.x[:-1], ledger.x[1:], ledger.g
    to_star = x_star - x
    losses = ledger.loss_column
    f_star = losses.value(x_star)
    d = losses.dir_deriv(x, to_star)
    bad = np.flatnonzero(~np.isfinite(d))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"round {i + 1}: directional "
                         f"derivative toward x* is {d[i]}")
    regret = ledger.loss_value - f_star
    return {
        "lin_fwd": _lin_fwd(ledger, x_star),
        "drift": rowdot(g, x - x_next),
        "breg_loss": f_star - ledger.loss_value - d,
        "delta": rowdot(g, to_star) - d,
        "regret": regret,
        "cum_regret": _running_regret(ledger, x_star, regret=regret),
    }


def decomposition_residual(ledger: Ledger, x_star, terms: dict | None = None) -> float:
    """|R_T - (R+_T + drift - breg + delta)|; zero in exact arithmetic.

    ``terms`` takes the columns ``decomposition_terms`` already returned for
    this ledger and comparator, so a caller that also exports them computes
    them once."""
    if terms is None:
        terms = decomposition_terms(ledger, x_star)
    rhs = (float(np.sum(terms["lin_fwd"])) + float(np.sum(terms["drift"]))
           - float(np.sum(terms["breg_loss"])) + float(np.sum(terms["delta"])))
    return abs(empirical_regret(ledger, x_star, composite=False, terms=terms)
               - rhs)


# -- the per-round terms: one accounting path -----------------------------------

_FORWARD_CASES = ("forward-ftrl", "forward-md")
_AO_CASES = ("ao-ftrl", "ao-md")


def _capped(col: np.ndarray) -> np.ndarray:
    """``col``, +inf from its first +inf on: the running total is +inf from
    there, and the loop over rounds stopped evaluating terms."""
    hit = np.flatnonzero(col == INF)
    if hit.size:
        col[hit[0]:] = INF
    return col


def _matvec(m: MetricColumn, D, skip: np.ndarray) -> np.ndarray:
    """Row i: M_i D_i, as ``QuadMetric.matvec`` computes it, for every row
    but those in ``skip`` (left 0).  A quadratic's value is then
    0.5 * rowdot(D, M D) and its directional derivative rowdot(M D, Z)
    (``_quad_values``), the float steps of ``Quadratic`` (whose scale 1.0
    leaves a product as it is); full rows are a loop."""
    out = m.gamma[:, None] * D
    diag = m.kind == 1
    if diag.any():
        out[diag] = m.wide[diag] * D[diag]
    full = m.kind >= 2
    full[skip] = False
    for i in np.flatnonzero(full):
        out[i] = m[i].matvec(D[i])
    return out


def _quad_values(m: MetricColumn, D, Z=None) -> np.ndarray:
    """Row i: 0.5 D_i'M_i D_i, and given directions Z the row Z_i'M_i D_i.
    A full row whose roots the Gram served reads them as
    R_j = V diag(c) V' + f I (``QuadMetric.parts``): 0.5 D'R_j D is
    0.5 (f ||D||^2 + c.(V'D)^2), an increment's the new root's less the
    old's, every such row at once from the projections of D (and Z) onto
    the roots' V, stacked and zero-padded to the widest; no d x d is
    formed.  A loop of the rows' ``matvec`` over the same factors takes
    about twice as long at d = 50, T = 40.  Every other row goes through
    M_i D_i (``_matvec``)."""
    R, full = m.roots, np.zeros(0, dtype=int)
    n = 0 if R is None else R.gram()
    if n > 1:                           # the Gram served a round
        full = np.flatnonzero(m.kind >= 2)
        kind = m.kind[full]
        new = full + (kind > 2)
        full, kind, new = full[new < n], kind[new < n], new[new < n]
    MD = _matvec(m, D, full)
    val = 0.5 * rowdot(D, MD)
    out = val if Z is None else np.array([val, rowdot(MD, Z)])
    if full.size:
        parts = [R[j].parts() for j in range(new.max() + 1)]
        V = np.zeros((len(parts), m.dim, max(c.size for _, c, _ in parts)))
        C = np.zeros(V.shape[::2])
        for j, (v, c, _) in enumerate(parts):
            V[j, :, :c.size], C[j, :c.size] = v, c
        F = np.array([f for _, _, f in parts], dtype=float)
        Dr = D[full]
        Zr = None if Z is None else Z[full]

        def forms(js):
            # the roots js, a view of the stack where they run on
            Vj = V[js[0]:js[-1] + 1] if np.all(np.diff(js) == 1) else V[js]
            P = np.matmul(Dr[:, None], Vj)[:, 0]
            f, c = F[js], C[js]
            val = 0.5 * (f * rowdot(Dr, Dr) + rowdot(P * P, c))
            if Zr is None:
                return val
            Q = np.matmul(Zr[:, None], Vj)[:, 0]
            return np.array([val, f * rowdot(Zr, Dr) + rowdot(Q * P, c)])

        vals, inc = forms(new), kind == 4
        if inc.any():
            vals = vals - inc * forms(full)
        out[..., full] = vals
    return out


def _l1_deriv(y, z) -> np.ndarray:
    """Row i: ||.||_1'(y_i; z_i) as ``L1.dir_deriv`` takes it: the signed
    sum over y_i's non-zero coordinates, then |z_i| summed over its zeros."""
    return ((np.sign(y) * z).sum(axis=1)
            + np.where(y == 0.0, np.abs(z), 0.0).sum(axis=1))


def _term_values(Y, Z, metric: MetricColumn, l1: float, shift=None,
                 loss=None) -> np.ndarray:
    """Row i: a term's value at Y_i, and given directions Z its derivative
    along Z_i (``part`` pairs the two only then), its parts added as the
    handle's ``Sum`` adds them, from 0.0: the loss divergence (a value
    column and a thunk of the derivative column), l1 ||.||_1, the quadratic
    under ``metric``, then <shift_i, .> + 0.0.  A part the handle drops (a
    zero metric or shift) adds 0.0, which leaves the total as it is."""
    part = (lambda v, d: v) if Z is None else (lambda v, d: np.array([v, d()]))
    out = 0.0
    if loss is not None:
        out = out + part(*loss)
    if l1:
        out = out + part(l1 * np.abs(Y).sum(axis=1), lambda: l1 * _l1_deriv(Y, Z))
    out = out + _quad_values(metric, Y, Z)
    if shift is not None:
        out = out + part(rowdot(shift, Y) + 0.0, lambda: rowdot(shift, Z))
    return out


def _q_values(ledger: Ledger, y, tilde: bool, z=None, head: bool = False) -> np.ndarray:
    """Row i: q_t(y_i), or q~_t(y_i) when ``tilde``, for round t = i + 1 and
    a column of points y (or one shared point); given directions z, that
    row and the row q_t'(y_i; z_i).  With ``head``, row 0 is q_0 (q~_0 when
    ``tilde``) and round t is row t.  q_t's parts are B_{f_t}(., x_t), psi,
    q~_t's quadratic and the hint shift <h_{t+1} - h_t, .>; q_0's are
    q~_0's l1 weight (psi_1 known before) and quadratic, then <h_1, .>."""
    T, hint = ledger.T, ledger.hint
    Y = np.broadcast_to(y, (T + head, ledger.dim))
    Z = None if z is None else np.broadcast_to(z, Y.shape)
    out = []
    if head:
        term, m0 = ledger.q0_term, MetricColumn(1, ledger.dim)
        m0.put(0, term.metric)
        out.append(_term_values(Y[:1], None if Z is None else Z[:1], m0, term.l1,
                                None if hint is None or tilde else hint[:1]))
        Y, Z = Y[1:], None if Z is None else Z[1:]
    loss = None
    if ledger.needs_loss:
        # BregmanAround: f(y) - f(x_t) - <grad f(x_t), y - x_t>
        col = ledger.loss_column
        loss = (col.value(Y) - ledger.loss_value - rowdot(ledger.g, Y - ledger.x[:-1]),
                lambda: col.dir_deriv(Y, Z) - rowdot(ledger.g, Z))
    out.append(_term_values(
        Y, Z, ledger.q_metric, ledger.psi_alpha if ledger.composite else 0.0,
        None if hint is None or tilde else hint[1:] - hint[:-1], loss))
    return np.concatenate(out, axis=-1) if head else out[0]


def _p_values(ledger: Ledger, y, z=None) -> np.ndarray:
    """Row i: p_t(y_i) for round t = i + 1; given directions z, also the row
    p_t'(y_i; z_i).  p_t is the proximal quadratic (centred at x_t or the
    origin), for md less q_{t-1} as ``Difference`` takes it: q_0..q_{T-1}
    are the columns of the run cut after round T - 1, headed by q_0."""
    T = ledger.T
    Y = np.broadcast_to(y, (T, ledger.dim))
    Z = None if z is None else np.broadcast_to(z, Y.shape)
    out = _quad_values(ledger.prox, Y - ledger.x[:-1] if ledger.prox_at_x else Y, Z)
    if ledger.kind == "md":
        out = out - _q_values(ledger.prefix(T - 1), Y, False, Z, head=True)
    return out


def _diff_values(vs: np.ndarray, vx: np.ndarray) -> np.ndarray:
    """reg(x*) - reg(x) per row, +inf where reg(x*) is."""
    return _capped(np.where(vs == INF, INF, vs - vx))


def _bp_md(ledger: Ledger, x_star) -> np.ndarray:
    """Row i: B_{p_t}(x*, x_t) = p_t(x*) - p_t(x_t) - p_t'(x_t; x* - x_t),
    as ``core.bregman`` takes it of the md p_t's ``Difference``."""
    px, dx = _p_values(ledger, ledger.x[:-1], x_star - ledger.x[:-1])
    return _capped(_p_values(ledger, x_star) - px - dx)


def _dual_values(report: BoundReport, ledger: Ledger, V, shift: float,
                 P=None) -> np.ndarray:
    """Row i: 1/2 ||V_i||^2 under round i's certified metric, less
    shift * identity for the smooth rows; +inf from the first round whose
    metric cannot certify it, with a note naming the round.

    A zero vector costs 0.0.  A row is 1/2 sum_j s_j / w_j over the shifted
    weights w: a scaled row's gamma with s = ||V_i||^2, a diagonal row's
    weights with s = V_i^2, a full row's eigenvalues with s = P_i^2, P_i the
    projections of V_i that play recorded.  It is certified where
    ``shift_identity`` and ``dual_norm_sq`` would take it: each w > 0
    (< inf when shifted), a full row's least above 1e-14 max(1, its most)."""
    T = ledger.T
    if V is None:
        _uncertify(report, "round 1: missing vector for dual norm")
        return np.full(T, INF)
    m = ledger.r_metric
    live = V.any(axis=1)
    out = np.zeros(T)
    ok = ~live
    # a dual norm's full rows are r's roots (kinds 2 and 3)
    for k, w, X in ((0, m.gamma[:, None], V), (1, m.wide, V), (2, m.evals, P)):
        rows = np.flatnonzero(live & (np.minimum(m.kind, 2) == k))
        if not rows.size:
            continue
        if X is None:
            raise ValueError(f"round {rows[0] + 1}: no projections recorded")
        w, X = w[rows] - shift, X[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            out[rows] = 0.5 * (rowdot(X, X) / w[:, 0] if k == 0
                               else rowdot(X, X / w))
        ok[rows] = (w[:, 0] > _PD_FLOOR * np.maximum(1.0, w[:, -1])) if k == 2 \
            else (w > 0.0).all(axis=1) & ((w < INF).all(axis=1) | (not shift))
    stop = np.flatnonzero(~ok | (out == INF))
    if stop.size:
        i = int(stop[0])
        if not ok[i]:
            # the note QuadMetric's own checks give (a full row's in its eigenbasis)
            q = m[i] if m.kind[i] < 2 else QuadMetric.full(np.diag(m.evals[i]))
            try:
                dual_norm_sq(q.shift_identity(-shift) if shift else q, np.ones(m.dim))
            except SingularMetricError as e:
                note = str(e)
            except ValueError:
                note = f"metric cannot absorb smoothness {shift}"
            _uncertify(report, f"round {i + 1}: {note}")
        out[i:] = INF
    return out


def _uncertify(report: BoundReport, note: str) -> float:
    """Withdraw the report's certificate, say why, and return +inf."""
    report.certified = False
    report.notes.append(note)
    return INF


def _bound(ledger: Ledger, x_star, case: str, inputs: BoundInputs | None = None,
           include_final_q: bool = True) -> BoundReport:
    """Every bound of this module except the variational and schedule ones.

    Each term is a per-round column; the report's running bound is the
    left-to-right running sum of the terms (np.cumsum, which adds in the
    order a loop would, unlike the pairwise np.sum), its total the last
    entry, so a report and the CSV built from it agree bit for bit.  Row t
    of the running bound is the bound of the run truncated after round t.
    """
    if case not in TABLE2_CASES + _FORWARD_CASES + _AO_CASES:
        raise ValueError(f"unknown bound case {case!r}")
    ftrl_case = case.endswith("ftrl")
    if ftrl_case != (ledger.kind == "ftrl"):
        raise ValueError(f"case {case} does not match a {ledger.kind} ledger")
    forward = case in _FORWARD_CASES
    optimistic = case in _AO_CASES
    strong = case.endswith("md-strong")
    smooth = case.startswith("smooth")
    x_star = as_point(x_star)
    inputs = inputs or BoundInputs()
    report = BoundReport(case, 0.0, {})
    x = ledger.x[:-1]
    proj = ledger.r_metric.proj
    bp = None if ftrl_case else _bp_md(ledger, x_star)
    if strong:
        losses = ledger.loss_column
        breg_loss = (losses.value(x_star) - ledger.loss_value
                     - losses.dir_deriv(x, x_star - x))
        if np.any(breg_loss < bp - 1e-9):
            _uncertify(report, "loss curvature does not dominate B_{p_t}(x*, x_t)")

    # q_0 term, then one per round; the optimistic bounds use q~ and, like
    # include_final_q=False, stop one q term short of each row
    q_terms = _diff_values(_q_values(ledger, x_star, optimistic, head=True),
                           _q_values(ledger, ledger.x, optimistic, head=True))
    q_run = np.cumsum(q_terms)
    parts = {"q_sum": q_run[:-1] if optimistic or not include_final_q
             else q_run[1:]}
    if ftrl_case:
        parts["p_sum"] = np.cumsum(_diff_values(_p_values(ledger, x_star),
                                                _p_values(ledger, x)))
    elif not strong:
        parts["bp_sum"] = np.cumsum(bp)

    if smooth:
        L = inputs.smoothness
        if L is None or L <= 0:
            raise ValueError("smooth cases need a positive smoothness constant")
        if inputs.d_init is None:
            raise ValueError("smooth cases need d_init = f(x_1) - inf f")
        if not ledger.stochastic:
            report.notes.append("smooth case evaluated on a deterministic run")
        anchor = x_star if ftrl_case else x_star - ledger.x1
        parts["smooth_anchor"] = 0.5 * L * float(np.dot(anchor, anchor))
        parts["d_init"] = float(inputs.d_init)
        sigma = ledger.sigma if ledger.sigma is not None or ledger.needs_loss \
            else np.zeros_like(ledger.g)
        parts["noise_sum"] = np.cumsum(_dual_values(report, ledger, sigma, L,
                                                    proj.get("sigma")))
    elif optimistic:
        # play records the projections of g, and g - hint is g without hints
        hint, p = (0.0, proj.get("g")) if ledger.hint is None \
            else (ledger.hint[:-1], None)
        parts["hint_err_sum"] = np.cumsum(_dual_values(
            report, ledger, ledger.g - hint, 0.0, p))
    elif not forward:
        parts["grad_sum"] = np.cumsum(_dual_values(report, ledger, ledger.g, 0.0,
                                                   proj.get("g")))

    running = 0.0
    for part in parts.values():
        running = running + part
    if forward:
        parts["breg_r_sum"] = np.cumsum(_capped(ledger.breg_r.copy()))
        running = running - parts["breg_r_sum"]
    report.terms = {k: float(v[-1]) if isinstance(v, np.ndarray) else v
                    for k, v in parts.items()}
    report.running = running
    report.value = float(running[-1])
    return report


# -- the entry points ------------------------------------------------------------

def bound_forward_ftrl(ledger: Ledger, x_star, include_final_q: bool = True) -> BoundReport:
    """Follow-the-regularized-leader forward bound:
    sum (q_t(x*) - q_t(x_{t+1})) + sum (p_t(x*) - p_t(x_t)) - sum B_{r_{1:t}}(x_{t+1}, x_t)."""
    return _bound(ledger, x_star, "forward-ftrl", include_final_q=include_final_q)


def bound_forward_md(ledger: Ledger, x_star, include_final_q: bool = True) -> BoundReport:
    """Mirror-descent forward bound: the FTRL bound with B_{p_t}(x*, x_t)
    in place of p_t(x*) - p_t(x_t)."""
    return _bound(ledger, x_star, "forward-md", include_final_q=include_final_q)


def bound_table2(ledger: Ledger, x_star, case: str, inputs: BoundInputs | None = None,
                 include_final_q: bool = True) -> BoundReport:
    """Closed-form full-regret bound for the named schedule family.

    Online cases charge 1/2 ||g_t||^2 under the round's certified dual norm;
    stochastic cases are the same expressions in expectation.  The smooth
    stochastic cases charge only the noise part 1/2 ||sigma_t||^2 under the
    metric reduced by the smoothness constant, plus the one-time terms
    L/2 ||x*||^2 (or L/2 ||x* - x_1||^2 for mirror descent) and
    f(x_1) - inf f.  The strongly convex mirror-descent cases drop the
    B_{p_t} terms and are certified only where B_{f_t}(x*, x_t) >=
    B_{p_t}(x*, x_t) in every round.
    """
    if case not in TABLE2_CASES:
        raise ValueError(f"unknown bound case {case!r}")
    return _bound(ledger, x_star, case, inputs, include_final_q)


def bound_ao_ftrl(ledger: Ledger, x_star) -> BoundReport:
    """Optimistic FTRL bound:
    sum_{t=0}^{T-1} (q~_t(x*) - q~_t(x_{t+1})) + sum (p_t(x*) - p_t(x_t))
    + sum 1/2 ||g_t - hint_t||^2 dual.  With zero hints this is the plain
    FTRL bound with the final q term dropped, term by term."""
    return _bound(ledger, x_star, "ao-ftrl")


def bound_ao_md(ledger: Ledger, x_star) -> BoundReport:
    """Optimistic mirror-descent analog of :func:`bound_ao_ftrl`."""
    return _bound(ledger, x_star, "ao-md")


def bound_variational_smooth(ledger: Ledger, x_star, inputs: BoundInputs) -> BoundReport:
    """Variation bound for smooth losses under previous-gradient hints:
    q~_{0:T}(x*) + p_{1:T}(x*) + 2 sum_t (1/eta_t) sup_x ||grad f_t - grad f_{t-1}||^2,
    valid when eta_t eta_{t+1} >= 8 L^2 along the schedule."""
    x_star = as_point(x_star)
    L = inputs.smoothness if inputs.smoothness is not None else 0.0
    etas = [None] * ledger.T if ledger.eta is None else ledger.eta.tolist()
    if any(e is None or e <= 0 for e in etas):
        raise ValueError("variational bound needs a positive eta trail")
    chain = etas + [etas[-1]]
    for a, b in zip(chain, chain[1:]):
        if a * b < 8.0 * L ** 2 - 1e-12:
            raise ValueError(
                f"eta condition violated: {a} * {b} < 8 L^2 = {8 * L ** 2}")
    if inputs.variation_terms is None or len(inputs.variation_terms) != ledger.T:
        raise ValueError("variational bound needs per-round variation terms")
    report = BoundReport("variational-smooth", 0.0, {},
                         quality=inputs.variation_quality)
    q = float(np.cumsum(_q_values(ledger, x_star, True, head=True))[-1])
    p = float(_running(_p_values(ledger, x_star))[-1])
    v = 2.0 * sum(term / eta for term, eta in zip(inputs.variation_terms, etas))
    report.terms = {"q_at_star": q, "p_at_star": p, "variation_sum": v}
    report.value = q + p + v
    return report


def bound_final_attack(ledger: Ledger, inputs: BoundInputs) -> BoundReport:
    """Closed-form 2 R^3 L^2 + R + 2 R sqrt(2 D) for the doubly-adaptive
    proximal schedule (eta floor 4 R L^2, growth 2/R sqrt of hint errors)."""
    if ledger.schedule.get("name") != "final-attack":
        raise ValueError("final-attack bound needs a run under that schedule")
    R = inputs.radius
    L = inputs.smoothness if inputs.smoothness is not None else 0.0
    D = inputs.variation
    if R is None or not math.isfinite(R) or R <= 0:
        raise ValueError(f"needs a finite positive set width, got {R}")
    if D is None or D < 0:
        raise ValueError("needs a non-negative total gradient variation")
    report = BoundReport("final-attack", 0.0, {}, quality=inputs.variation_quality)
    report.terms = {
        "curvature": 2.0 * R ** 3 * L ** 2,
        "width": R,
        "variation": 2.0 * R * math.sqrt(2.0 * D),
    }
    report.value = float(sum(report.terms.values()))
    return report


def scale_tau(report: BoundReport, tau: float, breg_reg_sum: float = 0.0) -> BoundReport:
    """Rescale a convex-case bound for a tau-star-convex loss.

    The decomposition gives tau R_T <= (the bounded combination), so the
    bound divides by tau; for star-strongly-convex losses the recorded
    regularizer divergences are subtracted first.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    return BoundReport(
        case=f"{report.case}/tau={tau}",
        value=(report.value - breg_reg_sum) / tau,
        terms=dict(report.terms, breg_reg_correction=-breg_reg_sum),
        certified=report.certified,
        quality=report.quality,
        notes=list(report.notes),
    )


def sum_sqrt_check(a) -> tuple:
    """(sum_t a_t / sqrt(a_{1:t}), 2 sqrt(a_{1:T})) for non-negative a, a_1 > 0."""
    a = np.asarray(a, dtype=float)
    if a.size == 0 or a[0] <= 0 or np.any(a < 0):
        raise ValueError("needs non-negative terms with a positive first term")
    csum = np.cumsum(a)
    lhs = float(np.sum(a / np.sqrt(csum)))
    rhs = 2.0 * math.sqrt(float(csum[-1]))
    return lhs, rhs


# -- comparator --------------------------------------------------------------

def select_comparator(ledger: Ledger, policy: str = "offline-best",
                      point=None) -> np.ndarray:
    """Pick x*: an explicit point, the losses' star center, or the offline
    best fixed feasible point of the played sequence (composite included)."""
    fs = ledger.feasible_set
    if policy == "explicit":
        x = as_point(point)
        if not fs.contains(x):
            raise ValueError("explicit comparator is infeasible")
        return x
    if policy == "star-center":
        c = ledger.losses[0].star_center
        if c is None:
            raise ValueError("losses carry no star center")
        if not fs.contains(c):
            raise ValueError("star center is infeasible")
        return as_point(c)
    if policy != "offline-best":
        raise ValueError(f"unknown comparator policy {policy!r}")
    return _offline_best(ledger)


def _offline_best(ledger: Ledger) -> np.ndarray:
    fs = ledger.feasible_set
    # the run's psi_t are all alpha ||.||_1: their total, added round by round
    psi_alpha = float(_running(np.full(ledger.T, ledger.psi_alpha))[-1]) \
        if ledger.composite else 0.0
    # one group holds every loss when they are all of one kind
    (_, kind, data), *more = ledger.loss_column.groups
    kind = None if more else kind
    if kind == "linear":
        return _linear_offline(fs, data.sum(axis=0), psi_alpha)
    if ledger.composite:
        raise ValueError("offline comparator for composite runs needs linear losses")
    if kind == "quadratic":
        centers, weights = data
        return fs.project(np.average(centers, axis=0, weights=weights))
    losses = ledger.losses
    center = losses[0].star_center
    if center is not None and all(
            f.star_center is not None and np.array_equal(f.star_center, center)
            for f in losses):
        if not fs.contains(center):
            raise ValueError("shared star center is infeasible")
        return as_point(center)
    raise ValueError("no exact offline comparator for this loss mix")


def _linear_offline(fs, g_total: np.ndarray, psi_alpha: float) -> np.ndarray:
    if psi_alpha == 0.0:
        if isinstance(fs, solvers.Unconstrained):
            if np.any(np.abs(g_total) > 1e-12):
                raise ValueError("offline comparator unbounded below")
            return fs.center()
        return solvers.linear_argmin(fs, g_total)
    # piecewise-linear per coordinate: the minimum sits at a breakpoint
    if isinstance(fs, solvers.Box):
        # per coordinate lo, hi, then 0 where the box holds it; the first
        # of equal values wins
        cands = np.array([fs.lo, fs.hi, np.zeros(fs.dim)])
        vals = g_total * cands + psi_alpha * np.abs(cands)
        vals[2, (fs.lo > 0.0) | (fs.hi < 0.0)] = INF
        return cands[np.argmin(vals, axis=0), np.arange(fs.dim)]
    if isinstance(fs, solvers.Unconstrained):
        if np.any(np.abs(g_total) > psi_alpha + 1e-12):
            raise ValueError("offline comparator unbounded below")
        return np.zeros(fs.dim)
    raise ValueError("composite offline comparator supports box and free sets")


# -- ledger export -------------------------------------------------------------

CSV_TERMS = ("lin_fwd", "drift", "breg_loss", "delta")


def ledger_header(dim: int) -> list:
    cols = ["t"]
    cols += [f"x_{j}" for j in range(dim)]
    cols += [f"g_{j}" for j in range(dim)]
    cols += list(CSV_TERMS)
    cols += ["cum_regret", "cum_bound", "slack"]
    return cols


def ledger_rows(ledger: Ledger, x_star, bound_case: str | None = None,
                inputs: BoundInputs | None = None, terms: dict | None = None,
                report: BoundReport | None = None) -> list:
    """Fixed-layout rows: t, iterate, gradient, the four decomposition
    terms, then running regret, running bound, and their gap.  The running
    regret is ``terms["cum_regret"]``, so its last row is
    :func:`empirical_regret` bit for bit.

    The running bound is ``report``'s, by default the Table-2 report for
    ``bound_case`` (the run kind's online case when None); its last row is
    the report's value.  ``terms`` is as in :func:`decomposition_residual`.
    """
    x_star = as_point(x_star)
    if terms is None:
        terms = decomposition_terms(ledger, x_star)
    if report is None:
        report = bound_table2(ledger, x_star, bound_case or f"oo-{ledger.kind}",
                              inputs)
    t = np.arange(1.0, ledger.T + 1.0)
    cum_regret, cum_bound = terms["cum_regret"], report.running
    return np.column_stack(
        [t, ledger.x[:-1], ledger.g] + [terms[k] for k in CSV_TERMS]
        + [cum_regret, cum_bound, cum_bound - cum_regret]).tolist()
