"""Regularizer algebra and the schedules that emit per-round regularizers.

The adaptive FTRL update at round t minimizes

    <g_{1:t}, x> + p_{1:t}(x) + q_{0:t}(x)

over the feasible set, while the mirror-descent update minimizes

    <g_t, x> + q_t(x) + B_{r_{1:t}}(x, x_t),      r_t = p_t + q_{t-1}.

Everything the schedules emit is built from five closed-under-addition
pieces: quadratics (any center, any metric), linear terms, an l1 term, set
indicatrices, and sums of those.  Proximal terms p_t must attain their
minimum over the feasible set at the current iterate x_t; emission helpers
construct them that way and the solver re-checks cheaply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import INF, QuadMetric, as_point, dot, quad_norm_sq, running


class ProximalConditionError(ValueError):
    """p_t failed the requirement p_t(x_t) = min over the feasible set."""


class Regularizer:
    """Extended-real-valued convex building block.

    Subclasses implement ``value`` and ``dir_deriv``; ``bregman`` defaults to
    the divergence formula and is overridden where a closed form is cheaper.
    """

    def value(self, x) -> float:
        raise NotImplementedError

    def dir_deriv(self, x, z) -> float:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        """A local sub-gradient (the gradient where one exists)."""
        raise NotImplementedError(f"{type(self).__name__} has no gradient handle")

    def bregman(self, y, x) -> float:
        from . import core
        return core.bregman(self, y, x)

    def __add__(self, other: "Regularizer") -> "Regularizer":
        return Sum([self, other])

    def is_zero(self) -> bool:
        return False


class Zero(Regularizer):
    """The zero function.  Dimension-free."""

    def value(self, x):
        return 0.0

    def dir_deriv(self, x, z):
        return 0.0

    def grad(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def bregman(self, y, x):
        return 0.0

    def is_zero(self):
        return True

    def __repr__(self):
        return "Zero()"


class Quadratic(Regularizer):
    """(scale / 2) * ||x - center||_M^2.

    ``scale`` may be negative: the algebra allows decreasing regularization,
    and ``check_proximal`` rejects such a quadratic as p_t.
    """

    def __init__(self, center, metric: QuadMetric, scale: float = 1.0):
        self.center = as_point(center)
        self.metric = metric
        self.scale = float(scale)

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return 0.5 * self.scale * quad_norm_sq(self.metric, d)

    def grad(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return self.scale * self.metric.matvec(d)

    def dir_deriv(self, x, z):
        return dot(self.grad(x), z)

    def bregman(self, y, x):
        d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
        return 0.5 * self.scale * quad_norm_sq(self.metric, d)

    def __repr__(self):
        return f"Quadratic(center={self.center!r}, metric={self.metric!r}, scale={self.scale})"


class Linear(Regularizer):
    """<v, x> + w."""

    def __init__(self, v, w: float = 0.0):
        self.v = as_point(v)
        self.w = float(w)

    def value(self, x):
        return dot(self.v, x) + self.w

    def grad(self, x):
        return self.v.copy()

    def dir_deriv(self, x, z):
        return dot(self.v, z)

    def bregman(self, y, x):
        return 0.0

    def __repr__(self):
        return f"Linear(v={self.v!r}, w={self.w})"


class L1(Regularizer):
    """alpha * ||x||_1 with alpha >= 0."""

    def __init__(self, alpha: float):
        alpha = float(alpha)
        if alpha < 0:
            raise ValueError(f"l1 coefficient must be >= 0, got {alpha}")
        self.alpha = alpha

    def value(self, x):
        return self.alpha * float(np.sum(np.abs(x)))

    def grad(self, x):
        # sign(x) with 0 at zero coordinates is a valid local sub-gradient
        return self.alpha * np.sign(np.asarray(x, dtype=float))

    def dir_deriv(self, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        at_zero = x == 0.0
        val = float(np.sum(np.sign(x[~at_zero]) * z[~at_zero]))
        val += float(np.sum(np.abs(z[at_zero])))
        return self.alpha * val

    def is_zero(self):
        return self.alpha == 0.0

    def __repr__(self):
        return f"L1({self.alpha})"


class Indicatrix(Regularizer):
    """0 on the feasible set, +inf outside it."""

    def __init__(self, feasible_set):
        self.set = feasible_set

    def value(self, x):
        return 0.0 if self.set.contains(x) else INF

    def dir_deriv(self, x, z):
        if not self.set.contains(x):
            raise ValueError("directional derivative of an indicatrix off its set")
        return 0.0 if self.set.direction_feasible(x, z) else INF

    def bregman(self, y, x):
        if not self.set.contains(x):
            raise ValueError("B(y, x) of an indicatrix needs x in the set")
        return 0.0 if self.set.contains(y) else INF

    def __repr__(self):
        return f"Indicatrix({self.set!r})"


class Sum(Regularizer):
    """Sum of parts, flattened, with +inf absorbing."""

    def __init__(self, parts):
        flat = []
        for p in parts:
            if isinstance(p, Sum):
                flat.extend(p.parts)
            elif not p.is_zero():
                flat.append(p)
        self.parts = flat

    def value(self, x):
        total = 0.0
        for p in self.parts:
            v = p.value(x)
            if v == INF:
                return INF
            total += v
        return total

    def grad(self, x):
        x = as_point(x)
        g = np.zeros_like(x)
        for p in self.parts:
            g = g + p.grad(x)
        return g

    def dir_deriv(self, x, z):
        total = 0.0
        for p in self.parts:
            d = p.dir_deriv(x, z)
            if d == INF:
                return INF
            if d == -INF:
                return -INF
            total += d
        return total

    def bregman(self, y, x):
        total = 0.0
        for p in self.parts:
            b = p.bregman(y, x)
            if b == INF:
                return INF
            total += b
        return total

    def is_zero(self):
        return not self.parts

    def __repr__(self):
        return f"Sum({self.parts!r})"


class Difference(Regularizer):
    """r - q with the convention (+inf) - (+inf) = +inf.

    This is exactly the convention under which p_t := r_t - q_{t-1} is
    recovered from a mirror-descent round.  Values of -inf are rejected: a
    schedule whose q outgrows r off the domain of r is a configuration error.
    """

    def __init__(self, r: Regularizer, q: Regularizer):
        self.r = r
        self.q = q

    def value(self, x):
        rv = self.r.value(x)
        qv = self.q.value(x)
        if rv == INF:
            return INF
        if qv == INF:
            raise ValueError("difference regularizer hit finite - inf = -inf")
        return rv - qv

    def grad(self, x):
        return self.r.grad(x) - self.q.grad(x)

    def dir_deriv(self, x, z):
        rd = self.r.dir_deriv(x, z)
        qd = self.q.dir_deriv(x, z)
        if rd == INF:
            return INF
        if qd == INF:
            return -INF
        if qd == -INF:
            return INF
        return rd - qd

    def __repr__(self):
        return f"Difference({self.r!r}, {self.q!r})"


def affine_shift(f: Regularizer, v, w: float = 0.0) -> Regularizer:
    """f + <v, .> + w, used to probe affine invariance of the divergence."""
    return Sum([f, Linear(v, w)])


# -- proximal-condition checking -------------------------------------------

def check_proximal(p, x_t, feasible_set, rng=None, n_probes: int = 50,
                   tol: float = 1e-9) -> None:
    """Assert p(x_t) <= p(x) + tol on probe points of the set.

    Quadratics centered at x_t with PSD metric and non-negative scale are
    proximal by construction and skip the probe loop; x_t is only validated
    when the probes need its value.  An emitted ``Terms`` p_t has no value
    to probe: it passes only by its structure.
    """
    if _structurally_proximal(p, x_t):
        return
    if isinstance(p, Terms):
        raise ProximalConditionError("p_t is a quadratic not centred at x_t")
    x_t = as_point(x_t)
    if rng is None:
        rng = np.random.default_rng(0)
    base = p.value(x_t)
    if not math.isfinite(base):
        raise ProximalConditionError(f"p_t(x_t) = {base} is not finite")
    for _ in range(n_probes):
        probe = feasible_set.sample(rng)
        if base > p.value(probe) + tol:
            raise ProximalConditionError(
                f"p_t(x_t) = {base} exceeds p_t(probe) = {p.value(probe)}")


def _structurally_proximal(p, x_t: np.ndarray) -> bool:
    if isinstance(p, Terms):
        # an emitted p_t: one quadratic, zero or centred at x_t
        m = p.metric
        return (p.l1 == 0.0 and p.shift is None and not p.loss
                and (m.kind == "scaled" and m.gamma == 0.0 or p.center is x_t
                     or bool(np.array_equal(p.center, x_t))))
    if p.is_zero():
        return True
    if isinstance(p, Quadratic):
        return p.scale >= 0 and bool(np.array_equal(p.center, x_t))
    if isinstance(p, Sum):
        return all(_structurally_proximal(part, x_t) for part in p.parts)
    return False


class Terms(NamedTuple):
    """One round term as parameters: what it adds to the objective and to r.

    ``Driver`` emits each term in this form, q~_0 included, with its parts
    in the order every fold takes them: the round loss's divergence from
    x_t (``loss``), the l1 weight, the quadratic
    (1/2) ||x - center||_metric^2 (centred at x_t, or at the origin: None),
    the linear part <shift, x>.  The r-divergence
    B_{r_{1:t}}(x_{t+1}, x_t) needs none of this: the ledger derives it
    from its columns (``regret.Ledger.breg_r``).  A term of a full-matrix
    ftrl round also carries ``total``, the running metric the driver's r
    reaches once the term is added, with its eigenpairs."""

    metric: QuadMetric                 # PSD metric of the quadratic part
    l1: float = 0.0                    # total l1 weight
    center: np.ndarray | None = None   # the quadratic's centre; None: the origin
    shift: np.ndarray | None = None    # the emitted linear part, or None
    loss: bool = False                 # B_{f_t}(., x_t) is a part
    total: QuadMetric | None = None    # the running metric after this term


# -- schedules ---------------------------------------------------------------

@dataclass
class ScheduleState:
    """Mutable accumulator a schedule threads through the rounds.

    While the Gram serves the full-matrix schedule (``adagrad_full_step``)
    its state is factored: ``rows`` and ``gram`` hold the g rows A (t x d)
    and A A', ``_prev_root`` the root G_t^{1/2} as an ``eigen`` metric
    (floor, U, D) and ``total`` that over eta; no accumulator is kept.
    From the round the d x d route takes over, ``accum_sq`` is G_t and
    ``_prev_root`` its root as a d x d matrix."""

    accum_sq: np.ndarray | None = None     # per-coordinate or full-matrix sums
    accum_hint_err: float = 0.0            # sum of ||g_t - hint_t||^2
    _prev_root: np.ndarray | QuadMetric | None = field(default=None, repr=False)
    # the full-matrix schedule's running metric root(G_t) / eta, with its eigenpairs
    total: QuadMetric | None = field(default=None, repr=False)
    rows: np.ndarray | None = field(default=None, repr=False)
    gram: np.ndarray | None = field(default=None, repr=False)


def adagrad_diag_step(state: ScheduleState, g, eta: float, gamma0: float):
    """Diagonal adaptive-metric increment for round t: row 0 of a one-row
    ``adagrad_diag_rows``, the round-t difference of the roots of
    diag(sqrt(gamma0 + sum g_s^2)) / eta.  eta and gamma0 are checked where
    ``state`` starts, g only for its shape (``Driver.round`` checks its
    entries); a row the scan rejects goes to ``QuadMetric.diagonal``, which
    names its weight in a ``ValueError`` before ``state`` is written."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 1:
        g = as_point(g)     # a scalar is a 1-vector; any other shape raises
    if state.accum_sq is None:
        if eta <= 0:
            raise ValueError(f"eta must be positive, got {eta}")
        if gamma0 < 0:
            raise ValueError(f"gamma0 must be >= 0, got {gamma0}")
    W, n, sums, roots = adagrad_diag_rows(state, g[None], eta, gamma0)
    incr = QuadMetric("diag", weights=W[0], dim=g.size) if n else QuadMetric.diagonal(W[0])
    state.accum_sq, state._prev_root = sums[1], roots[1]
    return incr, state


def adagrad_diag_rows(state: ScheduleState, G: np.ndarray, eta: float,
                      gamma0: float):
    """The diagonal AdaGrad schedule over the g rows G, one round a row, as
    one cumsum/sqrt/diff scan that writes no ``state``: (W, n, sums, roots),
    row k of W round k+1's increment, its first n rows accepted (each weight
    >= 0 and finite), row k of sums and roots the state after k rounds.
    Rows past n may overflow (call it under np.errstate)."""
    sums = running(gamma0 if state.accum_sq is None else state.accum_sq, G * G)
    roots = np.sqrt(sums)
    W = (roots[1:] - roots[:-1]) / eta
    n = len(W)
    if not (W.min() >= 0.0 and W.max() < INF):
        n = int(np.argmin((W.min(axis=1) >= 0.0) & (W.max(axis=1) < INF)))
    return W, n, sums, roots


# the largest dimension the full-matrix schedule takes: a round the Gram
# does not serve costs O(d^3) for the accumulator's eigendecomposition
FULL_MATRIX_MAX_DIM = 256

# The Gram serves round t while 6 t < 5 d, from dimension GRAM_MIN_DIM up:
# there its t x t eigh and k x k increment check undercut the d x d eigh,
# the d x d root and psd_full's d x d Cholesky.  Timed per round against a
# d x d round that also adds g g' to its accumulator (numpy 2.4 with
# OpenBLAS, 2 vCPUs, uniform gradients, 40 to 60 interleaved runs), the
# Gram gained in every round up to t = 19 of d = 26, 22 of 30, 28 of 36,
# 32 of 40, 34 of 44, 40 of 50 and 57 of 64, and about broke even at
# d = 20 (mean 88.8 against 88.2 us a round, losing from t = 11)
GRAM_MIN_DIM = 26

# Gram eigenvalues s <= GRAM_FLOOR max(s) join the root's floor sqrt(gamma0):
# eigh's rounding noise on a Gram of t < 256 rows is about t eps max(s)
# < 5.7e-14 max(s), so the noise s of a repeated or dependent row, whose U
# column is undetermined, is dropped.  So is a real pair that small, which
# the Gram's eigh cannot resolve; ``adagrad_full_step`` tells the two apart
# by q = ||A'w||^2, the part of G_t the pair carries
GRAM_FLOOR = 1e-13

# A round may drop only pairs with q <= GRAM_NULL t max(s), null directions
# of A up to the rounding of A'w (q of dependent rows read below
# t eps^2 max(s)); the n <= t it drops then move the root by at most
# sqrt(sum q) <= 4 t eps ||G_t^{1/2}||, the order of the root's own
# rounding.  A round that would drop more takes the d x d eigh, as does
# every round after it: the Gram must not let the root shrink where a real
# pair was kept before
GRAM_NULL = (4 * np.finfo(float).eps) ** 2


def gram_rounds(d: int) -> int:
    """The rounds t = 1.. the Gram may serve at dimension d: 6 t < 5 d, from
    ``GRAM_MIN_DIM`` up."""
    return (5 * d - 1) // 6 if d >= GRAM_MIN_DIM else 0


def adagrad_full_step(state: ScheduleState, g, eta: float, gamma0: float):
    """Full-matrix adaptive-metric increment (G_t^{1/2} - G_{t-1}^{1/2}) / eta
    for G_t = gamma0 I + sum_{s <= t} g_s g_s'.

    G_t is gamma0 I plus A'A for the t x d rows A of g_1..g_t.  In a round
    the Gram serves (``gram_rounds``: t < 5d/6 from dimension
    ``GRAM_MIN_DIM`` up), the root
    comes from the t x t Gram K = A A' (grown by a row and a column a
    round): for K = W diag(s) W', U = A' W / sqrt(s) holds the top
    eigenvectors of G_t and G_t^{1/2} = sqrt(gamma0) I + U diag(D) U' for
    D = sqrt(gamma0 + s) - sqrt(gamma0); the floor sqrt(gamma0) is the
    eigenvalue of the complement of U's columns, and an s below
    ``GRAM_FLOOR`` max(s) joins it if A'w shows it null (``GRAM_NULL``).
    Such a round stays factored: the root is (floor, U, D) and nothing
    d x d is formed.  The square root is operator monotone (Loewner-Heinz),
    so the increment is PSD in exact arithmetic; ``QuadMetric.psd_difference``
    proves it on its k x k core, D_t - P D_{t-1} P' for P = U_t' U_{t-1},
    with ``psd_full``'s shift, bounding U_{t-1}'s part off U_t's span and
    how far U_t's columns are from orthonormal.
    A round whose proof fails, every round past 5d/6, and every round from
    one whose small s is not null on, take the d x d route: one
    eigendecomposition of the accumulator G_t (summed from the kept rows,
    in round order, where the Gram hands over) gives the root, and one
    Cholesky factorisation checks the increment (``QuadMetric.psd_full``).
    ``state.total`` is left holding G_t^{1/2} / eta with its eigenvalues
    (all d, ascending) and the eigenvectors of the non-floor ones (d x k,
    all d once the Gram stops): an ftrl round takes it as r's running
    metric, so its argmin does not decompose a matrix again, and the ledger
    keeps that root (a Gram root's factors alone), not the increment, with
    the eigenvalues and g_t's projections (``core.MetricColumn``).  g is
    trusted as in ``adagrad_diag_step``, and a bad one fails the same way."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 1:
        g = as_point(g)
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if gamma0 < 0:
        raise ValueError(f"gamma0 must be >= 0, got {gamma0}")
    d = g.shape[0]
    if d > FULL_MATRIX_MAX_DIM:
        raise ValueError(f"full-matrix schedule capped at dim {FULL_MATRIX_MAX_DIM}, "
                         f"got {d}")
    floor = math.sqrt(gamma0)
    if state._prev_root is None:
        if d >= GRAM_MIN_DIM:
            accum, rows, gram = None, np.empty((0, d)), np.empty((0, 0))
            prev_root = QuadMetric.eigen(np.full(d, floor), np.empty((d, 0)))
            prev_total = QuadMetric.eigen(prev_root._evals / eta, prev_root._evecs)
        else:
            accum, rows = float(gamma0) * np.eye(d), None
            prev_root = floor * np.eye(d)
    else:
        accum, prev_root, prev_total = state.accum_sq, state._prev_root, state.total
        rows, gram = state.rows, state.gram
    incr = None
    if rows is not None and len(rows) < gram_rounds(d):
        t = len(rows)
        grown = np.empty((t + 1, t + 1))
        grown[:t, :t] = gram
        grown[t, :t] = grown[:t, t] = rows @ g
        grown[t, t] = g.dot(g)
        gram, kept = grown, np.concatenate((rows, g[None]))
        s, w = np.linalg.eigh(gram)
        if not s[-1] < INF:
            raise ValueError("full metric has non-finite entries")
        # s ascends: the kept pairs are its tail
        n = int(np.searchsorted(s, GRAM_FLOOR * s[-1], "right"))
        if not n or (np.square(kept.T @ w[:, :n]).sum(axis=0).max()
                     <= GRAM_NULL * (t + 1) * s[-1]):
            evecs = kept.T @ (w[:, n:] / np.sqrt(s[n:]))
            roots = np.full(d, floor)
            roots[d - t - 1 + n:] = np.sqrt(gamma0 + s[n:])
            new_root = QuadMetric.eigen(roots, evecs)
            total = QuadMetric.eigen(roots / eta, evecs)
            incr = QuadMetric.psd_difference(total, prev_total)
    if incr is None:
        if accum is None:
            # the Gram hands over: G_t summed in round order, as a round
            # adds its g g' below, bit for bit
            accum, outer = float(gamma0) * np.eye(d), np.empty((d, d))
            for row in rows:
                accum += np.multiply(row[:, None], row, out=outer)
        accum = accum + np.outer(g, g)
        evals, evecs = np.linalg.eigh(accum)
        # rounding-level negative eigenvalues of the PSD accumulator are zeros
        roots = np.sqrt(np.maximum(evals, 0.0))
        new_root = (evecs * roots) @ evecs.T
        new_root = 0.5 * (new_root + new_root.T)
        prev = prev_root.matrix if type(prev_root) is QuadMetric else prev_root
        incr = QuadMetric.psd_full((new_root - prev) / eta)
        total = QuadMetric("full", matrix=new_root / eta, dim=d,
                           _evals=roots / eta, _evecs=evecs)
        kept = gram = None
    state.accum_sq = accum
    state._prev_root = new_root
    state.rows, state.gram = kept, gram
    state.total = total
    return incr, state


def adagrad_initial_metric(dim: int, eta: float, gamma0: float) -> QuadMetric:
    """Round-0 metric sqrt(gamma0)/eta * I contributed by the gamma0 seed."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    return QuadMetric.scaled(math.sqrt(gamma0) / eta, dim)


def ftrl_prox_increment(x_t, metric_increment: QuadMetric) -> Regularizer:
    """Proximal quadratic (1/2)||x - x_t||^2 under the given metric increment."""
    return Quadratic(x_t, metric_increment, 1.0)


def optimistic_shift(q_tilde: Regularizer, hint_prev, hint_next) -> Regularizer:
    """Fold a hint change into the round regularizer: q_t = q~_t + <hint_next - hint_prev, .>.

    Summed over rounds the linear parts telescope to <hint_{T+1}, .>, which is
    how the optimistic update stays a plain FTRL instance.
    """
    shift = as_point(hint_next) - as_point(hint_prev)
    if not np.any(shift):
        return q_tilde
    return Sum([q_tilde, Linear(shift, 0.0)])


def scale_free_eta(state: ScheduleState, g, hint, eta0: float) -> float:
    """eta_t = eta0 * sqrt(sum_s ||g_s - hint_s||^2), updating the accumulator.

    Positively homogeneous in the gradient/hint stream, which is what makes
    the proximal schedule built on it scale-free.
    """
    g = as_point(g)
    hint = as_point(hint)
    if eta0 <= 0:
        raise ValueError(f"eta0 must be positive, got {eta0}")
    err = g - hint
    state.accum_hint_err += float(np.dot(err, err))
    eta = eta0 * math.sqrt(state.accum_hint_err)
    return eta


def final_attack_eta(state: ScheduleState, g, hint, radius: float, smooth_l: float) -> float:
    """eta_t = 4 R L^2 + (2/R) sqrt(sum_s ||g_s - hint_s||^2).

    The additive floor keeps the schedule usable for smooth losses; with
    L = 0 it degenerates to the scale-free schedule with eta0 = 2/R.
    """
    if not math.isfinite(radius) or radius <= 0:
        raise ValueError(f"needs a finite positive set radius, got {radius}")
    if smooth_l < 0:
        raise ValueError(f"smoothness constant must be >= 0, got {smooth_l}")
    g = as_point(g)
    hint = as_point(hint)
    err = g - hint
    state.accum_hint_err += float(np.dot(err, err))
    eta = 4.0 * radius * smooth_l ** 2 + (2.0 / radius) * math.sqrt(state.accum_hint_err)
    return eta


def eta_increment(eta_t: float, eta_prev: float) -> float:
    """eta_t - eta_prev for a non-decreasing eta schedule."""
    if eta_t < eta_prev - 1e-12:
        raise ValueError(f"eta schedule must be non-decreasing ({eta_prev} -> {eta_t})")
    return max(eta_t - eta_prev, 0.0)


def proximal_eta_increment(x_t, eta_t: float, eta_prev: float) -> Regularizer:
    """p_t = ((eta_t - eta_prev)/2) ||x - x_t||^2 for a non-decreasing eta schedule."""
    gamma = eta_increment(eta_t, eta_prev)
    if gamma == 0.0:
        return Zero()
    return Quadratic(x_t, QuadMetric.scaled(gamma), 1.0)


# -- composite wrapping ------------------------------------------------------

COMPOSITE_SETTINGS = ("known-before", "revealed-after")


def composite_wrap(q_tilde: Regularizer, psi: Regularizer | None) -> Regularizer:
    """Fold a composite term into the round regularizer: psi + q~_t.

    Both ``COMPOSITE_SETTINGS`` fold this way and differ only in which
    round's term the caller passes: ``known-before`` folds the NEXT round's
    composite term (psi_{t+1}) into q_t, ``revealed-after`` the current one
    (psi_t) and leaves q_0 untouched.  Callers pass psi=None at the boundary
    rounds where the folded term is defined to be zero.
    """
    if psi is None or psi.is_zero():
        return q_tilde
    return Sum([psi, q_tilde])


def validate_psi_sequence(psis, x1, probe_points, tol: float = 1e-9) -> None:
    """Check psi_1(x_1) = 0 and psi_1 >= psi_2 >= ... >= 0 on the probes.

    These are the admissibility conditions for folding composite terms that
    are only revealed after the prediction is made.
    """
    if not psis:
        return
    x1 = as_point(x1)
    v1 = psis[0].value(x1)
    if abs(v1) > tol:
        raise ValueError(f"psi_1(x_1) = {v1}, must be 0")
    for i, psi in enumerate(psis):
        for x in probe_points:
            v = psi.value(x)
            if v < -tol:
                raise ValueError(f"psi_{i + 1} takes negative value {v}")
            if i + 1 < len(psis):
                nxt = psis[i + 1].value(x)
                if nxt > v + tol:
                    raise ValueError(
                        f"psi sequence increases at index {i + 1}: {v} -> {nxt}")
