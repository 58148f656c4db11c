"""Feasible sets and the per-round argmin solvers.

Every learner update in this package is one minimization of

    F(x) = <lin, x> + (quadratic part) + alpha ||x||_1 + sum of smooth losses

over a feasible set.  The quadratic part collects regularizer quadratics
(signed scales allowed) into one scalar/diagonal/full form, so closed-form
routes stay O(d).  The divergence of an isotropic quadratic loss, as
implicit and non-linearized updates fold it in, is itself such a quadratic
and lands in that form too; only other losses stay in the objective as
handles.  Three routes exist and are deliberately kept separate so they can
cross-check each other in tests.  ``minimize`` is the one place that picks
among them; the two exact routes raise ``ValueError`` on an objective
outside their domain instead of handing it on:

* ``argmin_quadratic``  - exact solve: a linear system without a set; on a
  set, projection for an isotropic quadratic, clipping for a diagonal one on
  a box, a range-space active-set method for a full one on a box (primal-
  dual steps that move every wrong bound at once, then one bound a step),
  and the secular equation for a diagonal one on a ball,
* ``argmin_l1_composite`` - coordinate soft-thresholding for a diagonal
  quadratic, on a box or the free set,
* ``argmin_numeric``    - proximal gradient with backtracking and an
  a-posteriori distance certificate from strong convexity; the reference,
  and the route for the instances listed in ``minimize``.

The exact routes share one certificate, ``_certify``: the proximal-gradient
fixed-point residual (soft-thresholded, then projected) must stay within
1e-8 (1 + ||lin|| + L), for the quadratic part's largest curvature L.  A
call checks its own result, except where ``learners.Driver._chunk`` plays a
chunk of more than one row: there the separable exact routes (a diagonal or
isotropic quadratic, with or without l1) check curvature only and leave the
residual to ``_certify_rows``, which tests every row of the chunk at once
with the same formula and tolerance.  A one-row chunk, x_1, a full metric,
``argmin_numeric`` and every library call certify per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import INF, DimensionMismatch, QuadMetric, as_point, rowdot
from .losses import BregmanAround, LinearLoss, is_isotropic_quadratic
from .regularizers import L1, Indicatrix, Linear, Quadratic, Regularizer, Sum

_FEAS_TOL = 1e-9


class IllPosedError(ValueError):
    """The argmin does not exist or is not unique under the requested route."""


class NumericArgminError(RuntimeError):
    """The iterative solver could not certify the requested tolerance."""


# -- feasible sets -----------------------------------------------------------

class FeasibleSet:
    dim: int

    def contains(self, x, tol: float = _FEAS_TOL) -> bool:
        raise NotImplementedError

    def project(self, y) -> np.ndarray:
        """Euclidean projection of a point onto the set."""
        return self._project(as_point(y))

    def _project(self, y: np.ndarray) -> np.ndarray:
        """The projection of a float64 vector the caller already holds as
        one; the solvers call it on iterates they computed themselves."""
        raise NotImplementedError

    def _project_rows(self, Y: np.ndarray) -> np.ndarray:
        """Row j: ``_project(Y[j])``, bit for bit."""
        return np.array([self._project(y) for y in Y])

    def center(self) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng) -> np.ndarray:
        raise NotImplementedError

    def diameter(self) -> float:
        raise NotImplementedError

    def direction_feasible(self, x, z, tol: float = _FEAS_TOL) -> bool:
        """True if x + a z stays in the set for all small enough a > 0."""
        raise NotImplementedError

    def max_dist_to(self, point) -> float:
        """sup over the set of ||x - point||_2 (closed form per shape)."""
        raise NotImplementedError


class Unconstrained(FeasibleSet):
    def __init__(self, dim: int):
        self.dim = int(dim)

    def contains(self, x, tol=_FEAS_TOL):
        return True

    def _project(self, y):
        return y.copy()

    def _project_rows(self, Y):
        return Y

    def center(self):
        return np.zeros(self.dim)

    def sample(self, rng):
        return rng.standard_normal(self.dim)

    def diameter(self):
        return INF

    def direction_feasible(self, x, z, tol=_FEAS_TOL):
        return True

    def max_dist_to(self, point):
        return INF

    def __repr__(self):
        return f"Unconstrained({self.dim})"


class Box(FeasibleSet):
    def __init__(self, lo, hi):
        self.lo = as_point(lo)
        self.hi = as_point(hi)
        if self.lo.shape != self.hi.shape:
            raise ValueError("box bounds must share a shape")
        if np.any(self.lo > self.hi):
            raise ValueError("box needs lo <= hi")
        self.dim = self.lo.size

    def contains(self, x, tol=_FEAS_TOL):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def _project(self, y):
        return y.clip(self.lo, self.hi)

    _project_rows = _project

    def center(self):
        return 0.5 * (self.lo + self.hi)

    def sample(self, rng):
        return rng.uniform(self.lo, self.hi)

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def direction_feasible(self, x, z, tol=_FEAS_TOL):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        scale = 1.0 + float(np.max(self.hi - self.lo, initial=0.0))
        at_lo = x <= self.lo + tol * scale
        at_hi = x >= self.hi - tol * scale
        return bool(np.all(z[at_lo] >= -tol * scale) and np.all(z[at_hi] <= tol * scale))

    def max_dist_to(self, point):
        point = as_point(point)
        far = np.maximum(np.abs(self.lo - point), np.abs(self.hi - point))
        return float(np.linalg.norm(far))

    def __repr__(self):
        return f"Box(lo={self.lo!r}, hi={self.hi!r})"


class Ball(FeasibleSet):
    def __init__(self, center, radius: float):
        self._center = as_point(center)
        self.radius = float(radius)
        if not math.isfinite(self.radius) or self.radius <= 0:
            raise ValueError("ball needs a positive finite radius")
        self.dim = self._center.size

    def contains(self, x, tol=_FEAS_TOL):
        d = float(np.linalg.norm(np.asarray(x, dtype=float) - self._center))
        return d <= self.radius * (1.0 + tol) + tol

    def _project(self, y):
        d = y - self._center
        n = _norm(d)
        if n <= self.radius:
            return y.copy()
        return self._center + d * (self.radius / n)

    def _project_rows(self, Y):
        D = Y - self._center
        n = _norm_rows(D)
        out = Y.copy()
        far = ~(n <= self.radius)
        out[far] = self._center + D[far] * (self.radius / n[far])[:, None]
        return out

    def center(self):
        return self._center.copy()

    def sample(self, rng):
        z = rng.standard_normal(self.dim)
        n = float(np.linalg.norm(z))
        if n == 0.0:
            return self._center.copy()
        u = rng.uniform() ** (1.0 / self.dim)
        return self._center + z * (self.radius * u / n)

    def diameter(self):
        return 2.0 * self.radius

    def direction_feasible(self, x, z, tol=_FEAS_TOL):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        d = x - self._center
        n = float(np.linalg.norm(d))
        if n < self.radius * (1.0 - tol):
            return True
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            return True
        # on the boundary the ball is curved: staying inside needs strictly
        # inward motion, tangents leave immediately
        return float(np.dot(d, z)) <= -tol * n * nz

    def max_dist_to(self, point):
        return self.radius + float(np.linalg.norm(self._center - as_point(point)))

    def __repr__(self):
        return f"Ball(center={self._center!r}, radius={self.radius})"


class Simplex(FeasibleSet):
    """{x >= 0 : sum x = scale}."""

    def __init__(self, dim: int, scale: float = 1.0):
        self.dim = int(dim)
        self.scale = float(scale)
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise ValueError("simplex needs a positive finite scale")

    def contains(self, x, tol=_FEAS_TOL):
        x = np.asarray(x, dtype=float)
        s = 1.0 + self.scale
        return bool(np.all(x >= -tol * s) and abs(float(np.sum(x)) - self.scale) <= tol * s)

    def _project(self, y):
        return simplex_project(y, self.scale)

    def center(self):
        return np.full(self.dim, self.scale / self.dim)

    def sample(self, rng):
        e = rng.exponential(size=self.dim)
        return self.scale * e / float(np.sum(e))

    def diameter(self):
        return self.scale * math.sqrt(2.0)

    def direction_feasible(self, x, z, tol=_FEAS_TOL):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        s = 1.0 + self.scale
        if abs(float(np.sum(z))) > tol * s:
            return False
        at_zero = x <= tol * s
        return bool(np.all(z[at_zero] >= -tol * s))

    def max_dist_to(self, point):
        point = as_point(point)
        best = 0.0
        for j in range(self.dim):
            v = -point.copy()
            v[j] += self.scale
            best = max(best, float(np.linalg.norm(v)))
        return best

    def __repr__(self):
        return f"Simplex(dim={self.dim}, scale={self.scale})"


def simplex_project(v: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Euclidean projection onto {x >= 0 : sum x = scale} by sorting.

    Standard water-filling: find the largest k with
    u_k - (sum of top k - scale)/k > 0 and shift the top block.
    """
    v = as_point(v)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - scale
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    if not cond.any():
        # rounding fails k = 1 on an input spanning over 2**53; v less its
        # largest entry has the same projection, and there k = 1 holds
        return simplex_project(v - u[0], scale)
    k = int(np.max(idx[cond]))
    theta = css[k - 1] / k
    return np.maximum(v - theta, 0.0)


def linear_argmin(feasible_set: FeasibleSet, v) -> np.ndarray:
    """Exact minimizer of <v, x> over a compact set (support point of -v).

    Zero v returns the set center.  Ties on the box go to the center
    coordinate and on the simplex to the lowest index, so the result is
    deterministic.
    """
    v = as_point(v)
    if v.size != feasible_set.dim:
        raise DimensionMismatch(
            f"direction has dim {v.size}, set has dim {feasible_set.dim}")
    if not np.any(v):
        return feasible_set.center()
    if isinstance(feasible_set, Ball):
        return feasible_set.center() - feasible_set.radius * v / np.linalg.norm(v)
    if isinstance(feasible_set, Box):
        mid = feasible_set.center()
        return np.where(v > 0, feasible_set.lo, np.where(v < 0, feasible_set.hi, mid))
    if isinstance(feasible_set, Simplex):
        out = np.zeros(feasible_set.dim)
        out[int(np.argmin(v))] = feasible_set.scale
        return out
    raise IllPosedError("linear objective is unbounded on this set")


# -- objectives --------------------------------------------------------------

@dataclass(slots=True)
class Objective:
    """Collected minimization problem for one learner round.

    The quadratic part is stored pre-combined: ``gamma`` (scaled identity),
    ``diag`` and ``full`` slots add up, with centers (None is the origin)
    already folded into the linear term.  A loss divergence folded in as a
    regularizer (implicit and non-linearized updates) goes into the
    ``gamma`` slot when the loss is an isotropic quadratic, and otherwise
    leaves its loss in ``losses``, the smooth loss handles that enter the
    objective directly.  ``full`` is a matrix, or the metric
    ``take_quadratic`` made the whole part, which carries its eigenpairs
    (``full_evals`` ascending, ``full_evecs`` perhaps only the top ones, see
    ``QuadMetric``) for σ, L and M^-1, and whose matrix is formed only if a
    fold or ``_hessian`` reads it (``full_matrix``); a fold that changes
    ``full`` makes it a matrix again.
    """

    feasible_set: FeasibleSet
    lin: np.ndarray
    gamma: float = 0.0
    diag: np.ndarray | None = None
    full: np.ndarray | QuadMetric | None = None
    const: float = 0.0
    l1_alpha: float = 0.0
    losses: list = field(default_factory=list)
    init: np.ndarray | None = None

    # -- assembly ------------------------------------------------------

    @classmethod
    def build(cls, feasible_set: FeasibleSet, linear=None, regularizer=None,
              losses=()) -> "Objective":
        obj = cls(feasible_set=feasible_set, lin=np.zeros(feasible_set.dim)
                  if linear is None else as_point(linear).copy())
        if regularizer is not None:
            obj.add_regularizer(regularizer)
        obj.losses.extend(losses)
        return obj

    def add_linear(self, v):
        self.lin = self.lin + as_point(v)

    def add_quadratic(self, center, metric: QuadMetric, scale: float):
        """Fold scale/2 ||x - center||_M^2 into the combined form."""
        self.fold_quadratic(as_point(center), metric, scale)

    def fold_quadratic(self, center: np.ndarray | None, metric: QuadMetric,
                       scale: float, quadratic: bool = True):
        """``add_quadratic`` for a centre already checked, such as an
        iterate an argmin returned, or None, the origin; without ``quadratic``
        only its linear and constant parts, for ``take_quadratic``'s caller."""
        if scale == 0.0:
            return
        if metric.kind == "scaled":
            self._fold_isotropic(center, scale * metric.gamma, quadratic)
            return
        # an empty slot starts at 0.0: part + 0.0 is 0.0 + part, bit for bit
        if quadratic and metric.kind == "diag":
            w = metric.weights if scale == 1.0 else scale * metric.weights
            self.diag = w + 0.0 if self.diag is None else self.diag + w
        elif quadratic:
            m = metric.matrix if scale == 1.0 else scale * metric.matrix
            self.full = m + 0.0 if self.full is None else self.full_matrix() + m
        if center is not None and np.count_nonzero(center):
            mc = metric.matvec(center)
            self.lin = self.lin - scale * mc
            self.const += 0.5 * scale * float(np.dot(center, mc))

    def fold_row(self, center: np.ndarray, row):
        """``fold_quadratic(center, m, 1.0)`` on the same floats, for the
        metric m whose gamma (a float ``row``) or weights (an array) are
        ``row``: a round folds a scanned row (md's r_{1:t}, a proximal term
        centred at x_t) and builds no ``QuadMetric``."""
        if type(row) is float:
            self._fold_isotropic(center, row)
            return
        self.diag = row + 0.0 if self.diag is None else self.diag + row
        if np.count_nonzero(center):
            mc = row * center
            self.lin = self.lin - mc
            self.const += 0.5 * float(np.dot(center, mc))

    def take_quadratic(self, metric: QuadMetric):
        """Make ``metric``, a full metric that carries its eigenpairs, the
        whole quadratic part.  The caller knows the part already equals it
        up to rounding (an ftrl objective's part is r_{1:t} + q_t); taking
        it keeps its eigenpairs for ``quad_curvature`` and the argmin, and
        ``quad_matvec`` reads its factors, not a d x d matrix."""
        self.gamma, self.diag, self.full = 0.0, None, metric

    @property
    def full_evals(self) -> np.ndarray | None:
        return self.full._evals if type(self.full) is QuadMetric else None

    @property
    def full_evecs(self) -> np.ndarray | None:
        return self.full._evecs if type(self.full) is QuadMetric else None

    def full_matrix(self) -> np.ndarray | None:
        """The full part as a d x d matrix."""
        return self.full.matrix if type(self.full) is QuadMetric else self.full

    def _fold_isotropic(self, center, gamma: float, quadratic: bool = True):
        """Fold gamma/2 ||x - center||^2 (see ``fold_quadratic``)."""
        if center is not None and np.count_nonzero(center):
            # a shifted isotropic quadratic is no longer pure gamma*I in
            # x'Mx form; fold the cross term into lin and keep gamma
            self.lin = self.lin - gamma * center
            self.const += 0.5 * gamma * float(np.dot(center, center))
        if quadratic:
            self.gamma += gamma

    def fold_divergence(self, f, anchor, f_anchor: float, g_anchor):
        """Fold B_f(., a) = f - f(a) - <grad f(a), . - a> at the anchor a,
        for f a loss handle or the (w, c) of (w/2) ||. - c||^2: f less its
        anchor gradient (``fold_loss``), the rest into the constant."""
        self.fold_loss(f, g_anchor)
        self.const += float(np.dot(g_anchor, anchor)) - f_anchor

    def fold_loss(self, f, g_anchor):
        """Fold f - <g_anchor, .> for f a loss handle, or the (w, c) of
        (w/2) ||. - c||^2, folded in closed form."""
        if type(f) is tuple:
            self._fold_isotropic(f[1], f[0])
        else:
            self.losses.append(f)
        self.lin = self.lin - g_anchor

    def add_regularizer(self, reg: Regularizer, scale: float = 1.0):
        if reg.is_zero():
            return
        if isinstance(reg, Sum):
            for part in reg.parts:
                self.add_regularizer(part, scale)
            return
        if isinstance(reg, Quadratic):
            self.fold_quadratic(reg.center, reg.metric, scale * reg.scale)
            return
        if isinstance(reg, Linear):
            self.lin = self.lin + scale * reg.v
            self.const += scale * reg.w
            return
        if isinstance(reg, L1):
            if scale < 0:
                raise ValueError("cannot subtract an l1 term from an objective")
            self.l1_alpha += scale * reg.alpha
            return
        if isinstance(reg, Indicatrix):
            if reg.set is not self.feasible_set:
                raise ValueError("indicatrix set differs from the objective's set")
            return
        if isinstance(reg, BregmanAround):
            if scale != 1.0:
                raise ValueError("a loss divergence enters an objective unscaled")
            # a linear f's divergence is 0
            f = reg.loss
            if type(f) is not LinearLoss:
                self.fold_divergence(f.isotropic if is_isotropic_quadratic(f) else f,
                                     reg.anchor, reg.f_anchor, reg.g_anchor)
            return
        raise TypeError(f"cannot collect {type(reg).__name__} into an objective")

    def add_bregman_anchor(self, reg: Regularizer, point):
        """Fold B_reg(x, point) for a quadratic-family reg (centers drop out)."""
        point = as_point(point)
        if reg.is_zero():
            return
        if isinstance(reg, Sum):
            for part in reg.parts:
                self.add_bregman_anchor(part, point)
            return
        if isinstance(reg, Quadratic):
            self.fold_quadratic(point, reg.metric, reg.scale)
            return
        if isinstance(reg, Linear):
            return
        raise TypeError(
            f"Bregman anchor supports quadratic-family handles, not {type(reg).__name__}")

    # -- calculus -------------------------------------------------------

    def quad_matvec(self, x: np.ndarray) -> np.ndarray:
        full = self.full
        out = self.gamma * x
        if self.diag is not None:
            out = out + self.diag * x
        if full is not None:
            out = out + (full.matvec(x) if type(full) is QuadMetric else full @ x)
        return out

    def smooth_value(self, x: np.ndarray) -> float:
        v = self.const + float(np.dot(self.lin, x)) + 0.5 * float(np.dot(x, self.quad_matvec(x)))
        for loss in self.losses:
            v += loss.value(x)
        return v

    def smooth_grad(self, x: np.ndarray) -> np.ndarray:
        g = self.lin + self.quad_matvec(x)
        for loss in self.losses:
            g = g + loss.grad(x)
        return g

    def quad_curvature(self) -> tuple:
        """(min, max) eigenvalue of the quadratic part (bounds on them when
        it has diagonal and full parts); the full part's are ``full_evals``
        when it carries them, else one eigvalsh."""
        lo = hi = self.gamma
        if self.diag is not None:
            lo += float(self.diag.min())
            hi += float(self.diag.max())
        if self.full is not None:
            evals = self.full_evals if self.full_evals is not None \
                else np.linalg.eigvalsh(0.5 * (self.full + self.full.T))
            lo += float(evals[0])
            hi += float(evals[-1])
        return lo, hi

    def curvature(self) -> tuple:
        """(strong convexity, smoothness) of the smooth part; the smoothness
        is +inf when a loss declares none."""
        sigma, big = self.quad_curvature()
        for loss in self.losses:
            sigma += max(getattr(loss, "strong_convexity", 0.0) or 0.0, 0.0)
            l = getattr(loss, "smoothness", None)
            big = INF if l is None or not math.isfinite(l) else big + l
        return sigma, big

    def is_isotropic(self) -> bool:
        return self.diag is None and self.full is None


# -- solvers -----------------------------------------------------------------

def _certify(obj: Objective, x: np.ndarray, smooth: float, w=None,
             defer: list | None = None) -> np.ndarray:
    """x, if its projected-gradient fixed-point residual at step 1/L, for
    the objective's smoothness L, is within 1e-8 (1 + ||lin|| + L); the
    residual also rejects non-finite values.  Otherwise, or when L is not
    finite and the step would be 0, raise.  Given a separable part's
    weights ``w``, the gradient is lin + w x.  Given them and a list
    ``defer``, only L is checked here: w joins the list and the residual is
    left to ``_certify_rows``."""
    if not smooth < INF:
        raise IllPosedError(
            f"ill-posed argmin: quadratic part has max curvature {smooth}")
    if defer is not None and w is not None:
        defer.append(w)
        return x
    step = 1.0 / max(smooth, 1.0)
    ahead = x - step * (obj.smooth_grad(x) if w is None else obj.lin + w * x)
    if obj.l1_alpha:
        ahead = _soft_threshold(ahead, step * obj.l1_alpha)
    resid = _norm(x - obj.feasible_set._project(ahead)) / step
    if not resid <= 1e-8 * (1.0 + _norm(obj.lin) + smooth):
        raise IllPosedError(f"argmin residual {resid:.3e} exceeds tolerance")
    return x


def _certify_rows(fs: FeasibleSet, X: np.ndarray, LIN: np.ndarray,
                  W: np.ndarray, L1) -> None:
    """``_certify``'s test of n separable rows at once: row j is the point
    X[j] of the objective on ``fs`` with linear part LIN[j], weights W[j]
    (a row, or a float for an isotropic part), smoothness max W[j] and l1
    weight L1[j] (a float L1 is every row's).  Each step is ``_certify``'s
    as an array operation, and each norm ``_norm``'s (``_norm_rows``), so a
    row passes exactly where ``_certify`` passes it; raise its
    ``IllPosedError`` for the first row that fails.  It runs under the
    caller's errstate: ``Driver._chunk`` records its floating-point errors
    and, if there are any, plays its rows again one at a time."""
    L = W.max(axis=1) if W.ndim == 2 else W
    step = 1.0 / np.maximum(L, 1.0)
    ahead = X - step[:, None] * (LIN + (W if W.ndim == 2 else W[:, None]) * X)
    if np.any(L1):
        # a row of l1 weight 0 comes through as it is, but for a zero's sign
        ahead = _soft_threshold(ahead, (step * L1)[:, None])
    resid = _norm_rows(X - fs._project_rows(ahead)) / step
    bad = ~(resid <= 1e-8 * (1.0 + _norm_rows(LIN) + L))
    if bad.any():
        raise IllPosedError(
            f"argmin residual {float(resid[bad.argmax()]):.3e} exceeds tolerance")


def _quadratic_has_route(obj: Objective) -> bool:
    """True when ``argmin_quadratic`` has an exact method for the set and
    the shape of the quadratic part: any quadratic over a box is a
    bound-constrained QP with an exact finite method (clipping when it is
    separable), and over a ball a diagonal one has one multiplier, the root
    of a secular equation."""
    fs = obj.feasible_set
    return (isinstance(fs, (Unconstrained, Box)) or obj.is_isotropic()
            or (isinstance(fs, Ball) and obj.full is None))


def _l1_has_route(obj: Objective) -> bool:
    """True when ``argmin_l1_composite`` covers the set and the shape of
    the quadratic part: a separable objective on a separable set."""
    return obj.full is None and isinstance(obj.feasible_set, (Unconstrained, Box))


def argmin_quadratic(obj: Objective, _defer: list | None = None) -> np.ndarray:
    """Exact minimizer of a strictly convex linear-plus-quadratic objective.

    Without a set it solves the linear system.  On a set:

    * isotropic quadratic, any set: project the unconstrained minimizer,
    * diagonal quadratic on a box: clip it (the problem is separable),
    * full quadratic on a box: a range-space active-set method on the
      metric's inverse (``_full_box_argmin``), warm-started from ``obj.init``;
      its first 8 passes move every wrong bound at once, later ones one,
    * diagonal quadratic on a ball: take the ball's multiplier from its
      secular equation (``_diag_ball_argmin``).

    A separable part is formed once, w = diag + gamma, for all of these
    (min(w) is gamma + min(diag) exactly: rounding is monotone).  Any other
    objective raises ``ValueError``.  Its parts were checked when they were
    folded; only the result is checked here, by ``_certify`` (which a
    separable part's ``_defer`` list defers, see the module docstring).
    """
    if obj.losses or obj.l1_alpha:
        raise ValueError("argmin_quadratic expects a pure linear-quadratic objective")
    if not _quadratic_has_route(obj):
        raise ValueError(f"argmin_quadratic has no exact route for a "
                         f"{'full' if obj.full is not None else 'diagonal'} "
                         f"metric on {type(obj.feasible_set).__name__}")
    fs, diag = obj.feasible_set, obj.diag
    if obj.full is not None:
        w, (sigma, smooth) = None, obj.quad_curvature()
    else:
        w = obj.gamma if diag is None else diag + obj.gamma
        sigma, smooth = (w, w) if diag is None else (float(w.min()), float(w.max()))
    if sigma <= 0.0:
        raise IllPosedError(
            f"ill-posed argmin: quadratic part has min curvature {sigma}")
    if w is None:
        x = (_full_box_argmin(obj, 1.0 + _norm(obj.lin) + smooth)
             if isinstance(fs, Box) else np.linalg.solve(_hessian(obj), -obj.lin))
    elif diag is not None and isinstance(fs, Ball):
        x = _diag_ball_argmin(obj.lin, w, fs._center, fs.radius)
    else:
        x = -obj.lin / w
    if not isinstance(fs, Unconstrained):
        x = fs._project(x)
    return _certify(obj, x, smooth, w, _defer)


def _hessian(obj: Objective) -> np.ndarray:
    """The dense matrix of the quadratic part: sym(full) + gamma I + diag."""
    full = obj.full_matrix()
    m = 0.5 * (full + full.T) + obj.gamma * np.eye(obj.lin.size)
    return m if obj.diag is None else m + np.diag(obj.diag)


def _inverse(obj: Objective) -> np.ndarray:
    """H = M^-1 for the quadratic part M: from the eigenpairs the objective
    carries, shifted by gamma (``QuadMetric.inverse_parts``, one d x k
    product), or else by inverting ``_hessian``."""
    if obj.full_evecs is None or obj.diag is not None:
        return np.linalg.inv(_hessian(obj))
    v, c, f = QuadMetric.inverse_parts(obj.full_evals, obj.full_evecs, obj.gamma)
    h = (v * c) @ v.T
    h.flat[::v.shape[0] + 1] += f
    return h


# passes of _full_box_argmin that move every wrong bound at once before the
# one-bound-a-time rule takes over, chosen from measured pass counts
# (CHANGES.md)
_WHOLESALE_PASSES = 8


def _full_box_argmin(obj: Objective, scale: float) -> np.ndarray:
    """argmin <lin, x> + 1/2 x'Mx over lo <= x <= hi for a positive-definite M.

    An active-set method on the bounds in its range-space form (Nocedal &
    Wright §16.2): H = M^-1 is formed once (``_inverse``) and u = H lin.
    The working set W holds the coordinates fixed at a bound; it starts
    where ``obj.init`` (the previous iterate; without one, the clipped
    unconstrained minimizer -u) sits at one.  Every pass solves the same
    system: with x_W at its bounds, the minimizer on W is the target
    H_{:,W} mu - u (x_W on W) for H_WW mu = x_W + u_W, a |W| x |W| system
    (H_WW is minus the Schur complement of M in the KKT matrix); the
    gradient there is mu on W and 0 off it.  A multiplier is wrong when it
    is below -1e-12 scale at lo or above 1e-12 scale at hi; lo == hi puts a
    coordinate at both, where its sign is free, so it never leaves W.  A
    target within its bounds with no wrong multiplier is the minimizer.  A
    pass that fails moves W by one of two rules:

    * the first ``_WHOLESALE_PASSES`` (8) passes take a primal-dual
      active-set step (Hintermueller, Ito & Kunisch 2002): every free
      coordinate out of bounds joins W at the bound it crosses, and every
      wrong multiplier leaves W, all at once;
    * later passes take primal active-set steps (Alg. 16.3) from the last
      clipped target: the iterate moves towards the target until bounds
      block it, and they join W; at a target within its bounds, the most
      wrong multiplier alone leaves W.  The objective falls strictly
      between reduced minimizers, so no working set repeats.

    From the previous iterate the primal-dual step mostly settles in one or
    two passes, but it can cycle; the primal rule finishes what 8 passes
    leave.  Either rule returns the same formula on the same sorted W.  The
    loop bound is a guard against rounding cycles and raises.
    """
    lo, hi = obj.feasible_set.lo, obj.feasible_set.hi
    h = _inverse(obj)
    u = h @ obj.lin
    x = (obj.init if obj.init is not None else -u).clip(lo, hi)
    at_lo, at_hi = x == lo, x == hi
    tol = 1e-12 * scale
    guard = 20 * x.size + 20
    for step in range(guard):
        fixed = (at_lo | at_hi).nonzero()[0]
        if fixed.size == x.size:                # nothing is free
            target, mu = x, obj.smooth_grad(x)
        elif fixed.size:
            cols, x_w = h.take(fixed, 1), x[fixed]
            mu = np.linalg.solve(cols.take(fixed, 0), x_w + u[fixed])
            target = cols @ mu - u
            target[fixed] = x_w
        else:                                   # nothing is fixed
            target, mu = -u, np.zeros(0)
        below, above = target < lo, target > hi
        # how wrong each multiplier is: -mu at lo, mu at hi, 0 at both
        wrong = (at_hi * 1.0 - at_lo)[fixed] * mu
        if step < _WHOLESALE_PASSES:
            drop = fixed[wrong > tol]
            if not (drop.size or below.any() or above.any()):
                return target
            at_lo |= below
            at_hi |= above
            at_lo[drop] = at_hi[drop] = False
            x = target.clip(lo, hi)
            continue
        out = np.flatnonzero(below | above)
        if out.size:
            # the bounds the segment to the target crosses first stop it
            bound = np.where(below[out], lo[out], hi[out])
            frac = (bound - x[out]) / (target[out] - x[out])
            alpha = float(frac.min())
            x = (x + alpha * (target - x)).clip(lo, hi)
            hit = out[frac == alpha]
            x[hit] = bound[frac == alpha]
            at_lo[hit], at_hi[hit] = below[hit], above[hit]
            continue
        if not wrong.max(initial=0.0) > tol:
            return target
        x = target
        j = fixed[int(np.argmax(wrong))]
        at_lo[j] = at_hi[j] = False
    raise NumericArgminError(f"active-set argmin did not settle after {guard} steps")


def _diag_ball_argmin(lin: np.ndarray, w: np.ndarray, z: np.ndarray,
                      radius: float) -> np.ndarray:
    """argmin <lin, x> + 1/2 sum_j w_j x_j^2 over ||x - z|| <= radius, w > 0.

    The minimizer is x(lam) = (lam z - lin) / (w + lam) for the ball's
    multiplier lam >= 0, and x(lam) - z = -b / (w + lam) with b = lin + w z,
    whose norm falls as lam grows.  lam = 0 when x(0) is inside the ball;
    otherwise lam is the root of the secular equation
    phi(lam) = 1/||b / (w + lam)|| - 1/radius.  phi is concave and
    increasing (Moré & Sorensen 1983), so Newton's method from lam = 0
    rises monotonically to the root; it stops when a step makes no progress
    (in tests that takes at most a dozen steps; the loop bound is a guard).
    """
    b = lin + w * z
    lam = 0.0
    u = b / w
    n = _norm(u)
    for _ in range(100):
        if not n > radius:
            break
        # phi'(lam) = sum_j b_j^2 / (w_j + lam)^3 / n^3
        s3 = float((u * u).dot(1.0 / (w + lam)))
        nxt = lam + (n - radius) * n * n / (radius * s3)
        if not nxt > lam:
            break
        lam = nxt
        u = b / (w + lam)
        n = _norm(u)
    return z - u


def _norm(v: np.ndarray) -> float:
    """Euclidean norm, computed as np.linalg.norm computes it for a vector
    but without its dispatch overhead; only where v.v overflows, from v
    scaled by its largest |entry| (inf or NaN once v holds one)."""
    ss = v.dot(v)
    if ss < INF:
        return math.sqrt(ss)
    big = float(np.abs(v).max())
    return big * math.sqrt((v / big).dot(v / big)) if big < INF else big


def _norm_rows(V: np.ndarray) -> np.ndarray:
    """Row j: ``_norm(V[j])``, bit for bit: ``rowdot`` is a vector dot's,
    and a row whose v.v is not finite takes ``_norm`` itself."""
    ss = rowdot(V, V)
    n = np.sqrt(ss)
    for j in np.flatnonzero(~(ss < INF)):
        n[j] = _norm(V[j])
    return n


def _soft_threshold(v: np.ndarray, thresh) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def argmin_l1_composite(obj: Objective, _defer: list | None = None) -> np.ndarray:
    """Coordinate-wise minimizer of <lin, x> + 1/2 x'Wx + alpha ||x||_1 for
    the objective's diagonal (or scaled-identity) quadratic W.

    Soft-threshold then clip; exact because the objective is separable and
    each 1-d piece is convex.  Objectives with loss handles or a full
    metric, and sets other than a box or the free set, raise
    ``ValueError``; a diagonal entry that is not positive and finite raises
    ``IllPosedError``.  The result is certified by ``_certify``, or left
    to ``_certify_rows`` as ``argmin_quadratic`` leaves it.
    """
    if obj.losses or obj.l1_alpha < 0 or not _l1_has_route(obj):
        raise ValueError("argmin_l1_composite expects a diagonal quadratic "
                         "and a non-negative l1 term on a box or the free set")
    w = np.full(obj.lin.size, obj.gamma) if obj.diag is None else obj.diag + obj.gamma
    positive = (w > 0.0) & (w < INF)
    if not positive.all():
        j = int(np.argmin(positive))
        raise IllPosedError(f"ill-posed argmin: curvature {w[j]} at coordinate {j}")
    x = obj.feasible_set._project(_soft_threshold(-obj.lin, obj.l1_alpha) / w)
    return _certify(obj, x, float(w.max()), w, _defer)


# the iteration budget of argmin_numeric; reaching it raises
NUMERIC_MAX_ITER = 10000


def argmin_numeric(obj: Objective, tol: float = 1e-10) -> np.ndarray:
    """Proximal gradient with backtracking and a strong-convexity certificate.

    The reference route, and the one ``minimize`` takes where no exact
    route applies.  Initialization is deterministic (``obj.init``, else the
    set center, projected).  On exit the returned point x satisfies
    ||x - x*|| <= tol, certified through the sub-gradient bound
    sigma ||x - x*|| <= ||u|| with u constructed from the accepted proximal
    step.  Reaching ``NUMERIC_MAX_ITER`` iterations raises; there is no
    silent best-effort return.
    """
    sigma, l = obj.curvature()
    if sigma <= 0.0:
        raise IllPosedError(
            f"numeric argmin needs strong convexity, found modulus {sigma}")
    if not math.isfinite(l):
        raise ValueError("numeric argmin needs a finite smoothness bound")
    if obj.l1_alpha and not isinstance(obj.feasible_set, (Unconstrained, Box)):
        raise ValueError("l1 prox is only separable over unconstrained and box sets")

    start = obj.init if obj.init is not None else obj.feasible_set.center()
    x = obj.feasible_set.project(start)
    step = 1.0 / max(l, sigma)
    gx = obj.smooth_grad(x)
    sx = obj.smooth_value(x)
    for _ in range(NUMERIC_MAX_ITER):
        while True:
            ahead = x - step * gx
            if obj.l1_alpha:
                ahead = _soft_threshold(ahead, step * obj.l1_alpha)
            x_new = obj.feasible_set._project(ahead)
            diff = x_new - x
            dn2 = float(np.dot(diff, diff))
            if dn2 == 0.0:
                break
            # at step <= 1/L the descent condition holds exactly; testing it
            # in floats near the optimum would shrink the step without bound
            if step * l <= 1.0:
                break
            if obj.smooth_value(x_new) <= sx + float(np.dot(gx, diff)) + dn2 / (2.0 * step):
                break
            step = max(step * 0.5, 1.0 / l)
        g_new = obj.smooth_grad(x_new)
        # u = grad s(x+) - grad s(x) + (x - x+)/step lies in the sub-differential
        # of the full objective at x+, so sigma ||x+ - x*|| <= ||u||
        u = g_new - gx + (x - x_new) / step
        un = _norm(u)
        if un <= sigma * tol:
            return x_new
        if not math.isfinite(un):
            raise ValueError("numeric argmin reached non-finite values")
        x, gx = x_new, g_new
        sx = obj.smooth_value(x)
        step = min(step * 1.25, 1.0 / sigma)
    raise NumericArgminError(
        f"no certificate after {NUMERIC_MAX_ITER} iterations (tol {tol})")


def minimize(obj: Objective, tol: float = 1e-10, _defer: list | None = None) -> np.ndarray:
    """The one router: send an objective to the exact route that covers it,
    else to ``argmin_numeric``.

    * ``argmin_l1_composite``: an l1 term with a diagonal or isotropic
      quadratic on a box or the free set;
    * ``argmin_quadratic``: no l1 term and no loss handles, on a box or the
      free set, or an isotropic quadratic on any set, or a diagonal one on a
      ball;
    * ``argmin_numeric``: the rest, that is objectives that keep loss
      handles (every loss but an isotropic quadratic, see ``Objective``),
      an l1 term with a full metric or on a ball or simplex, a full metric
      on a ball, and a full or diagonal one on a simplex.

    ``_defer``, which only ``learners.Driver._chunk`` passes, is a list for
    the separable exact routes' weights: given one, they leave their
    residual to ``_certify_rows``.
    """
    if obj.losses:
        return argmin_numeric(obj, tol=tol)
    if obj.l1_alpha:
        if _l1_has_route(obj):
            return argmin_l1_composite(obj, _defer)
    elif _quadratic_has_route(obj):
        return argmin_quadratic(obj, _defer)
    return argmin_numeric(obj, tol=tol)
