"""Loss handles, loss sequences, and probe-based curvature certificates.

A loss carries closed-form value / local sub-gradient / directional
derivative callables plus whatever curvature metadata is known about it
(smoothness and strong convexity w.r.t. the Euclidean norm, a star
center).  Sequences generate one loss per round and, for stochastic ones,
a noisy gradient whose deviation from the conditional mean is recorded so
bound calculators can use it.

The seeded ``random_stream`` draws its vectors many rounds at a time with
a numpy port of SeedSequence and PCG64; round t equals
``scale * np.random.default_rng((seed, t)).uniform(-1, 1, d)`` bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from . import core
from .core import INF, as_point, dot


class Loss:
    """Function handle with curvature metadata.

    ``grad`` returns a local sub-gradient: a vector g with <g, z> bounded by
    the directional derivative f'(x; z) for every z.  Where f is
    differentiable that is the gradient.  ``vector`` is the v of a linear
    loss <v, x>, which ``LossColumn`` evaluates as a matrix row, and
    ``isotropic`` the (w, c) of a quadratic (w/2) ||x - c||_2^2, which the
    accounting and the argmin fold in closed form.  Only ``LinearLoss`` and
    ``QuadraticLoss`` set them: a loss is what its handles compute, whatever
    its name.
    """

    vector = isotropic = None

    def __init__(self, name, value, grad, dir_deriv=None, smoothness=None,
                 strong_convexity=0.0, star_center=None):
        self.name = name
        self._value = value
        self._grad = grad
        self._dir = dir_deriv
        self.smoothness = smoothness
        self.strong_convexity = float(strong_convexity)
        self.star_center = None if star_center is None else as_point(star_center)

    def value(self, x) -> float:
        return float(self._value(np.asarray(x, dtype=float)))

    def grad(self, x) -> np.ndarray:
        return np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)

    def dir_deriv(self, x, z) -> float:
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        if self._dir is not None:
            return float(self._dir(x, z))
        return dot(self.grad(x), z)

    def bregman(self, y, x) -> float:
        return core.bregman(self, y, x)

    def __repr__(self):
        return f"Loss({self.name!r})"


# -- library losses ----------------------------------------------------------

def linear_loss(v) -> Loss:
    """<v, x>; v is checked to be a finite 1-d vector."""
    return LinearLoss(as_point(v))


class LinearLoss(Loss):
    """<v, x> for a checked v = ``vector``; its value is ``core.dot``'s ddot."""

    name, star_center, _dir = "linear", None, None
    smoothness = strong_convexity = 0.0

    def __init__(self, v: np.ndarray):
        self.vector = v

    def value(self, x) -> float:
        return float(self.vector.dot(x))

    def grad(self, x) -> np.ndarray:
        return self.vector.copy()


def quadratic_loss(center, weight: float = 1.0) -> Loss:
    """(weight/2) ||x - center||_2^2: weight-smooth and weight-strongly convex."""
    return QuadraticLoss(as_point(center), weight)


class QuadraticLoss(Loss):
    """``quadratic_loss`` for a checked centre, such as a row of a stream's
    centre column, which the loss views and which is also its star centre;
    the weight is checked here."""

    name, _dir = "quadratic", None

    def __init__(self, center: np.ndarray, weight: float):
        weight = float(weight)
        if weight <= 0:
            raise ValueError("quadratic loss needs a positive weight")
        self.isotropic, self.star_center = (weight, center), center
        self.smoothness = self.strong_convexity = weight

    def value(self, x) -> float:
        weight, center = self.isotropic
        x = np.asarray(x, dtype=float)
        return 0.5 * weight * float(np.dot(x - center, x - center))

    def grad(self, x) -> np.ndarray:
        weight, center = self.isotropic
        return weight * (np.asarray(x, dtype=float) - center)


def is_isotropic_quadratic(loss: Loss) -> bool:
    """True for a loss built by ``quadratic_loss``, whose ``isotropic`` mark
    holds its weight w and centre c: (w/2) ||x - c||_2^2."""
    return getattr(loss, "isotropic", None) is not None


def l1_loss(alpha: float = 1.0, dim: int = 1) -> Loss:
    alpha = float(alpha)

    def dd(x, z):
        at_zero = x == 0.0
        return alpha * (float(np.sum(np.sign(x[~at_zero]) * z[~at_zero]))
                        + float(np.sum(np.abs(z[at_zero]))))

    return Loss(
        "l1",
        value=lambda x: alpha * float(np.sum(np.abs(x))),
        grad=lambda x: alpha * np.sign(x),
        dir_deriv=dd,
        smoothness=None,
        star_center=np.zeros(dim),
    )


def two_slope_abs(dim: int = 1) -> Loss:
    """Coordinate-wise |u| inside the unit interval and 2|u| outside.

    Discontinuous at |u| = 1, star-convex around the origin, not convex.
    """

    def phi(u):
        a = np.abs(u)
        return np.where(a <= 1.0, a, 2.0 * a)

    def grad(x):
        a = np.abs(x)
        return np.sign(x) * np.where(a <= 1.0, 1.0, 2.0)

    def dd(x, z):
        total = 0.0
        for u, w in zip(x, z):
            a = abs(u)
            if a == 0.0:
                total += abs(w)
            elif a < 1.0:
                total += math.copysign(1.0, u) * w
            elif a == 1.0:
                outward = math.copysign(1.0, u) * w
                if outward > 0.0:
                    return INF  # the jump to the steeper branch
                total += outward
            else:
                total += 2.0 * math.copysign(1.0, u) * w
        return total

    return Loss(
        "two-slope-abs",
        value=lambda x: float(np.sum(phi(x))),
        grad=grad,
        dir_deriv=dd,
        star_center=np.zeros(dim),
    )


def sqrt_abs(dim: int = 1) -> Loss:
    """sum_j sqrt(|x_j|): star-shaped around 0 with modulus 1/2, not star-convex."""

    def grad(x):
        g = np.zeros_like(x)
        nz = x != 0.0
        g[nz] = np.sign(x[nz]) * 0.5 / np.sqrt(np.abs(x[nz]))
        return g

    def dd(x, z):
        total = 0.0
        for u, w in zip(x, z):
            if u == 0.0:
                if w != 0.0:
                    return INF  # square-root cusp
            else:
                total += math.copysign(1.0, u) * w * 0.5 / math.sqrt(abs(u))
        return total

    return Loss(
        "sqrt-abs",
        value=lambda x: float(np.sum(np.sqrt(np.abs(x)))),
        grad=grad,
        dir_deriv=dd,
        star_center=np.zeros(dim),
    )


def power_product(powers) -> Loss:
    """prod_j |x_j|^{p_j}; star-convex around 0 when the exponents sum to >= 1."""
    p = as_point(powers)
    if np.any(p <= 0):
        raise ValueError("power product needs positive exponents")

    def value(x):
        return float(np.prod(np.abs(x) ** p))

    def grad(x):
        if np.any(x == 0.0):
            return np.zeros_like(x)
        f = value(x)
        return f * p / x

    def dd(x, z):
        zero = x == 0.0
        if not np.any(zero):
            return dot(grad(x), z)
        if np.any(z[zero] == 0.0):
            return 0.0  # the product stays pinned at zero along this ray
        pz = float(np.sum(p[zero]))
        if pz > 1.0:
            return 0.0
        rest = float(np.prod(np.abs(x[~zero]) ** p[~zero])) * \
            float(np.prod(np.abs(z[zero]) ** p[zero]))
        if pz == 1.0:
            return rest
        return INF

    return Loss(
        "power-product",
        value=value,
        grad=grad,
        dir_deriv=dd,
        star_center=np.zeros(p.size),
    )


class BregmanAround:
    """The divergence of a loss from a fixed anchor, as a round-regularizer
    handle: psi(x) = f(x) - f(a) - <grad f(a), x - a>.

    Non-negative for convex f, zero at the anchor, and with the same
    divergence as f itself (the affine part drops out).  Implicit and
    non-linearized updates are plain composite rounds with this handle as
    the folded term, which is what makes their bounds come out of the same
    calculators.
    """

    def __init__(self, loss: Loss, anchor):
        self.loss = loss
        self.anchor = as_point(anchor)
        self.f_anchor = loss.value(self.anchor)
        self.g_anchor = loss.grad(self.anchor)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return self.loss.value(x) - self.f_anchor - dot(self.g_anchor, x - self.anchor)

    def grad(self, x) -> np.ndarray:
        return self.loss.grad(x) - self.g_anchor

    def dir_deriv(self, x, z) -> float:
        base = self.loss.dir_deriv(x, z)
        if not math.isfinite(base):
            return base
        return base - dot(self.g_anchor, np.asarray(z, dtype=float))

    def bregman(self, y, x) -> float:
        return core.bregman(self, y, x)

    def is_zero(self) -> bool:
        return False

    def __repr__(self):
        return f"BregmanAround({self.loss!r}, anchor={self.anchor!r})"


class LossColumn:
    """A run's losses, evaluated a column of rounds at a time.

    Linear losses <v_t, x> are held as the rows v_t, isotropic quadratics
    (w_t/2) ||x - c_t||^2 as centers and weights.  Each column repeats the
    handle's own floating-point steps, dot products through ``core.rowdot``,
    so it equals the per-round handle values bit for bit.  Any other loss
    stays a handle and is evaluated row by row: the accounting's only
    per-row path.  Points are (n, d) arrays, one row per loss, or one
    shared (d,) point.
    """

    def __init__(self, n: int, groups: list):
        self.n = n
        # (rows, kind, data): rows index the column, slice(None) for all of it
        self.groups = groups

    @classmethod
    def of(cls, losses) -> "LossColumn":
        losses = list(losses)
        kinds = ["linear" if isinstance(f, Loss) and f.vector is not None
                 else "quadratic" if isinstance(f, Loss) and is_isotropic_quadratic(f)
                 else "handle" for f in losses]
        groups = []
        for kind in ("linear", "quadratic", "handle"):
            rows = [i for i, k in enumerate(kinds) if k == kind]
            fs = [losses[i] for i in rows]
            if not fs:
                continue
            if kind == "linear":
                data = np.array([f.vector for f in fs])
            elif kind == "quadratic":
                data = (np.array([f.isotropic[1] for f in fs]),
                        np.array([f.isotropic[0] for f in fs], dtype=float))
            else:
                data = fs
            groups.append((slice(None) if len(fs) == len(losses)
                           else np.array(rows), kind, data))
        return cls(len(losses), groups)

    def value(self, x) -> np.ndarray:
        """f_t(x_t) for every row."""
        out = np.empty(self.n)
        for rows, kind, data in self.groups:
            xr = x[rows] if x.ndim == 2 else x
            if kind == "linear":
                out[rows] = core.rowdot(data, xr)
            elif kind == "quadratic":
                c, w = data
                diff = xr - c
                out[rows] = 0.5 * w * core.rowdot(diff, diff)
            else:
                out[rows] = [f.value(xi) for f, xi in zip(data, _row_iter(xr))]
        return out

    def dir_deriv(self, x, z) -> np.ndarray:
        """f_t'(x_t; z_t) for every row."""
        out = np.empty(self.n)
        for rows, kind, data in self.groups:
            xr = x[rows] if x.ndim == 2 else x
            zr = z[rows] if z.ndim == 2 else z
            if kind == "linear":
                out[rows] = core.rowdot(data, zr)
            elif kind == "quadratic":
                c, w = data
                # the handle's dot(grad f(x), z), grad f(x) = w (x - c)
                out[rows] = core.rowdot(w[:, None] * (xr - c), zr)
            else:
                out[rows] = [f.dir_deriv(xi, zi) for f, xi, zi in
                             zip(data, _row_iter(xr), _row_iter(zr))]
        return out


def _row_iter(a):
    """The rows of an (n, d) array, or one (d,) point repeated."""
    return a if a.ndim == 2 else itertools.repeat(a)


# -- sequences ---------------------------------------------------------------

class LossSequence:
    """One loss per round, with an optional stochastic gradient oracle."""

    dim: int
    stochastic: bool = False

    def loss(self, t: int) -> Loss:
        raise NotImplementedError

    def gradient(self, t: int, x, rng):
        """Return (g_t, sigma_t): the fed-back gradient and its deviation
        from the conditional mean (zero vector for exact feedback)."""
        g = self.loss(t).grad(x)
        return g, np.zeros_like(g)

    def column(self, ts) -> LossColumn:
        """The losses of rounds ``ts`` as one ``LossColumn``."""
        return LossColumn.of(self.loss(t) for t in ts)

    def g_column(self, T: int):
        """g_1..g_T under exact feedback as one read-only (T, dim) array,
        for a stream whose rows are known before play and need no check;
        None for any other, which play reads round by round."""
        return None

    def quadratic_column(self, T: int):
        """(centres (T, dim), weights (T,)) of rounds 1..T, checked once,
        for a stream of isotropic quadratics (w_t/2) ||x - c_t||^2; None for
        any other, or where a check fails, which play reads round by round."""
        return None

    def per_round_variation(self, T: int, feasible_set):
        """Exact per-round sup ||grad f_t - grad f_{t-1}||^2 terms, or None."""
        return None


class FixedLoss(LossSequence):
    def __init__(self, loss: Loss, dim: int):
        self._loss = loss
        self.dim = dim

    def loss(self, t):
        return self._loss

    def per_round_variation(self, T, feasible_set):
        # f_0 := 0, so the t = 1 term is sup ||grad f||^2; afterwards zero
        first = _sup_grad_norm_sq(self._loss, feasible_set)
        if first is None:
            return None
        return [first] + [0.0] * (T - 1)


class LinearStream(LossSequence):
    """Deterministic linear losses f_t = <g_t, x> from a per-round vector rule.

    ``loss`` checks a user's ``vector_fn`` result every round, and play
    reads such a stream round by round.  The rows of ``random_stream``'s
    kernel are finite once its scale is, which ``random_stream`` checks; it
    marks its stream ``_checked``, whose columns are drawn in chunks and
    whose rounds 1..T play reads as one (``g_column``)."""

    _checked = False

    def __init__(self, vector_fn, dim: int, kind: str = "linear-stream"):
        self.vector_fn = vector_fn
        self.dim = dim
        self.kind = kind

    def vector(self, t: int) -> np.ndarray:
        return self.vector_fn(t)

    def loss(self, t):
        v = self.vector_fn(t)
        return LinearLoss(v if self._checked else as_point(v))

    def column(self, ts):
        vs = self.vector_fn.rows(ts) if self._checked else np.array(
            [self.vector(t) for t in ts], dtype=float)
        return LossColumn(len(vs), [(slice(None), "linear", vs)])

    def g_column(self, T):
        return self.vector_fn.head(T) if self._checked else None

    def per_round_variation(self, T, feasible_set):
        # row t: g_t - g_{t-1}, with g_0 = 0, from the column's one group
        vs = self.column(range(1, T + 1)).groups[0][2]
        d = np.diff(vs, axis=0, prepend=0.0)
        return core.rowdot(d, d).tolist()


def alternating_stream(base, dim=None) -> LinearStream:
    base = as_point(base)
    return LinearStream(lambda t: base if t % 2 == 1 else -base, base.size,
                        "alternating")


def random_stream(dim: int, seed: int, scale: float = 1.0) -> LinearStream:
    """Seeded oblivious stream: g_t uniform in [-scale, scale]^d, regenerable.

    g_t equals ``scale * np.random.default_rng((seed, t)).uniform(-1, 1, dim)``
    bit for bit, for t in [1, 2**32).  The vectors are drawn many rounds at
    a time, play's 1..T once as its g column (see ``_UniformBlocks``).  A
    negative seed or a non-finite scale raises ValueError here, a round
    outside that range when it is asked for.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"stream seed must be a non-negative integer, got {seed}")
    if not math.isfinite(scale):
        raise ValueError(f"stream scale must be finite, got {scale}")
    stream = LinearStream(_UniformBlocks(seed, dim, scale), dim, "random")
    stream._checked = True
    return stream


def drift_then_constant_stream(base, flips: int) -> LinearStream:
    """Alternate +-base for ``flips`` rounds, then hold at +base forever.

    With previous-gradient hints the hint errors vanish after round
    flips + 1, so the total gradient variation stays fixed as T grows.
    """
    base = as_point(base)

    def vec(t):
        if t <= flips:
            return base if t % 2 == 1 else -base
        return base

    return LinearStream(vec, base.size, "drift-then-constant")


class DriftingQuadratic(LossSequence):
    """f_t = (w/2) ||x - a_t||^2 with a deterministic drifting center.

    The gradient difference between rounds is constant in x, so the
    per-round variation terms are exact.
    """

    def __init__(self, center_fn, dim: int, weight: float = 1.0):
        self.center_fn = center_fn
        self.dim = dim
        self.weight = float(weight)

    def center(self, t):
        return as_point(self.center_fn(t))

    def loss(self, t):
        return QuadraticLoss(self.center(t), self.weight)

    def column(self, ts):
        # one check of the stacked centres; a scalar centre is a 1-vector
        centers = np.array([self.center_fn(t) for t in ts], dtype=float)
        centers = centers[:, None] if centers.ndim == 1 else centers
        if centers.shape[1:] != (self.dim,) or not np.isfinite(centers).all():
            raise ValueError(f"centres must be finite 1-d points of dim {self.dim}")
        # the one weight, stored once
        return LossColumn(len(centers), [(slice(None), "quadratic", (
            centers, np.broadcast_to(self.weight, (len(centers),))))])

    def quadratic_column(self, T):
        # a centre or weight that a round's loss, or its folded metric,
        # rejects is left to per-round play, which names the round it fails
        try:
            return self.column(range(1, T + 1)).groups[0][2] \
                if 0 < self.weight < INF else None
        except ValueError:
            return None

    def per_round_variation(self, T, feasible_set):
        first = _sup_grad_norm_sq(self.loss(1), feasible_set)
        if first is None:
            return None
        c = self.column(range(1, T + 1)).groups[0][2][0]     # the centres
        d = self.weight * (c[1:] - c[:-1])
        return [first] + core.rowdot(d, d).tolist()


def sine_drift_quadratic(dim: int, amplitude: float, period: float,
                         weight: float = 1.0) -> DriftingQuadratic:
    direction = np.zeros(dim)
    direction[0] = 1.0

    def center(t):
        return amplitude * math.sin(2.0 * math.pi * t / period) * direction

    return DriftingQuadratic(center, dim, weight)


class StochasticLoss(LossSequence):
    """Fixed loss with noisy gradient feedback.

    Noise is isotropic Gaussian by default; ``uniform`` gives bounded noise
    with the same per-coordinate variance.  The returned sigma_t is the
    realized deviation g_t - grad f(x_t).
    """

    stochastic = True

    def __init__(self, base: Loss, dim: int, noise: float, noise_kind: str = "gaussian"):
        if noise < 0:
            raise ValueError("noise level must be >= 0")
        if noise_kind not in ("gaussian", "uniform"):
            raise ValueError(f"unknown noise kind {noise_kind!r}")
        self.base = base
        self.dim = dim
        self.noise = float(noise)
        self.noise_kind = noise_kind

    def loss(self, t):
        return self.base

    def gradient(self, t, x, rng):
        mean = self.base.grad(x)
        if self.noise == 0.0:
            return mean, np.zeros_like(mean)
        if self.noise_kind == "gaussian":
            sigma = self.noise * rng.standard_normal(self.dim)
        else:
            half = self.noise * math.sqrt(3.0)
            sigma = rng.uniform(-half, half, self.dim)
        return mean + sigma, sigma

    def per_round_variation(self, T, feasible_set):
        first = _sup_grad_norm_sq(self.base, feasible_set)
        if first is None:
            return None
        return [first] + [0.0] * (T - 1)


def _sup_grad_norm_sq(loss: Loss, feasible_set):
    """Closed-form sup over the set of ||grad f||_2^2 where available."""
    if loss.vector is not None:
        g = loss.vector
        return float(np.dot(g, g))
    if is_isotropic_quadratic(loss):
        w, center = loss.isotropic
        reach = feasible_set.max_dist_to(center)
        if not math.isfinite(reach):
            return None
        return (w * reach) ** 2
    return None


def variation_estimate(seq: LossSequence, feasible_set, T: int,
                       n_probes: int = 64, rng=None):
    """Total gradient variation sum_t sup_x ||grad f_t - grad f_{t-1}||^2.

    Returns (value, quality) with quality "exact" when the sequence admits a
    closed form and "probe-estimated" otherwise (sup replaced by a max over
    sampled feasible points, an under-estimate by construction).
    """
    per = seq.per_round_variation(T, feasible_set)
    if per is not None:
        return float(np.sum(per)), "exact"
    if rng is None:
        rng = np.random.default_rng(0)
    probes = [feasible_set.sample(rng) for _ in range(n_probes)]
    total = 0.0
    for t in range(1, T + 1):
        f_now = seq.loss(t)
        f_prev = seq.loss(t - 1) if t > 1 else None
        best = 0.0
        for x in probes:
            g = f_now.grad(x)
            if f_prev is not None:
                g = g - f_prev.grad(x)
            best = max(best, float(np.dot(g, g)))
        total += best
    return total, "probe-estimated"


# -- probe-based certificates ------------------------------------------------

def verify_star_convex(loss: Loss, center, feasible_set=None, probes=None,
                       n_probes: int = 10 ** 4, rng=None, tol: float = 1e-9) -> bool:
    """Check B_f(center, x) >= 0 on probe points.

    Star-convexity around the center is exactly non-negativity of the
    divergence toward it, so a single negative value is a disproof; passing
    probes certify only up to sampling.
    """
    center = as_point(center)
    for x in _probe_points(center.size, feasible_set, probes, n_probes, rng):
        b = _bregman_to_center(loss, center, x)
        if b < -tol:
            return False
    return True


def _bregman_to_center(loss: Loss, center, x) -> float:
    fx = loss.value(x)
    fc = loss.value(center)
    d = loss.dir_deriv(x, center - x)
    if d == -INF:
        return INF
    if d == INF:
        return -INF  # f climbs toward the center: maximal violation
    return fc - fx - d


def estimate_tau(loss: Loss, center, feasible_set=None, probes=None,
                 n_probes: int = 10 ** 4, rng=None) -> float:
    """Largest tau with tau (f(x) - f(center)) <= -f'(x; center - x) on probes.

    Returns the infimum of the probe ratios, clipped at 0; a genuinely
    star-convex loss gives at least 1, a quadratic gives 2.
    """
    return _tau_probe(loss, None, center, feasible_set, probes, n_probes, rng)


def estimate_tau_strong(loss: Loss, reg, center, feasible_set=None, probes=None,
                        n_probes: int = 10 ** 4, rng=None) -> float:
    """Like estimate_tau but with the divergence of ``reg`` subtracted:
    tau (f(x) - f(center)) <= -f'(x; center - x) - B_reg(center, x)."""
    return _tau_probe(loss, reg, center, feasible_set, probes, n_probes, rng)


def _tau_probe(loss, reg, center, feasible_set, probes, n_probes, rng) -> float:
    """The probe loop of both tau estimates; reg None subtracts nothing."""
    center = as_point(center)
    fc = loss.value(center)
    best = INF
    for x in _probe_points(center.size, feasible_set, probes, n_probes, rng):
        gap = loss.value(x) - fc
        if gap <= 1e-12:
            continue
        d = loss.dir_deriv(x, center - x)
        if d == INF:
            return 0.0
        ratio = (-d if reg is None else -d - reg.bregman(center, x)) / gap
        if ratio <= 0.0:
            return 0.0
        best = min(best, ratio)
    if best is INF:
        raise ValueError("no probe separated f(x) from f(center)")
    return best


def verify_tau_star_strong(loss: Loss, reg, center, tau: float, feasible_set=None,
                           probes=None, n_probes: int = 10 ** 4, rng=None,
                           tol: float = 1e-9) -> bool:
    """Check tau (f(x) - f(c)) <= -f'(x; c - x) - B_reg(c, x) on probes."""
    center = as_point(center)
    fc = loss.value(center)
    for x in _probe_points(center.size, feasible_set, probes, n_probes, rng):
        d = loss.dir_deriv(x, center - x)
        if d == INF:
            return False
        lhs = tau * (loss.value(x) - fc)
        rhs = -d - reg.bregman(center, x)
        if lhs > rhs + tol:
            return False
    return True


def check_pl(loss: Loss, mu: float, center=None, feasible_set=None, probes=None,
             n_probes: int = 10 ** 4, rng=None, tol: float = 1e-9) -> bool:
    """Check the gradient-dominance inequality mu (f - f*) <= 1/2 ||grad f||^2."""
    if center is None:
        center = loss.star_center
    center = as_point(center)
    fstar = loss.value(center)
    for x in _probe_points(center.size, feasible_set, probes, n_probes, rng):
        g = loss.grad(x)
        if mu * (loss.value(x) - fstar) > 0.5 * float(np.dot(g, g)) + tol:
            return False
    return True


def _probe_points(dim, feasible_set, probes, n_probes, rng):
    if probes is not None:
        for x in probes:
            yield as_point(x)
        return
    if rng is None:
        rng = np.random.default_rng(0)
    for _ in range(n_probes):
        if feasible_set is not None:
            yield feasible_set.sample(rng)
        else:
            yield rng.standard_normal(dim)


# -- the random stream's block kernel -----------------------------------------
#
# default_rng((seed, t)) seeds PCG64 through SeedSequence (O'Neill 2014), and
# both are fixed integer recurrences, so a block of rounds is a few dozen
# numpy operations: SeedSequence's hash mix vectorized over t on uint32 (where
# wrap-around is free), PCG64's seeding on 128-bit states held as uint64
# (hi, lo) pairs, and a jump ahead instead of d steps.  The constants are
# numpy's; the kernel must agree with every numpy the package accepts.

_U32, _U64 = np.uint32, np.uint64
_X16, _S32 = _U32(16), _U64(32)     # shift counts
_MASK32 = 0xFFFFFFFF
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
_LOW32 = _U64(_MASK32)
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875     # SeedSequence hash mix
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED     # SeedSequence.generate_state
_SS_MIX_L, _SS_MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_BLOCK_FIRST = 64            # rounds in the first block; each next one doubles
_BLOCK_FLOATS = 2 ** 14      # until rounds x dim would pass this


class _UniformBlocks:
    """t -> scale * default_rng((seed, t)).uniform(-1, 1, dim).

    ``rows`` draws any rounds, one kernel call per ``cap`` = 2**14 // dim
    rounds so its temporaries stay small: play's g column (``head``), the
    replay's and the variation terms'.  A lookup of round t reads the
    cached block, ``head``'s or else one of 64, 128, 256, ... rounds up to
    ``cap`` drawn when t leaves it.  The arrays handed out are read-only.
    Each entry is scale times a number in [-1, 1], so the rows are finite
    exactly when ``scale`` is, which ``random_stream`` checks once: they
    need no check of their own."""

    def __init__(self, seed: int, dim: int, scale: float):
        self.words = [seed & _MASK32]       # numpy's uint32 words of the seed
        seed >>= 32
        while seed:
            self.words.append(seed & _MASK32)
            seed >>= 32
        self.dim = dim
        self.scale = scale
        self.cap = max(1, _BLOCK_FLOATS // dim)
        self.start = 0
        self.block = np.empty((0, dim))

    def __call__(self, t: int) -> np.ndarray:
        i = t - self.start
        if not 0 <= i < len(self.block):
            if not 1 <= t < 2 ** 32:
                raise ValueError(f"random stream round t={t} is outside "
                                 "[1, 2**32)")
            start, size = 1, min(_BLOCK_FIRST, self.cap)
            while size < self.cap and t >= start + size:
                start += size
                size = min(2 * size, self.cap)
            start += (t - start) // size * size
            self.block = self.rows(np.arange(start, min(start + size, 2 ** 32)))
            self.start = start
            i = t - start
        return self.block[i]

    def rows(self, ts) -> np.ndarray:
        """Rounds ``ts`` as one read-only (len(ts), dim) array."""
        ts = np.asarray(ts)     # a round past int64 makes an object array
        bad = ts[~((ts >= 1) & (ts < 2 ** 32))]
        if bad.size:
            raise ValueError(f"random stream round t={bad[0]} is outside "
                             "[1, 2**32)")
        out = np.empty((ts.size, self.dim))
        for k in range(0, ts.size, self.cap):
            out[k:k + self.cap] = _uniform_block(
                self.words, ts[k:k + self.cap].astype(_U32), self.dim, self.scale)
        out.flags.writeable = False
        return out

    def head(self, T: int) -> np.ndarray:
        """Rounds 1..T (``rows``), kept as the cached block."""
        self.block, self.start = self.rows(np.arange(1, T + 1)), 1
        return self.block


def _uniform_block(words, rounds, dim: int, scale: float) -> np.ndarray:
    """Row k: scale * default_rng((seed, rounds[k])).uniform(-1, 1, dim),
    where ``words`` are the seed's uint32 words."""
    # PCG64 seeding from s and q: inc = 2 q + 1, state = (inc + s) MULT +
    # inc.  Draw j is the state j steps on, A_j s + B_j inc = A_j s + D_j q +
    # B_j with D_j = 2 B_j; both products run in one pass over (2, rounds,
    # dim) arrays
    states = _seed_states(words, rounds)[:, :, None]
    x_hi, x_lo = states[0::2], states[1::2]         # (s, q), high and low
    y_hi, y_lo, y_lo0, y_lo1, b_hi, b_lo = _pcg_jumps(dim)
    p_lo, p_hi = _mul_64x64(x_lo, y_lo, y_lo0, y_lo1)
    p_hi += x_hi * y_lo + x_lo * y_hi
    lo = p_lo[0] + p_lo[1]
    hi = p_hi[0] + p_hi[1] + (lo < p_lo[0])
    lo += b_lo
    hi += b_hi + (lo < b_lo)
    # XSL-RR output, the 53-bit double, then uniform's low + (high - low) u
    x = hi ^ lo
    rot = hi >> _U64(58)
    x = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
    u2 = (x >> _U64(11)).astype(np.float64) * 2.0 ** -52     # exactly 2 u
    return scale * (-1.0 + u2)


def _seed_states(words, rounds):
    """SeedSequence(words + [t]).generate_state(4, np.uint64) for each t in
    ``rounds``, as four uint64 rows: PCG64's initial state (hi, lo) and
    sequence (hi, lo)."""
    entropy = list(words) + [rounds]
    xa, ma, xb, mb = _seed_sequence_constants(len(entropy))
    pool = np.zeros((4, rounds.size), _U32)
    for i, w in enumerate(entropy[:4]):
        pool[i] = w
    pool = _hashmix(pool, xa[0], ma[0])
    # each pool word mixes into the other three; its own row is restored
    for src in range(4):
        mixed = _mix(pool, _hashmix(pool[src], xa[1 + src], ma[1 + src]))
        mixed[src] = pool[src]
        pool = mixed
    for e, w in enumerate(entropy[4:]):
        pool = _mix(pool, _hashmix(np.asarray(w, _U32), xa[5 + e], ma[5 + e]))
    out = _hashmix(np.concatenate([pool, pool]), xb, mb).astype(_U64)
    return out[0::2] | (out[1::2] << _S32)     # little-endian word pairs


def _hashmix(v, xor, mult):
    v = (v ^ xor) * mult
    return v ^ (v >> _X16)


def _mix(x, y):
    r = x * _SS_MIX_L - y * _SS_MIX_R
    return r ^ (r >> _X16)


@functools.lru_cache(maxsize=16)
def _seed_sequence_constants(n_words: int):
    """The hash constants SeedSequence xors and multiplies by, in call order,
    as (4, 1) uint32 columns: mix_entropy's first pass over the pool, its
    four pool-word passes (0 in the source word's own row, which they skip),
    one pass for each entropy word past the pool; then generate_state's 8
    as (8, 1) columns."""

    def chain(init, mult, n):
        h = [init]
        for _ in range(n):
            h.append(h[-1] * mult & _MASK32)
        return h[:-1], h[1:]

    n_extra = max(0, n_words - 4)
    xs, ms = chain(_SS_INIT_A, _SS_MULT_A, 16 + 4 * n_extra)
    xa, ma = [xs[:4]], [ms[:4]]
    for src in range(4):
        k = 4 + 3 * src
        xa.append(xs[k:k + src] + [0] + xs[k + src:k + 3])
        ma.append(ms[k:k + src] + [0] + ms[k + src:k + 3])
    xa += [xs[16 + 4 * e:20 + 4 * e] for e in range(n_extra)]
    ma += [ms[16 + 4 * e:20 + 4 * e] for e in range(n_extra)]
    xb, mb = chain(_SS_INIT_B, _SS_MULT_B, 8)
    return (np.array(xa, _U32)[:, :, None], np.array(ma, _U32)[:, :, None],
            np.array(xb, _U32)[:, None], np.array(mb, _U32)[:, None])


@functools.lru_cache(maxsize=64)
def _pcg_jumps(dim: int):
    """For draws j = 1..dim, with A_j = MULT^{j+1} and B_j = sum_{i<=j+1}
    MULT^i mod 2**128: (A_j, 2 B_j) stacked as (2, 1, dim) uint64 arrays of
    high words, low words and the low words' two 32-bit limbs, then B_j's
    high and low words."""
    a, b = _PCG_MULT, 1 + _PCG_MULT
    cols = []
    for _ in range(dim):
        a = a * _PCG_MULT & _MASK128
        b = (b + a) & _MASK128
        b2 = 2 * b & _MASK128
        cols.append((a >> 64, b2 >> 64, a & _MASK64, b2 & _MASK64,
                     b >> 64, b & _MASK64))
    a_hi, b2_hi, a_lo, b2_lo, b_hi, b_lo = np.array(cols, _U64).T
    y_hi = np.array([a_hi, b2_hi])[:, None]
    y_lo = np.array([a_lo, b2_lo])[:, None]
    return y_hi, y_lo, y_lo & _LOW32, y_lo >> _S32, b_hi, b_lo


def _mul_64x64(x, y, y0, y1):
    """(low, high) 64-bit halves of x * y, with y's 32-bit limbs y0, y1
    (Hacker's Delight's mulhu: no partial sum passes 2**64)."""
    x0, x1 = x & _LOW32, x >> _S32
    mid = x1 * y0 + ((x0 * y0) >> _S32)
    low_mid = x0 * y1 + (mid & _LOW32)
    hi = x1 * y1 + (mid >> _S32) + (low_mid >> _S32)
    return x * y, hi
