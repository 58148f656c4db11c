"""Primitives shared by every other module.

Vectors are dense float64 numpy arrays.  A quadratic metric M defines the
norm pair

    ||x||_M^2 = x' M x,        ||g||_{M,*}^2 = g' M^{-1} g,

and is stored in one of three shapes: a scaled identity, a diagonal, or a
full symmetric PSD matrix.  On top of these the module provides one-sided
directional derivatives and the generalized Bregman divergence

    B_f(y, x) = f(y) - f(x) - f'(x; y - x)   if f(y) is finite,
    B_f(y, x) = +inf                          otherwise,

which is defined through directional derivatives only, so it applies to
non-smooth and non-convex functions alike.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf

_PSD_CLAMP = -1e-10  # eigenvalues above this are treated as rounding noise
_PD_FLOOR = 1e-14    # a dual norm needs eigenvalues above this, relative
_EPS = float(np.finfo(float).eps)


class DimensionMismatch(ValueError):
    pass


class SingularMetricError(ValueError):
    """Dual norm requested under a metric that is not positive definite."""


def as_point(x) -> np.ndarray:
    """Validate and return a finite 1-d float64 array.

    Called once where a vector enters the package: a public constructor or
    function, a user's stream vector, each round's g in ``Driver.round``.
    The layers after that check trust its result."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        if arr.ndim:
            raise ValueError(f"point must be 1-d, got shape {arr.shape}")
        arr = arr.reshape(1)
    if not np.isfinite(arr).all():
        raise ValueError("point has non-finite entries")
    return arr


def dot(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shape mismatch {x.shape} vs {y.shape}")
    return float(x.dot(y))


def rowdot(a, b) -> np.ndarray:
    """Row i: ``a[i].dot(b[i])``, or ``a[i].dot(b)`` for one shared row b.

    Bit for bit the per-row ``dot``: a stack of 1 x d by d x 1 products goes
    to the same BLAS ddot as a vector dot, row by row.  ``a @ b``, einsum
    and ``(a * b).sum(1)`` sum in another order and can differ in the last
    bit."""
    return np.matmul(a[:, None, :], b[..., :, None])[:, 0, 0]


def running(start, rows: np.ndarray) -> np.ndarray:
    """Row k: start + rows[0] + ... + rows[k-1], added left to right, as a
    loop adds them: np.cumsum adds in loop order."""
    out = np.empty((len(rows) + 1,) + rows.shape[1:])
    out[0] = start
    out[1:] = rows
    return np.cumsum(out, axis=0, out=out)


class QuadMetric:
    """Symmetric PSD quadratic form in scaled-identity, diagonal, or full shape.

    ``full`` symmetrizes and eigen-clamps its matrix: any eigenvalue in
    [-1e-10 s, 0), s = max(1, max |eigenvalue|), is treated as 0, anything
    below that is rejected.  The dual norm additionally requires strict
    positive definiteness and raises ``SingularMetricError`` naming the
    offending coordinate or eigenvalue.

    A full metric carries its eigenpairs (``_evals`` ascending, ``_evecs``)
    when ``full`` built it, ``scale`` kept them, or it is the full-matrix
    schedule's running metric (``regularizers.adagrad_full_step``); a
    ``psd_full`` increment or an ``add`` sum computes them lazily.
    The schedule's metric of a round its Gram serves carries all d
    eigenvalues but the eigenvectors of only the top k: ``_evecs`` is d x k, and the d - k
    smallest eigenvalues are one floor ``_evals[0]`` whose eigenvectors span
    the complement of ``_evecs``' columns.  ``parts`` writes that form as
    V diag(c) V' + f I, and ``inverse_parts`` its inverse for ``solve`` and
    the argmin's box route; ``MetricColumn.put`` stores the complement's
    share of a projection.  Such a metric, and the increment from one to
    the next (``psd_difference``, which holds the pair), has no d x d
    matrix: ``matvec`` reads the factors, and ``matrix`` is formed, and
    kept, only when something reads it.
    """

    __slots__ = ("kind", "gamma", "weights", "_matrix", "_dim", "_evals", "_evecs",
                 "_pair", "_parts_of")

    def __init__(self, kind, *, gamma=None, weights=None, matrix=None, dim=None,
                 _evals=None, _evecs=None, _pair=None):
        self.kind = kind
        self.gamma = gamma
        self.weights = weights
        self._matrix = matrix
        self._dim = dim
        self._evals = _evals
        self._evecs = _evecs
        self._pair = _pair
        self._parts_of = None

    # -- constructors --------------------------------------------------

    @classmethod
    def scaled(cls, gamma: float, dim: int | None = None) -> "QuadMetric":
        gamma = float(gamma)
        if not _PSD_CLAMP <= gamma < INF:
            raise ValueError(f"scaled-identity metric needs a finite gamma >= 0, got {gamma}")
        return cls("scaled", gamma=max(gamma, 0.0), dim=dim)

    @classmethod
    def diagonal(cls, weights) -> "QuadMetric":
        w = np.array(weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("diagonal metric needs a 1-d weight vector")
        # min and max are NaN when any weight is
        if not (w.min(initial=0.0) >= _PSD_CLAMP and w.max(initial=0.0) < INF):
            j = int(np.flatnonzero(~(w >= _PSD_CLAMP) | (w == INF))[0])
            why = "negative" if w[j] < 0 else "not finite"
            raise ValueError(f"diagonal metric weight {j} is {why} ({w[j]})")
        np.maximum(w, 0.0, out=w)
        return cls("diag", weights=w, dim=w.size)

    @classmethod
    def full(cls, matrix) -> "QuadMetric":
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("full metric needs a square matrix")
        if not np.isfinite(a).all():
            raise ValueError("full metric has non-finite entries")
        a = 0.5 * (a + a.T)
        evals, evecs = np.linalg.eigh(a)
        scale = max(1.0, float(np.max(np.abs(evals))))
        bad = np.where(evals < _PSD_CLAMP * scale)[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"full metric eigenvalue {i} is negative ({evals[i]})")
        evals = np.maximum(evals, 0.0)
        a = (evecs * evals) @ evecs.T
        a = 0.5 * (a + a.T)
        return cls("full", matrix=a, dim=a.shape[0], _evals=evals, _evecs=evecs)

    @classmethod
    def psd_full(cls, matrix: np.ndarray) -> "QuadMetric":
        """A full metric from a finite, exactly symmetric d x d matrix A,
        proven PSD by one Cholesky factorisation of A + c s I instead of
        ``full``'s eigendecomposition; no clamp, no eigenpairs.

        s is the largest of 1, the |a_jj| and |v'Av| / v'v for v the column
        of the largest |a_jj|: Rayleigh quotients, so at most ``full``'s
        max |eigenvalue|, and the last one near it when A is nearly rank one,
        as an AdaGrad increment is.  So c = 1e-10 would accept nothing that
        ``full`` rejects in exact arithmetic; c = 1e-10 - 2 d eps keeps that
        true under rounding (eight times the margin that matrices drawn at
        the threshold, d up to 256, needed)."""
        if not np.isfinite(matrix).all():
            raise ValueError("full metric has non-finite entries")
        d = matrix.shape[0]
        diag = np.abs(matrix.diagonal())
        j = int(diag.argmax())
        v = matrix[:, j]
        vv = float(v.dot(v))
        s = max(1.0, float(diag[j]), abs(float(v.dot(matrix @ v))) / vv if vv else 0.0)
        c = -_PSD_CLAMP - 2 * d * _EPS
        shifted = matrix.copy()
        shifted.flat[::d + 1] += c * s
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise ValueError("full metric is not positive semidefinite: its "
                             "shifted Cholesky factorisation fails") from None
        return cls("full", matrix=matrix, dim=d)

    @classmethod
    def eigen(cls, evals: np.ndarray, evecs: np.ndarray) -> "QuadMetric":
        """The full metric of ascending eigenvalues ``evals`` (all d) and
        top eigenvectors ``evecs`` (d x k, k = 0 for floor * I), trusted
        as given; its matrix is formed only if read."""
        return cls("full", dim=evecs.shape[0], _evals=evals, _evecs=evecs)

    @classmethod
    def psd_difference(cls, new: "QuadMetric", old: "QuadMetric"):
        """new - old for two ``eigen`` metrics of one floor, proven PSD on
        its k x k core, or None where the proof fails.

        With new = V diag(a) V' + f I and old = Z Z' + f I (``parts``; Z is
        old's eigenvectors scaled by the root of their c), the increment is
        M = V A V' - Z Z', A = diag(a) >= 0.  V's columns are orthonormal
        only to within delta = ||V'V - I||_F: a Gram root's eigenvector of
        a small Gram eigenvalue s is about eps max(s) / s off.  So let
        V = Q R with orthonormal Q, G = R'R = V'V, W = Q'Z and E old's part
        off V's span, with beta^2 = ||E||_F^2 at most that of Z - V Y for
        Y = V'Z = R'W (a projection leaves the least residual).  For
        x = Q u + y, y off the span, and c s psd_full's shift, Young's
        inequality gives
        x'(M + c s I)x >= u'(C' + (c s - slack) I)u + (c s / 2 - beta^2)||y||^2
        for the core C' = R A R' - W W' and slack = 2 rho beta^2 / (c s),
        where rho = (1 + delta) max(a) + c s bounds ||W W'|| once C' passes.
        R'(C' + t I)R = G A G - Y Y' + t G, and G A G - A + t (G - I) has
        norm at most eta = delta ((2 + delta) max(a) + c s) for 0 < t <= c s.
        So a Cholesky factorisation of A - Y Y' + (c s - slack - eta) I, with
        beta^2 < c s / 2 and slack + eta < c s, proves on a k x k matrix that
        M + c s I is positive definite: what ``psd_full`` of the formed d x d
        increment accepts, for its s (the largest of 1, M's largest
        |diagonal| and the Rayleigh quotient of that column), which M's
        factors give in O(d k).  A proof at a smaller s is one at a larger,
        so s = 1 is tried first; psd_full's s only where that fails.  With
        V and E to rounding, eta is about 2 delta max(a) and the slack
        smaller still.  Where the proof fails (a V far from orthonormal
        among them) the caller decides on a d x d matrix."""
        v, a, f = new.parts()
        w, b, f_old = old.parts()
        if f != f_old:
            return None
        d, k = v.shape
        z = w * np.sqrt(b)
        y = v.T @ z
        off = z - v @ y
        beta2 = float(np.vdot(off, off))
        gap = v.T @ v
        gap.flat[::k + 1] -= 1.0
        delta = math.sqrt(float(np.vdot(gap, gap)))
        yy = y @ y.T
        c, top = -_PSD_CLAMP - 2 * d * _EPS, float(a.max(initial=0.0))
        s = 1.0
        while delta < 1.0:
            cs = c * s
            slack = 2 * ((1 + delta) * top + cs) * beta2 / cs
            eta = delta * ((2 + delta) * top + cs)
            if 2 * beta2 < cs and slack + eta < cs:
                try:
                    if k:
                        np.linalg.cholesky(np.diag(a + (cs - slack - eta)) - yy)
                    return cls("full", dim=d, _pair=(new, old))
                except np.linalg.LinAlgError:
                    pass
            if s > 1.0:
                break
            # psd_full's s: column j of M for its largest |diagonal|
            diag = np.abs((v * v) @ a - np.einsum("ij,ij->i", z, z))
            j = int(diag.argmax())
            u = v @ (a * v[j]) - z @ z[j]
            uu = float(u.dot(u))
            uMu = float(np.square(u @ v).dot(a) - np.square(u @ z).sum())
            s = max(float(diag[j]), abs(uMu) / uu if uu else 0.0)
            if not s > 1.0:
                break
        return None

    @classmethod
    def zero(cls, dim: int | None = None) -> "QuadMetric":
        return cls("scaled", gamma=0.0, dim=dim)

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int | None:
        return self._dim

    @property
    def matrix(self) -> np.ndarray | None:
        """A full metric's d x d matrix, formed when first read: a
        ``psd_difference`` increment's from its pair, an ``eigen`` metric's
        as the full-matrix schedule formed its root, sym((V c) V' + f I)."""
        if self._matrix is None and self.kind == "full":
            if self._pair is not None:
                new, old = self._pair
                self._matrix = new._summand(self._dim) - old._summand(self._dim)
            else:
                v, c, f = self.parts()
                m = (v * c) @ v.T
                if v.shape[1] < v.shape[0]:
                    m.flat[::v.shape[0] + 1] += f
                self._matrix = 0.5 * (m + m.T)
        return self._matrix

    def _eig(self):
        if self._evals is None:
            self._evals, self._evecs = np.linalg.eigh(self.matrix)
        return self._evals, self._evecs

    def parts(self):
        """(V, c, f) with M = V diag(c) V' + f I for a full metric of
        eigenpairs: c the top k eigenvalues and f = 0 when k = d, else c
        their excess over the floor f = ``_evals[0]``; kept once formed."""
        if self._parts_of is None:
            evals, evecs = self._eig()
            d, k = evecs.shape
            f = evals[0] if k < d else 0.0
            self._parts_of = evecs, evals[d - k:] - f, f
        return self._parts_of

    # -- algebra ---------------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "scaled":
            return self.gamma * x
        self._check(x)
        if self.kind == "diag":
            return self.weights * x
        if self._matrix is not None:
            return self._matrix @ x
        if self._pair is not None:
            new, old = self._pair
            if (new._matrix is not None or old._matrix is not None) \
                    and new._at_hand() and old._at_hand():
                # between roots of the d x d route, or one and the floor f I
                # a run starts at: the difference of their matrices
                return self.matrix @ x
            return new.matvec(x) - old.matvec(x)
        return self._eigen_matvec(x)

    def _at_hand(self) -> bool:
        """Whether the matrix is kept, or costs nothing to form: f I."""
        return self._matrix is not None or self._evecs is not None and not self._evecs.size

    def _eigen_matvec(self, x: np.ndarray) -> np.ndarray:
        """M x from the eigenpairs, for x a vector or a block of rows."""
        v, c, f = self.parts()
        out = ((x @ v) * c) @ v.T
        return out + f * x if f else out

    def _check(self, x):
        if self._dim is not None and x.shape[0] != self._dim:
            raise DimensionMismatch(
                f"metric dim {self._dim} vs vector dim {x.shape[0]}")

    def add(self, other: "QuadMetric") -> "QuadMetric":
        """M + N.  Both summands were validated when they were built and a
        sum of PSD forms is PSD, so the sum is not validated again; a full
        sum computes its eigenpairs lazily, when a query needs them."""
        a, b = self, other
        if a.kind == "scaled" and b.kind == "scaled":
            return QuadMetric("scaled", gamma=a.gamma + b.gamma, dim=a._dim or b._dim)
        if a.kind == "scaled" and a.gamma == 0.0:
            return b
        if b.kind == "scaled" and b.gamma == 0.0:
            return a
        if "full" in (a.kind, b.kind):
            d = a._dim if a._dim is not None else b._dim
            return QuadMetric("full", matrix=a._summand(d) + b._summand(d), dim=d)
        # scaled+diag or diag+diag: the scaled gamma broadcasts
        d = a._dim if a.kind == "diag" else b._dim
        return QuadMetric("diag", weights=a._summand() + b._summand(), dim=d)

    def _summand(self, d: int | None = None):
        """This metric as a term of a sum, without a copy: the weights or
        gamma for a diagonal sum (d None), a d x d matrix for a full one."""
        if self.kind == "full":
            return self.matrix
        if self.kind == "diag":
            return self.weights if d is None else np.diag(self.weights)
        return self.gamma if d is None else self.gamma * np.eye(d)

    def scale(self, c: float) -> "QuadMetric":
        """c M for a finite c >= 0; the eigenvectors of M carry over."""
        c = float(c)
        if not 0.0 <= c < INF:
            raise ValueError(f"metric scaling must be finite and non-negative, got {c}")
        if self.kind == "scaled":
            return QuadMetric("scaled", gamma=c * self.gamma, dim=self._dim)
        if self.kind == "diag":
            return QuadMetric("diag", weights=c * self.weights, dim=self._dim)
        evals = None if self._evals is None else c * self._evals
        return QuadMetric("full", matrix=c * self.matrix, dim=self._dim,
                          _evals=evals, _evecs=self._evecs)

    def shift_identity(self, c: float) -> "QuadMetric":
        """Return M + c I.  Raises if the shift breaks positive semidefiniteness."""
        if self.kind == "scaled":
            return QuadMetric.scaled(self.gamma + c, self._dim)
        if self.kind == "diag":
            return QuadMetric.diagonal(self.weights + c)
        return QuadMetric.full(self.matrix + c * np.eye(self._dim))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve M x = b.  Requires strict positive definiteness."""
        if self.kind == "scaled":
            if self.gamma <= 0:
                raise SingularMetricError("scaled-identity metric has gamma = 0")
            return b / self.gamma
        if self.kind == "diag":
            self._assert_pd_diag()
            return b / self.weights
        evals, evecs = self._eig()
        self._assert_pd_full(evals)
        v, c, f = self.inverse_parts(evals, evecs)
        x = v @ (c * (v.T @ b))
        if f:
            x += f * b
        return x

    @staticmethod
    def inverse_parts(evals, evecs, shift: float = 0.0):
        """(V, c, f) with (M + shift I)^-1 = V diag(c) V' + f I for the full
        M of ascending eigenvalues ``evals`` (all d) and top eigenvectors
        ``evecs`` (d x k): c = 1/lam and f = 0 when k = d, else, the floor
        evals[0] acting on the complement of V's columns, c = 1/lam - 1/floor
        and f = 1/floor."""
        d, k = evecs.shape
        c = 1.0 / (evals[d - k:] + shift)
        if k == d:
            return evecs, c, 0.0
        f = 1.0 / (evals[0] + shift)
        return evecs, c - f, f

    def _assert_pd_diag(self):
        if not (self.weights > 0.0).all():
            j = int(np.flatnonzero(~(self.weights > 0.0))[0])
            raise SingularMetricError(
                f"diagonal metric is singular at coordinate {j} (weight {self.weights[j]})")

    def _assert_pd_full(self, evals):
        tol = _PD_FLOOR * max(1.0, float(evals[-1]))
        if evals[0] <= tol:
            raise SingularMetricError(
                f"full metric is singular: eigenvalue 0 is {evals[0]}")

    def __repr__(self):
        if self.kind == "scaled":
            return f"QuadMetric.scaled({self.gamma}, dim={self._dim})"
        if self.kind == "diag":
            return f"QuadMetric.diagonal({self.weights!r})"
        return f"QuadMetric.full({self.matrix!r})"


class Roots(list):
    """A full-matrix run's running metric of r after each round t = 0..T,
    shared by the run's metric columns: a root the Gram served keeps its
    eigenvalues and top eigenvectors (``QuadMetric.eigen``), one of the
    d x d route its matrix alone.  Root 0 is the floor f I a run starts at.
    Which a root keeps is read off its factors, not off whether play read
    its matrix; ``at`` hands out root j as a fresh metric over the kept
    arrays, so what a reader forms on it (a matrix, eigenpairs) is not
    kept here."""

    __slots__ = ()

    def append(self, m: QuadMetric) -> None:
        evecs = m._evecs
        if evecs is not None and evecs.shape[1] < evecs.shape[0]:
            root = QuadMetric.eigen(m._evals, evecs)
            root._parts_of = m._parts_of
            super().append(root)
        else:
            super().append(QuadMetric("full", matrix=m.matrix, dim=m._dim))

    def at(self, j: int) -> QuadMetric:
        m = self[j]
        return QuadMetric("full", matrix=m._matrix, dim=m._dim,
                          _evals=m._evals, _evecs=m._evecs)

    def gram(self) -> int:
        """How many roots, from root 0, the Gram served: their factors."""
        return next((t for t, m in enumerate(self) if m._evecs is None), len(self))


class MetricColumn:
    """One metric per round.  Row i is ``gamma[i]`` I where ``kind[i]`` is
    0, the diagonal ``wide[i]`` (T x d, allocated by the first) where it is
    1, and a full metric read from ``roots``, a full-matrix run's T + 1
    running metrics shared by its columns, where it is 2, 3 or 4:
    ``roots[i]``, ``roots[i + 1]`` or the increment from one to the other.
    ``roots`` (``Roots``) keeps r's running metric after each round: the
    eigenvalues and top eigenvectors of a root the Gram served, the matrix
    of one the d x d eigh made.  A row is a fresh metric over them, so its
    ``matvec`` reads a Gram root's factors, the column forms no d x d of
    its own, and what a reader forms on a row is not kept.  A
    root row also keeps its eigenvalues (``evals``) and the named vectors'
    projections onto its eigenvectors (``proj``), which is what a dual
    norm under it reads.  A
    root that carries only its top k eigenvectors (``QuadMetric``) keeps the
    projections onto them in the last k slots; its floor eigenvalue fills
    the first d - k, and so does v's part off their span: its norm in the
    first slot, 0 in the others, so that a dual norm is still
    sum P^2 / evals."""

    __slots__ = ("dim", "kind", "gamma", "wide", "roots", "evals", "proj")

    def __init__(self, T: int, dim: int, roots: Roots | None = None):
        self.dim = dim
        self.kind = np.zeros(T, dtype=np.int8)
        self.gamma = np.zeros(T)
        self.wide = self.evals = None
        self.roots, self.proj = roots, {}

    def put(self, i: int, m: QuadMetric, after: bool | None = None,
            **vectors) -> None:
        """Row i is m.  A full m is the round's increment of ``roots``, or,
        given ``after``, the running metric after the round (else before it),
        whose eigenpairs play carried (or m computes now)."""
        if m.kind == "scaled":
            self.gamma[i] = m.gamma
        elif m.kind == "diag":
            if self.wide is None:
                self.wide = np.zeros((self.kind.size, self.dim))
            self.kind[i], self.wide[i] = 1, m.weights
        elif after is None:
            self.kind[i] = 4
        else:
            evals, evecs = m._eig()
            if self.evals is None:
                self.evals = np.zeros((self.kind.size, self.dim))
                self.proj = {k: np.zeros_like(self.evals) for k in vectors}
            self.kind[i], self.evals[i] = 2 + after, evals
            d, k = evecs.shape
            for name, v in vectors.items():
                p = v @ evecs
                if k < d:
                    # ||v||^2 - ||p||^2, not ||v - V p||^2: a dual norm then
                    # agrees with ``QuadMetric.solve`` also where rounding
                    # leaves V's columns slightly off orthonormal
                    off = math.sqrt(max(float(v.dot(v) - p.dot(p)), 0.0))
                    p = np.concatenate(([off], np.zeros(d - k - 1), p))
                self.proj[name][i] = p

    def put_rows(self, rows: slice, values: np.ndarray) -> None:
        """``put`` of rows ``rows`` at once: their gammas (1-d ``values``)
        or diagonals (2-d)."""
        if not len(values):
            return
        if values.ndim == 1:
            self.gamma[rows] = values
            return
        if self.wide is None:
            self.wide = np.zeros((self.kind.size, self.dim))
        self.kind[rows], self.wide[rows] = 1, values

    def __getitem__(self, i: int) -> QuadMetric:
        k, r = self.kind[i], self.roots
        if k == 0:
            return QuadMetric("scaled", gamma=float(self.gamma[i]), dim=self.dim)
        if k == 1:
            return QuadMetric("diag", weights=self.wide[i], dim=self.dim)
        return r.at(i) if k == 2 else r.at(i + 1) if k == 3 \
            else QuadMetric("full", dim=self.dim, _pair=(r.at(i + 1), r.at(i)))

    def cut(self, T: int) -> "MetricColumn":
        out = MetricColumn(0, self.dim, self.roots)     # rows past T go unread
        out.kind, out.gamma = self.kind[:T], self.gamma[:T]
        out.wide = None if self.wide is None else self.wide[:T]
        out.evals = None if self.evals is None else self.evals[:T]
        out.proj = {k: v[:T] for k, v in self.proj.items()}
        return out


def quad_norm_sq(metric: QuadMetric, x) -> float:
    """||x||_M^2 = x' M x."""
    x = np.asarray(x, dtype=float)
    return float(x.dot(metric.matvec(x)))


def dual_norm_sq(metric: QuadMetric, g) -> float:
    """||g||_{M,*}^2 = g' M^{-1} g.  The metric must be strictly PD."""
    g = np.asarray(g, dtype=float)
    if metric.kind == "scaled":
        if metric.gamma <= 0:
            raise SingularMetricError("scaled-identity metric has gamma = 0")
        return float(g.dot(g)) / metric.gamma
    return float(g.dot(metric.solve(g)))


# -- directional derivatives ----------------------------------------------

_NUMERIC_ALPHAS = (1e-4, 1e-5, 1e-6)


def dir_derivative(f, x, z) -> float:
    """One-sided directional derivative f'(x; z), from the handle's closed form.

    Handles expose ``dir_deriv(x, z)``.  There is deliberately no silent
    numeric fallback here; tests that want the limit-based estimate call
    :func:`numeric_dir_derivative` explicitly.
    """
    return _dir_deriv_of(f)(as_point(x), as_point(z))


def _dir_deriv_of(f):
    dd = getattr(f, "dir_deriv", None)
    if dd is None:
        raise TypeError(f"{type(f).__name__} exposes no closed-form dir_deriv")
    return dd


def numeric_dir_derivative(value_fn, x, z, alphas=_NUMERIC_ALPHAS, rtol=1e-3) -> float:
    """One-sided limit (f(x + a z) - f(x)) / a for shrinking a.

    Uses Richardson extrapolation across the step ladder and rejects the
    result if the extrapolated estimates do not agree to ``rtol``.  Intended
    for cross-checking closed forms in tests, not for hot paths.
    """
    x = as_point(x)
    z = as_point(z)
    f0 = float(value_fn(x))
    if not math.isfinite(f0):
        raise ValueError("numeric directional derivative needs a finite base value")
    quotients = []
    for a in alphas:
        fa = float(value_fn(x + a * z))
        if not math.isfinite(fa):
            raise ValueError(f"f(x + {a} z) is not finite; cannot take the limit")
        quotients.append((fa - f0) / a)
    # one-sided quotients have error c1*a + O(a^2); with a ratio of 10 between
    # consecutive steps the linear term cancels in (10 q2 - q1) / 9
    extr = []
    for q_big, q_small in zip(quotients, quotients[1:]):
        extr.append((10.0 * q_small - q_big) / 9.0)
    spread = abs(extr[-1] - extr[0])
    if spread > rtol * (1.0 + abs(extr[-1])):
        raise ValueError(
            f"numeric directional derivative did not converge (spread {spread:.3e})")
    return extr[-1]


# -- Bregman divergence ----------------------------------------------------

def bregman(f, y, x) -> float:
    """Generalized Bregman divergence B_f(y, x).

    Returns +inf when f(y) = +inf or when f'(x; y-x) = -inf.  A +inf
    directional derivative with finite f(y) would make the divergence -inf,
    which no caller is allowed to store, so that case raises.
    """
    y = as_point(y)
    x = as_point(x)
    fx = float(f.value(x))
    if not math.isfinite(fx):
        raise ValueError("B_f(y, x) needs f(x) finite")
    fy = float(f.value(y))
    if fy == INF:
        return INF
    if math.isnan(fy):
        raise ValueError("f(y) is NaN")
    d = _dir_deriv_of(f)(x, y - x)
    if d == -INF:
        return INF
    if d == INF:
        raise ValueError("B_f(y, x) = -inf: f'(x; y-x) = +inf with f(y) finite")
    return fy - fx - d


def delta_term(f, x_t, x_star, g_t) -> float:
    """Linearization gap delta = <g, x*-x> - f'(x; x*-x).

    Non-positive whenever g is a local sub-gradient of f at x; with unbiased
    stochastic gradients it is only non-positive in conditional expectation.
    """
    x_t = as_point(x_t)
    x_star = as_point(x_star)
    g_t = as_point(g_t)
    d = _dir_deriv_of(f)(x_t, x_star - x_t)
    if not math.isfinite(d):
        raise ValueError("delta term needs a finite directional derivative")
    return dot(g_t, x_star - x_t) - d
