"""Vector helpers, quadratic metrics, and the shared divergence calculus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaopt.core import (
    DimensionMismatch, QuadMetric, SingularMetricError, as_point, bregman,
    delta_term, dir_derivative, dot, dual_norm_sq, numeric_dir_derivative,
    quad_norm_sq,
)
from adaopt import losses


def vec(draw_dim=3, lo=-10.0, hi=10.0):
    return st.lists(st.floats(min_value=lo, max_value=hi, allow_nan=False),
                    min_size=draw_dim, max_size=draw_dim).map(np.array)


def test_as_point_casts_to_float():
    x = as_point([1, 2])
    assert x.dtype == np.float64
    assert np.array_equal(x, [1.0, 2.0])


def test_as_point_rejects_matrices():
    with pytest.raises(ValueError):
        as_point(np.eye(2))


def test_dot_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dot(np.ones(2), np.ones(3))


# -- QuadMetric ----------------------------------------------------------------

def test_metric_norms_hand_values():
    # M = diag(4, 1), x = (2, 3): ||x||_M^2 = 4*4 + 9 = 25
    # g = (2, 3): ||g||_{M,*}^2 = 4/4 + 9/1 = 10
    m = QuadMetric.diagonal([4.0, 1.0])
    assert quad_norm_sq(m, [2.0, 3.0]) == pytest.approx(25.0, abs=1e-14)
    assert dual_norm_sq(m, [2.0, 3.0]) == pytest.approx(10.0, abs=1e-14)


def test_metric_add_mixes_kinds():
    m = QuadMetric.scaled(2.0).add(QuadMetric.diagonal([1.0, 3.0]))
    assert np.allclose(m.weights, [3.0, 5.0])
    full = m.add(QuadMetric.full([[1.0, 0.5], [0.5, 1.0]]))
    assert np.allclose(full.matrix, [[4.0, 0.5], [0.5, 6.0]])


def test_metric_eigs_full_matrix():
    # [[2, 1], [1, 2]] has eigenvalues 1 and 3
    m = QuadMetric.full([[2.0, 1.0], [1.0, 2.0]])
    assert np.linalg.eigvalsh(m.matrix) == pytest.approx([1.0, 3.0], abs=1e-12)


@st.composite
def near_psd_boundary(draw):
    """A symmetric matrix whose smallest eigenvalue lies near the clamp
    -1e-10 max(1, max |eigenvalue|), on it, or within rounding of it, in a
    random orthonormal basis or one close to the axes (where the largest
    diagonal entry is close to the largest eigenvalue)."""
    d = draw(st.integers(2, 12))
    top = 10.0 ** draw(st.integers(-3, 3))
    rest = draw(st.lists(st.floats(0.0, 1.0), min_size=d - 2, max_size=d - 2))
    ratio = draw(st.one_of(st.floats(0.25, 4.0), st.just(1.0),
                           st.floats(1.0 - 1e-5, 1.0 + 1e-5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spread = draw(st.sampled_from([1e-4, 1e4]))
    q, _ = np.linalg.qr(np.eye(d) + spread * rng.normal(size=(d, d)))
    evals = np.array([-ratio * 1e-10 * max(1.0, top), top] + [top * r for r in rest])
    a = (q * evals) @ q.T
    return 0.5 * (a + a.T)


@given(a=near_psd_boundary())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cholesky_psd_check_is_no_looser_than_the_eigenvalue_check(a):
    # psd_full shifts by a little under 1e-10 s, and its s, a largest
    # Rayleigh quotient, is at most full's max(1, max |eigenvalue|), so
    # whatever it accepts, full accepts too
    try:
        QuadMetric.psd_full(a)
    except ValueError:
        return
    QuadMetric.full(a)


def test_cholesky_psd_check_scales_with_a_near_rank_one_matrix():
    # an AdaGrad increment is nearly rank one with its weight spread over
    # the coordinates, so its diagonal lies far below its top eigenvalue;
    # rounding noise at the top eigenvalue's scale passes full, and must
    # pass here too
    d = 50
    v = np.ones(d) / np.sqrt(d)
    w = np.eye(d)[0] - v[0] * v
    w /= np.linalg.norm(w)
    a = 100.0 * np.outer(v, v) - 5e-10 * np.outer(w, w)
    a = 0.5 * (a + a.T)
    assert np.abs(a.diagonal()).max() < 3.0
    QuadMetric.full(a)
    QuadMetric.psd_full(a)


def _psd_full_scale(m):
    """psd_full's s, read off a formed matrix as psd_full reads it."""
    diag = np.abs(m.diagonal())
    j = int(diag.argmax())
    v = m[:, j]
    return max(1.0, diag[j], abs(v @ m @ v) / (v @ v))


def _eigen(evecs, c, floor):
    """The eigen metric floor I + evecs diag(c) evecs', pairs ascending."""
    order = np.argsort(c)
    d, k = evecs.shape
    return QuadMetric.eigen(np.concatenate((np.full(d - k, floor), floor + c[order])),
                            evecs[:, order])


def _psd_full_verdict(m):
    try:
        QuadMetric.psd_full(m)
    except ValueError as e:
        return str(e)
    return None


def test_factored_increment_check_is_no_looser_than_psd_full():
    # from two factored roots of one floor at d = 50, the increment's k x k
    # core C gets its least eigenvalue pushed to -(1 -+ 1e-3) 1e-10 s inside
    # the new root's span (s psd_full's, near 3 here, so the check's first
    # try at s = 1 fails and it reads s), or the old root's top eigenvector
    # is tilted off that span by sin(theta).  psd_difference proves an
    # increment PSD only where psd_full of the formed d x d increment
    # accepts it; where it proves nothing, psd_full decides, so every case
    # ends as psd_full ends it, with its message
    rng = np.random.default_rng(5)
    d, k, floor = 50, 20, 0.7
    v = np.linalg.qr(rng.normal(size=(d, k)))[0]
    q = np.linalg.qr(rng.normal(size=(k, k)))[0]
    a = rng.uniform(5.0, 6.0, k)
    new = _eigen(v, a, floor)

    def old_of(lam, tilt=0.0):
        # old = floor I + W diag(b) W' with W b W' = V (diag(a) - C) V'
        b, w = np.linalg.eigh(np.diag(a) - (q * lam) @ q.T)
        w = v @ w
        off = rng.normal(size=d)
        off -= v @ (v.T @ off)
        w[:, -1] = np.sqrt(1.0 - tilt ** 2) * w[:, -1] + tilt * off / np.linalg.norm(off)
        return _eigen(w, b, floor)

    def cases(lam, tilt=0.0):
        old = old_of(lam, tilt)
        proved = QuadMetric.psd_difference(new, old) is not None
        full = _psd_full_verdict(new.matrix - old.matrix)
        return proved, full

    lam = np.concatenate(([3.0], rng.uniform(0.01, 0.5, k - 2), [0.0]))
    s = _psd_full_scale(new.matrix - old_of(lam).matrix)
    assert 2.5 < s < 3.5
    for sign, accepted in ((-1.0, True), (1.0, False)):
        lam[-1] = -(1.0 + sign * 1e-3) * 1e-10 * s
        proved, full = cases(lam)
        assert proved == accepted and (full is None) == accepted, sign
    assert "not positive semidefinite" in full
    lam[-1] = 0.05
    for tilt, how in ((1e-12, "proved"), (1e-6, "psd_full accepts"),
                      (1e-3, "psd_full rejects")):
        proved, full = cases(lam, tilt)
        assert proved == (how == "proved"), tilt
        assert (full is None) == (how != "psd_full rejects"), tilt


def test_factored_increment_check_reads_how_far_v_is_from_orthonormal():
    # the check's V need not have orthonormal columns: a Gram root's
    # U = A'W / sqrt(s) is about eps max(s) / s off for a small s.  First
    # two columns with V'V = I + delta (e1 e2' + e2 e1') and the core
    # pushed to -(1 -+ 1e-3) c in the direction where A - V'V A V'V is
    # +2 delta: a check that took V as orthonormal proved both, and
    # psd_full of the formed increment rejects the second
    rng = np.random.default_rng(11)
    d, floor = 50, 0.7
    c = 1e-10 - 2 * d * np.finfo(float).eps
    q = np.linalg.qr(rng.normal(size=(d, 2)))[0]
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    a = np.ones(2)
    for delta in (1e-12, 3e-11):
        v = q @ np.linalg.cholesky(np.array([[1.0, delta], [delta, 1.0]])).T
        new = _eigen(v, a, floor)
        for sign, accepted in ((-1.0, True), (1.0, False)):
            core = (h * [0.5, -(1.0 + sign * 1e-3) * c]) @ h.T
            b, w = np.linalg.eigh(np.diag(a) - core)
            old = _eigen(v @ w, b, floor)
            proved = QuadMetric.psd_difference(new, old) is not None
            full = _psd_full_verdict(new.matrix - old.matrix)
            assert (full is None) == accepted, (delta, sign)
            assert not proved or accepted, (delta, sign)
    # and the Gram root of near-dependent rows b, b + eps r at d = 50, whose
    # U is far off orthonormal (1e-8 to 1e-3), proves nothing: psd_full decides
    for eps in (1e-6, 1e-5):
        rows = np.vstack([rng.normal(size=(3, d)), rng.normal(size=d)])
        rows = np.vstack([rows, rows[-1] + eps * rng.normal(size=d)])
        roots = []
        for t in (4, 5):
            s, w = np.linalg.eigh(rows[:t] @ rows[:t].T)
            u = rows[:t].T @ (w / np.sqrt(s))
            roots.append(_eigen(u, np.sqrt(floor ** 2 + s) - floor, floor))
        u = roots[1]._evecs
        assert np.abs(u.T @ u - np.eye(5)).max() > 1e-9
        assert QuadMetric.psd_difference(roots[1], roots[0]) is None
        assert _psd_full_verdict(roots[1].matrix - roots[0].matrix) is None


def test_cholesky_psd_check_rejects_an_indefinite_matrix():
    # a positive diagonal does not make a matrix PSD: eigenvalues 3 and -1
    with pytest.raises(ValueError, match="positive semidefinite"):
        QuadMetric.psd_full(np.array([[1.0, 2.0], [2.0, 1.0]]))
    m = QuadMetric.psd_full(np.diag([2.0, 0.0]))
    assert m.kind == "full" and m._evals is None


def test_metric_solve_roundtrip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    m = QuadMetric.full(a @ a.T + np.eye(4))
    x = rng.normal(size=4)
    assert np.allclose(m.solve(m.matvec(x)), x, atol=1e-10)


def test_metric_shift_identity():
    m = QuadMetric.diagonal([3.0, 5.0]).shift_identity(-1.0)
    assert np.allclose(m.weights, [2.0, 4.0])


def test_singular_metric_raises_on_dual_norm():
    m = QuadMetric.diagonal([1.0, 0.0])
    with pytest.raises(SingularMetricError):
        dual_norm_sq(m, [1.0, 1.0])


def test_zero_metric_norm():
    m = QuadMetric.zero()
    assert quad_norm_sq(m, [5.0, -2.0]) == 0.0


def test_fenchel_young_equality_case():
    # equality at g = M x: M = diag(2, 0.5), x = (1, 2) -> g = (2, 1),
    # <g, x> = 4 and both halves equal 2
    m = QuadMetric.diagonal([2.0, 0.5])
    x = np.array([1.0, 2.0])
    g = m.matvec(x)
    lhs = dot(g, x)
    assert lhs == pytest.approx(4.0, abs=1e-14)
    assert 0.5 * quad_norm_sq(m, x) + 0.5 * dual_norm_sq(m, g) == pytest.approx(
        lhs, abs=1e-12)


@given(x=vec(), g=vec(), w=st.lists(st.floats(min_value=0.1, max_value=50.0),
                                    min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_fenchel_young_inequality(x, g, w):
    m = QuadMetric.diagonal(np.array(w))
    gap = 0.5 * quad_norm_sq(m, x) + 0.5 * dual_norm_sq(m, g) - dot(g, x)
    assert gap >= -1e-9 * (1.0 + abs(gap))


# -- directional derivatives and divergences -----------------------------------

def test_dir_derivative_at_cusp():
    # |.| at 0 moving right has one-sided slope 1, moving left also 1
    f = losses.l1_loss(1.0, dim=1)
    assert dir_derivative(f, np.zeros(1), np.array([2.0])) == pytest.approx(
        2.0, abs=1e-12)
    assert dir_derivative(f, np.zeros(1), np.array([-2.0])) == pytest.approx(
        2.0, abs=1e-12)


def test_numeric_dir_derivative_matches_quadratic():
    f = losses.quadratic_loss(np.array([1.0, -1.0]), 2.0)
    x = np.array([0.5, 0.5])
    z = np.array([1.0, 2.0])
    exact = dot(f.grad(x), z)
    got = numeric_dir_derivative(f.value, x, z)
    assert got == pytest.approx(exact, rel=1e-6)


def test_bregman_quadratic_closed_form():
    # B_f(y, x) = (w/2)||y - x||^2 for f = (w/2)||. - c||^2, any center c
    f = losses.quadratic_loss(np.array([3.0, -2.0]), 1.5)
    y = np.array([1.0, 1.0])
    x = np.array([-1.0, 2.0])
    assert bregman(f, y, x) == pytest.approx(0.75 * 5.0, abs=1e-12)


def test_bregman_linear_is_zero():
    f = losses.linear_loss([2.0, -1.0])
    assert bregman(f, np.array([5.0, 5.0]), np.array([-3.0, 0.0])) == 0.0


def test_bregman_l1_hand_value():
    # f = |.|: B(-2, 1) = 2 - 1 - f'(1; -3) = 2 - 1 + 3 = 4
    f = losses.l1_loss(1.0, dim=1)
    assert bregman(f, np.array([-2.0]), np.array([1.0])) == pytest.approx(
        4.0, abs=1e-12)


@given(y=vec(lo=-5, hi=5), x=vec(lo=-5, hi=5),
       w=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_bregman_nonnegative_for_convex(y, x, w):
    f = losses.quadratic_loss(np.zeros(3), w)
    assert bregman(f, y, x) >= -1e-12


def test_delta_term_measures_gradient_error():
    # f = (1/2) x^2, x_t = 1, x* = 0, fed-back g = 0.5 (the true gradient
    # is 1): delta = 0.5 * (0 - 1) - f'(1; -1) = -0.5 + 1 = 0.5
    f = losses.quadratic_loss(np.zeros(1), 1.0)
    d = delta_term(f, np.array([1.0]), np.array([0.0]), np.array([0.5]))
    assert d == pytest.approx(0.5, abs=1e-14)


def test_delta_term_zero_for_exact_gradient():
    f = losses.quadratic_loss(np.array([2.0, 0.0]), 3.0)
    x = np.array([1.0, -1.0])
    assert delta_term(f, x, np.array([0.5, 0.5]), f.grad(x)) == pytest.approx(
        0.0, abs=1e-12)
