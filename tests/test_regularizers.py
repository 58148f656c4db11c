"""Regularizer algebra, proximal checks, and the adaptive schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaopt.core import INF, QuadMetric, bregman
from adaopt.regularizers import (
    L1, Difference, Indicatrix, Linear, ProximalConditionError, Quadratic,
    ScheduleState, Sum, Terms, Zero, adagrad_diag_step,
    adagrad_full_step, adagrad_initial_metric, affine_shift, check_proximal,
    composite_wrap, final_attack_eta, ftrl_prox_increment, optimistic_shift,
    proximal_eta_increment, scale_free_eta, validate_psi_sequence,
)
from adaopt import losses, regularizers, solvers


BOX = solvers.Box(-np.ones(2), np.ones(2))


def test_zero_is_zero_everywhere():
    z = Zero()
    x = np.array([3.0, -1.0])
    assert z.value(x) == 0.0
    assert z.bregman(x, -x) == 0.0
    assert z.is_zero()


def test_quadratic_hand_values():
    # (3/2)||x - (1,0)||^2_{diag(2,1)} at x = (2, 2): (3/2)(2*1 + 1*4) = 9
    q = Quadratic(np.array([1.0, 0.0]), QuadMetric.diagonal([2.0, 1.0]), 3.0)
    x = np.array([2.0, 2.0])
    assert q.value(x) == pytest.approx(9.0, abs=1e-12)
    assert np.allclose(q.grad(x), [6.0, 6.0])
    # Bregman of a quadratic ignores the center: (3/2)||y - x||^2_M
    y = np.array([0.0, 1.0])
    assert q.bregman(y, x) == pytest.approx(1.5 * (2 * 4 + 1 * 1), abs=1e-12)


def test_linear_has_no_curvature():
    lin = Linear(np.array([2.0, -1.0]), 3.0)
    x = np.array([1.0, 1.0])
    assert lin.value(x) == pytest.approx(4.0, abs=1e-14)
    assert lin.bregman(np.array([9.0, 9.0]), x) == 0.0


def test_l1_cusp_directional_derivative():
    # at x = (0, 1), direction (1, -1): coordinate 0 contributes +|1|,
    # coordinate 1 contributes sign(1) * (-1); total 0 at alpha = 2
    r = L1(2.0)
    assert r.dir_deriv(np.array([0.0, 1.0]), np.array([1.0, -1.0])) == \
        pytest.approx(0.0, abs=1e-14)
    assert r.grad(np.zeros(2)) == pytest.approx(0.0)


def test_l1_bregman_hand_value():
    r = L1(1.0)
    assert r.bregman(np.array([-2.0]), np.array([1.0])) == pytest.approx(
        4.0, abs=1e-12)


def test_indicatrix_blows_up_outside():
    ind = Indicatrix(BOX)
    assert ind.value(np.array([0.5, 0.5])) == 0.0
    assert ind.value(np.array([2.0, 0.0])) == INF
    assert ind.bregman(np.array([2.0, 0.0]), np.array([0.0, 0.0])) == INF


def test_sum_flattens_and_adds():
    q = Quadratic(np.zeros(2), QuadMetric.scaled(1.0), 1.0)
    s = Sum([q, Sum([L1(1.0), Linear(np.array([1.0, 0.0]))])])
    x = np.array([1.0, -1.0])
    assert s.value(x) == pytest.approx(q.value(x) + 2.0 + 1.0, abs=1e-12)
    assert np.allclose(s.grad(x), q.grad(x) + np.array([1.0, -1.0])
                       + np.array([1.0, 0.0]))


def test_difference_convention_inf_minus_inf():
    ind = Indicatrix(BOX)
    d = Difference(ind, ind)
    outside = np.array([5.0, 0.0])
    assert d.value(outside) == INF
    assert d.value(np.zeros(2)) == 0.0


def test_difference_finite_minus_inf_rejected():
    d = Difference(Zero(), Indicatrix(BOX))
    with pytest.raises(ValueError):
        d.value(np.array([5.0, 0.0]))


def test_difference_of_quadratics_keeps_curvature_gap():
    big = Quadratic(np.zeros(2), QuadMetric.scaled(2.0), 1.0)
    small = Quadratic(np.zeros(2), QuadMetric.scaled(1.0), 1.0)
    d = Difference(big, small)
    x = np.array([1.0, 2.0])
    assert d.value(x) == pytest.approx(0.5 * 5.0, abs=1e-12)
    assert np.allclose(d.grad(x), x)


@given(y=st.lists(st.floats(-5, 5), min_size=2, max_size=2).map(np.array),
       x=st.lists(st.floats(-5, 5), min_size=2, max_size=2).map(np.array),
       v=st.lists(st.floats(-5, 5), min_size=2, max_size=2).map(np.array),
       w=st.floats(-3, 3))
@settings(max_examples=200, deadline=None)
def test_bregman_is_affine_invariant(y, x, v, w):
    f = Quadratic(np.array([0.5, -0.5]), QuadMetric.diagonal([2.0, 0.7]), 1.0)
    shifted = affine_shift(f, v, w)
    assert bregman(shifted, y, x) == pytest.approx(bregman(f, y, x),
                                                   abs=1e-9, rel=1e-9)


# -- proximal condition ---------------------------------------------------------

def test_check_proximal_accepts_centered_quadratic():
    x_t = np.array([0.3, -0.2])
    check_proximal(Quadratic(x_t, QuadMetric.scaled(2.0), 1.0), x_t, BOX)
    check_proximal(Zero(), x_t, BOX)


def test_check_proximal_rejects_offcenter_minimum():
    x_t = np.array([0.3, -0.2])
    wrong = Quadratic(np.array([-0.9, 0.9]), QuadMetric.scaled(1.0), 1.0)
    with pytest.raises(ProximalConditionError):
        check_proximal(wrong, x_t, BOX, rng=np.random.default_rng(0))


def test_check_proximal_reads_an_emitted_term_by_its_structure():
    x_t = np.array([0.3, -0.2])
    metric = QuadMetric.scaled(2.0, 2)
    check_proximal(Terms(metric, center=x_t), x_t, BOX)
    check_proximal(Terms(metric, center=x_t.copy()), x_t, BOX)
    check_proximal(Terms(QuadMetric.zero(2), center=np.zeros(2)), x_t, BOX)
    # a non-zero quadratic centred elsewhere, or any l1, linear or loss part
    for bad in (Terms(metric, center=np.zeros(2)),
                Terms(metric, 0.1, center=x_t),
                Terms(metric, center=x_t, shift=np.ones(2)),
                Terms(metric, center=x_t, loss=True)):
        with pytest.raises(ProximalConditionError):
            check_proximal(bad, x_t, BOX)


def test_check_proximal_rejects_linear():
    with pytest.raises(ProximalConditionError):
        check_proximal(Linear(np.array([1.0, 0.0])), np.zeros(2), BOX,
                       rng=np.random.default_rng(0))


def test_check_proximal_rejects_negative_scale():
    x_t = np.zeros(2)
    # a negative-scale centred quadratic as p_t is rejected outright
    with pytest.raises(ProximalConditionError):
        check_proximal(Quadratic(x_t, QuadMetric.scaled(1.0), -1.0), x_t, BOX,
                       rng=np.random.default_rng(0))


# -- adaptive schedules ----------------------------------------------------------

def test_adagrad_diag_increments_hand_values():
    # gamma0 = 9, eta = 2.  Roots of the accumulated squares:
    #   start (3, 3); after g = (4, 0): (5, 3); after g = (0, 4): (5, 5).
    # Increments divided by eta: (1, 0) then (0, 1).
    state = ScheduleState()
    m1, state = adagrad_diag_step(state, np.array([4.0, 0.0]), eta=2.0, gamma0=9.0)
    assert np.allclose(m1.weights, [1.0, 0.0])
    m2, state = adagrad_diag_step(state, np.array([0.0, 4.0]), eta=2.0, gamma0=9.0)
    assert np.allclose(m2.weights, [0.0, 1.0])
    total = adagrad_initial_metric(2, 2.0, 9.0).add(m1).add(m2)
    assert np.allclose(total.weights, [2.5, 2.5])


def test_adagrad_diag_rejects_bad_eta():
    with pytest.raises(ValueError):
        adagrad_diag_step(ScheduleState(), np.ones(2), eta=0.0, gamma0=1.0)


def test_adagrad_full_matches_diag_in_one_dim():
    sd, sf = ScheduleState(), ScheduleState()
    for g in ([2.0], [-1.0], [0.5]):
        md, sd = adagrad_diag_step(sd, np.array(g), eta=1.5, gamma0=0.25)
        mf, sf = adagrad_full_step(sf, np.array(g), eta=1.5, gamma0=0.25)
        assert mf.matrix[0, 0] == pytest.approx(md.weights[0], abs=1e-12)


def test_adagrad_full_increments_sum_to_root():
    rng = np.random.default_rng(7)
    state = ScheduleState()
    total = np.zeros((3, 3))
    gram = 0.5 * np.eye(3)
    for _ in range(6):
        g = rng.normal(size=3)
        m, state = adagrad_full_step(state, g, eta=1.0, gamma0=0.5)
        total += m.matrix
        gram += np.outer(g, g)
    evals, evecs = np.linalg.eigh(gram)
    root = (evecs * np.sqrt(evals)) @ evecs.T
    assert np.allclose(total, root - np.sqrt(0.5) * np.eye(3), atol=1e-9)


_EPS = np.finfo(float).eps


def _gram_stream(kind, d, T):
    rng = np.random.default_rng(11)
    if kind == "random":
        return rng.uniform(-1.0, 1.0, (T, d))
    # +-b, so every Gram of two or more rows is singular
    stream = losses.alternating_stream(rng.uniform(-1.0, 1.0, d))
    return np.array([stream.vector(t) for t in range(1, T + 1)])


@pytest.mark.parametrize("kind,gamma0,d", [
    ("random", 1.0, 8), ("alternating", 1.0, 8), ("random", 1e-8, 8),
    ("alternating", 1e-8, 8), ("random", 1.0, 32), ("random", 1e-8, 32)])
def test_full_matrix_gram_root_matches_the_accumulators_eigh(
        kind, gamma0, d, monkeypatch):
    # the Gram serves rounds t < 5d/6 (t <= 6 of d = 8, with the dimension
    # floor lifted, and t <= 26 of d = 32), the eigh of G_t every later
    # round, as it did every round before.  Each Gram round's root,
    # eigenvalues and inverse H (the box argmin's) agree with those of the
    # eigh of the accumulator to 1e-12 relative, or, where larger, to
    # 64 eps kappa (eps kappa^2 for H), the eigh's own error for the root's
    # condition number kappa (up to 1e5 at gamma0 = 1e-8); every later root
    # is the eigh's bit for bit, across t = d too.  A Gram round's metric
    # carries the top k <= t eigenvectors; the alternating stream's repeated
    # rows join the floor: k = 1, and the root is the closed form
    # sqrt(gamma0) I + (sqrt(gamma0 + t ||b||^2) - sqrt(gamma0)) bb' / ||b||^2.
    # The alternating run of d = 8 at gamma0 = 1e-8 stops at T = 16: from
    # round 25 the eigh's rounding in the floor, about
    # eps ||G_t|| / sqrt(gamma0), makes an increment fail its PSD check, in
    # rounds the Gram does not serve.  A Gram round keeps no accumulator:
    # the reference G_t is the rows' outer products summed in round order
    if d < regularizers.GRAM_MIN_DIM:
        monkeypatch.setattr(regularizers, "GRAM_MIN_DIM", 0)
    eta = 1.5
    T = 16 if (kind, gamma0, d) == ("alternating", 1e-8, 8) else d + 8
    G = _gram_stream(kind, d, T)
    state, accum = ScheduleState(), gamma0 * np.eye(d)
    for t in range(1, T + 1):
        _, state = adagrad_full_step(state, G[t - 1], eta, gamma0)
        m = state.total
        accum = accum + np.outer(G[t - 1], G[t - 1])
        evals, evecs = np.linalg.eigh(accum)
        lam = np.sqrt(np.maximum(evals, 0.0))
        root = (evecs * lam) @ evecs.T
        root = 0.5 * (root + root.T)
        k = m._evecs.shape[1]
        if t > regularizers.gram_rounds(d):
            assert k == d and state.rows is None, t
            assert np.array_equal(m.matrix, root / eta), t
            assert np.array_equal(m._evals, lam / eta), t
            continue
        assert state.rows.shape == (t, d) and state.gram.shape == (t, t), t
        assert k == (t if kind == "random" else 1), t
        kappa = lam[-1] / lam[0]
        tol = max(1e-12, 64 * _EPS * kappa)
        assert np.abs(m.matrix - root / eta).max() <= tol * lam[-1] / eta, t
        assert np.abs(m._evals - lam / eta).max() <= tol * lam[-1] / eta, t
        obj = solvers.Objective(solvers.Box(-np.ones(d), np.ones(d)), lin=np.zeros(d))
        obj.take_quadratic(m)
        h, ref = solvers._inverse(obj), np.linalg.inv(root / eta)
        tol_h = max(1e-12, 64 * _EPS * kappa ** 2)
        assert np.abs(h - ref).max() <= tol_h * np.abs(ref).max(), t
        if kind == "alternating":
            b = G[0] / np.linalg.norm(G[0])
            top = math.sqrt(gamma0 + t * G[0].dot(G[0]))
            exact = (math.sqrt(gamma0) * np.eye(d)
                     + (top - math.sqrt(gamma0)) * np.outer(b, b)) / eta
            assert np.abs(m.matrix - exact).max() <= 1e-12 * top / eta, t


@pytest.mark.parametrize("a,b", [(0.01, 1e5), (0.1, 1e7)])
def test_the_gram_hands_a_pair_it_cannot_resolve_to_the_eigh(a, b):
    # g = a e1, b e2, a e3, b e2, a e1: round 2's Gram eigenvalue a^2 is
    # below GRAM_FLOOR b^2, but the pair is real, ||A'w||^2 = a^2, not a
    # null direction of A.  Dropping it would shrink the root round 1 grew
    # by about a^2 / 2, more than the PSD check forgives.  So round 2 and
    # every later round take the eigh of the accumulator, exact on this
    # diagonal one, and the run has its roots bit for bit.  (Off the axes,
    # the eigh's own rounding, about eps b^2, fails the check by round 3.)
    # Round 1 keeps no accumulator: the reference sums the rows
    d = 32
    G = np.zeros((5, d))
    G[[0, 1, 2, 3, 4], [0, 1, 2, 1, 0]] = a, b, a, b, a
    state, accum = ScheduleState(), np.eye(d)
    for t, g in enumerate(G, 1):
        _, state = adagrad_full_step(state, g, 1.5, 1.0)
        accum = accum + np.outer(g, g)
        evals, evecs = np.linalg.eigh(accum)
        lam = np.sqrt(np.maximum(evals, 0.0))
        root = (evecs * lam) @ evecs.T
        root = 0.5 * (root + root.T) / 1.5
        assert (state.rows is None) == (t > 1), t
        if t == 1:
            assert np.abs(state.total.matrix - root).max() <= 1e-12 * root.max()
        else:
            assert np.array_equal(state.total.matrix, root), t


def test_the_gram_serves_no_round_below_its_dimension_floor():
    # below GRAM_MIN_DIM the d x d eigh is cheaper than the Gram's route, so
    # every round takes it and carries all d eigenvectors
    d = regularizers.GRAM_MIN_DIM - 1
    state = ScheduleState()
    for g in np.random.default_rng(3).uniform(-1.0, 1.0, (3, d)):
        _, state = adagrad_full_step(state, g, 1.0, 1.0)
        assert state.rows is None and state.total._evecs.shape == (d, d)


def test_adagrad_full_rejects_an_indefinite_increment():
    # the root is operator monotone, so a real increment is PSD; a state
    # whose last root has outgrown the next one gives an indefinite
    # increment, and its Cholesky check stops the round
    state = ScheduleState()
    _, state = adagrad_full_step(state, np.array([1.0, 0.5]), eta=1.0, gamma0=1.0)
    state._prev_root = state._prev_root + np.diag([0.0, 5.0])
    with pytest.raises(ValueError, match="positive semidefinite"):
        adagrad_full_step(state, np.array([0.2, 0.1]), eta=1.0, gamma0=1.0)


def test_a_gram_round_hands_an_unproven_increment_to_psd_full():
    # a round the Gram serves checks its increment on the k x k core; where
    # that proves nothing, as for a state whose last root has outgrown the
    # next one, the round takes the d x d route, whose psd_full rejects the
    # indefinite increment with its message and writes no state
    d = regularizers.GRAM_MIN_DIM
    rng = np.random.default_rng(2)
    state = ScheduleState()
    _, state = adagrad_full_step(state, rng.uniform(-1.0, 1.0, d), 1.0, 1.0)
    for name in ("_prev_root", "total"):
        m = getattr(state, name)
        setattr(state, name, QuadMetric.eigen(m._evals * np.r_[np.ones(d - 1), 5.0],
                                              m._evecs))
    before = [state.accum_sq, state._prev_root, state.total, state.rows, state.gram]
    with pytest.raises(ValueError, match="positive semidefinite"):
        adagrad_full_step(state, rng.uniform(-1.0, 1.0, d), 1.0, 1.0)
    assert all(a is b for a, b in zip(
        before, [state.accum_sq, state._prev_root, state.total, state.rows, state.gram]))


def test_ftrl_prox_increment_is_proximal():
    x_t = np.array([0.4, 0.1])
    p = ftrl_prox_increment(x_t, QuadMetric.diagonal([0.3, 0.9]))
    check_proximal(p, x_t, BOX)
    assert p.value(x_t) == 0.0


def test_optimistic_shift_telescopes():
    q = Quadratic(np.zeros(2), QuadMetric.scaled(1.0), 1.0)
    shifted = optimistic_shift(q, np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    x = np.array([1.0, 1.0])
    assert shifted.value(x) == pytest.approx(q.value(x) + (-1.0 + 2.0), abs=1e-14)
    same = optimistic_shift(q, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert same is q


def test_scale_free_eta_is_homogeneous():
    a, b = ScheduleState(), ScheduleState()
    g = np.array([0.3, -0.7])
    h = np.array([0.1, 0.1])
    e1 = scale_free_eta(a, g, h, eta0=2.0)
    e2 = scale_free_eta(b, 100.0 * g, 100.0 * h, eta0=2.0)
    assert e2 == pytest.approx(100.0 * e1, rel=1e-12)
    # accumulates across rounds
    e1b = scale_free_eta(a, g, h, eta0=2.0)
    assert e1b == pytest.approx(2.0 * math.sqrt(2.0 * float(np.dot(g - h, g - h))),
                                rel=1e-12)


def test_final_attack_eta_floor_and_errors():
    state = ScheduleState()
    # perfect hint: only the floor 4 R L^2 remains
    eta = final_attack_eta(state, np.ones(2), np.ones(2), radius=2.0, smooth_l=3.0)
    assert eta == pytest.approx(4.0 * 2.0 * 9.0, abs=1e-12)
    with pytest.raises(ValueError):
        final_attack_eta(ScheduleState(), np.ones(2), np.zeros(2),
                         radius=math.inf, smooth_l=1.0)
    with pytest.raises(ValueError):
        final_attack_eta(ScheduleState(), np.ones(2), np.zeros(2),
                         radius=1.0, smooth_l=-1.0)


def test_proximal_eta_increment_schedule_rules():
    x_t = np.array([0.5, 0.5])
    p = proximal_eta_increment(x_t, 3.0, 1.0)
    assert isinstance(p, Quadratic)
    assert p.value(np.array([1.5, 0.5])) == pytest.approx(1.0, abs=1e-12)
    assert proximal_eta_increment(x_t, 2.0, 2.0).is_zero()
    with pytest.raises(ValueError):
        proximal_eta_increment(x_t, 1.0, 3.0)


def test_composite_wrap_settings():
    q = Quadratic(np.zeros(2), QuadMetric.scaled(1.0), 1.0)
    psi = L1(0.5)
    x = np.array([1.0, -1.0])
    wrapped = composite_wrap(q, psi)
    assert wrapped.value(x) == pytest.approx(q.value(x) + 1.0, abs=1e-14)
    assert composite_wrap(q, None) is q
    assert composite_wrap(q, Zero()) is q


def test_validate_psi_sequence():
    x1 = np.zeros(2)
    probes = [np.array([0.5, 0.5]), np.array([-1.0, 1.0])]
    validate_psi_sequence([Zero(), Zero()], x1, probes)
    # psi_1(x_1) must vanish
    with pytest.raises(ValueError):
        validate_psi_sequence([Linear(np.zeros(2), 1.0)], x1, probes)
    # the sequence must not increase on any probe
    with pytest.raises(ValueError):
        validate_psi_sequence([L1(0.1), L1(0.2)], x1, probes)
    validate_psi_sequence([L1(0.2), L1(0.1)], x1, probes)
