"""Feasible sets, closed-form argmins, and the certified numeric fallback."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaopt.core import QuadMetric
from adaopt.regularizers import L1, Linear, Quadratic, Sum
from adaopt.solvers import (
    Ball, Box, IllPosedError, NumericArgminError, Objective, Simplex,
    Unconstrained, argmin_l1_composite, argmin_numeric, argmin_quadratic,
    linear_argmin, minimize, simplex_project,
)
from adaopt import losses, solvers, suites


def pts(dim, lo=-3.0, hi=3.0):
    return st.lists(st.floats(min_value=lo, max_value=hi, allow_nan=False),
                    min_size=dim, max_size=dim).map(np.array)


# -- feasible sets --------------------------------------------------------------

def test_ball_projection_hand_value():
    b = Ball(np.zeros(2), 1.0)
    assert np.allclose(b.project(np.array([3.0, 0.0])), [1.0, 0.0])
    assert np.allclose(b.project(np.array([0.3, 0.0])), [0.3, 0.0])


def test_box_projection_clips():
    b = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert np.allclose(b.project(np.array([5.0, -5.0])), [1.0, 0.0])
    assert np.allclose(b.center(), [0.0, 1.0])


def test_simplex_project_hand_value():
    # v = (-0.5, 0.5): support is the second coordinate only, theta = -0.5
    assert np.allclose(simplex_project(np.array([-0.5, 0.5]), 1.0), [0.0, 1.0])


def test_simplex_project_matches_grid():
    rng = np.random.default_rng(4)
    h = 0.005
    grid = []
    for a in np.arange(0.0, 1.0 + h / 2, h):
        for b in np.arange(0.0, 1.0 - a + h / 2, h):
            grid.append((a, b, 1.0 - a - b))
    grid = np.array(grid)
    for _ in range(20):
        v = rng.uniform(-2, 2, 3)
        p = simplex_project(v, 1.0)
        d_grid = np.min(np.sum((grid - v) ** 2, axis=1))
        d_proj = float(np.sum((p - v) ** 2))
        # the projector cannot lose to any grid point, and the best grid
        # point is within one mesh step of it
        assert d_proj <= d_grid + 1e-12
        assert np.sqrt(d_grid) <= np.sqrt(d_proj) + h * np.sqrt(3.0)


def test_simplex_project_past_2_53_projects_the_shifted_input():
    # u_1 - (u_1 - scale) / 1 rounds to 0 once the input spans more than
    # 2**53, so no k meets the water-filling condition in floats (it raised
    # "zero-size array" here); the same input less its largest entry has
    # the same projection, and there k = 1 meets it
    assert np.array_equal(simplex_project(np.array([1e20, 0.0, -1e20])),
                          [1.0, 0.0, 0.0])
    assert np.array_equal(simplex_project(np.array([1e20, 1e20, 0.0]), 2.0),
                          [1.0, 1.0, 0.0])
    # an isotropic argmin there is certified on that point
    obj = Objective(Simplex(3), lin=np.array([-1e20, 0.0, 1e20]), gamma=1.0)
    assert np.array_equal(minimize(obj), [1.0, 0.0, 0.0])


def test_a_diagonal_simplex_argmin_past_2_53_fails_as_a_typed_error():
    # adagrad-md at gamma0 = 0 on a 3-simplex: round 3's numeric argmin
    # projects iterates that span more than 2**53 and reaches no
    # certificate; the error names its round and layer
    from adaopt.learners import Driver, run_rounds
    G = np.array([[-4.2e10, -2.4e-148, 2.9e-155], [0.0, 7.3e-140, 5.9e106],
                  [0.0, -8.9e47, -8.9e115]])
    seq = losses.LinearStream(lambda t: G[t - 1], 3, "scripted")
    driver = Driver("adagrad-md", Simplex(3), {"gamma0": 0.0, "eta": 1.0})
    with np.errstate(all="ignore"), pytest.raises(NumericArgminError) as info:
        run_rounds(driver, seq, 3)
    assert (info.value.round, info.value.layer) == (3, "step")
    assert driver.t == 2


@given(y=pts(3), z=pts(3))
@settings(max_examples=150, deadline=None)
def test_projections_idempotent_and_nonexpansive(y, z):
    for fs in (Box(-np.ones(3), np.ones(3)),
               Ball(np.array([0.5, 0.0, 0.0]), 1.2),
               Simplex(3, 1.0)):
        py, pz = fs.project(y), fs.project(z)
        assert np.allclose(fs.project(py), py, atol=1e-10)
        assert np.linalg.norm(py - pz) <= np.linalg.norm(y - z) + 1e-10


def test_set_membership_and_sampling():
    rng = np.random.default_rng(0)
    for fs in (Box(-np.ones(2), np.ones(2)), Ball(np.ones(2), 0.5),
               Simplex(4, 2.0)):
        for _ in range(25):
            assert fs.contains(fs.sample(rng))


def test_linear_argmin_hand_values():
    box = Box(np.array([-1.0, -1.0]), np.array([2.0, 3.0]))
    assert np.allclose(linear_argmin(box, np.array([1.0, -2.0])), [-1.0, 3.0])
    ball = Ball(np.array([1.0, 0.0]), 2.0)
    assert np.allclose(linear_argmin(ball, np.array([0.0, 3.0])), [1.0, -2.0])
    assert np.allclose(linear_argmin(ball, np.zeros(2)), [1.0, 0.0])
    simplex = Simplex(3, 2.0)
    assert np.allclose(linear_argmin(simplex, np.array([0.5, -1.0, 3.0])),
                       [0.0, 2.0, 0.0])
    with pytest.raises(IllPosedError):
        linear_argmin(Unconstrained(2), np.array([1.0, 0.0]))


# -- quadratic argmin -------------------------------------------------------------

def test_argmin_isotropic_on_ball():
    # min <(2,0), x> + 1/2 ||x||^2 over the unit ball: free point (-2, 0),
    # projected to (-1, 0); exactness of project-the-free-point needs the
    # isotropic metric
    obj = Objective.build(Ball(np.zeros(2), 1.0), linear=np.array([2.0, 0.0]),
                          regularizer=Quadratic(np.zeros(2), QuadMetric.scaled(1.0), 1.0))
    assert np.allclose(argmin_quadratic(obj), [-1.0, 0.0], atol=1e-12)


def test_argmin_diagonal_on_box_is_separable():
    # free minimizer (-1, 2) under diag(1, 2) with lin (1, -4); the box
    # clips each coordinate independently
    obj = Objective.build(Box(-np.ones(2), np.ones(2)), linear=np.array([1.0, -4.0]),
                          regularizer=Quadratic(np.zeros(2), QuadMetric.diagonal([1.0, 2.0]), 1.0))
    assert np.allclose(argmin_quadratic(obj), [-1.0, 1.0], atol=1e-12)


def test_argmin_full_metric_unconstrained():
    # x* = -M^{-1} g with M = [[2,1],[1,2]], g = (1, 0): (-2/3, 1/3)
    m = QuadMetric.full([[2.0, 1.0], [1.0, 2.0]])
    obj = Objective.build(Unconstrained(2), linear=np.array([1.0, 0.0]),
                          regularizer=Quadratic(np.zeros(2), m, 1.0))
    assert np.allclose(argmin_quadratic(obj), [-2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_argmin_bregman_anchor():
    # min <g, x> + B_q(x, x0) for q = 1/2 ||.||^2_diag(2,1) centered anywhere;
    # solution x0 - M^{-1} g = (1,1) - (1, -1) = (0, 2)
    q = Quadratic(np.array([9.0, -9.0]), QuadMetric.diagonal([2.0, 1.0]), 1.0)
    obj = Objective.build(Unconstrained(2), linear=np.array([2.0, -1.0]))
    obj.add_bregman_anchor(q, np.array([1.0, 1.0]))
    assert np.allclose(argmin_quadratic(obj), [0.0, 2.0], atol=1e-12)


def _full_box_objective(rng, d):
    """A random positive-definite full metric on a box, with lin large enough
    that the minimizer has coordinates at both bounds and free ones."""
    a = rng.normal(size=(d, d))
    obj = Objective.build(Box(-np.ones(d), np.ones(d)), linear=3.0 * rng.normal(size=d))
    obj.full = a @ a.T / d + 0.2 * np.eye(d)
    return obj


def test_full_box_route_ignores_a_wrong_warm_start():
    rng = np.random.default_rng(5)
    for _ in range(20):
        obj = _full_box_objective(rng, 8)
        x = argmin_quadratic(obj)
        lo, hi = obj.feasible_set.lo, obj.feasible_set.hi
        opposite = np.where(x == lo, hi, lo)
        for init in (x, obj.feasible_set.center(), opposite):
            obj.init = init
            assert np.allclose(argmin_quadratic(obj), x, rtol=0.0, atol=1e-12)
    # the draws put coordinates at both bounds and strictly inside
    assert np.any(x == lo) and np.any(x == hi) and np.any((x > lo) & (x < hi))


def test_full_box_route_in_one_dim_matches_clipping():
    box = Box(-np.ones(1), np.ones(1))
    for lin, w in ((0.3, 2.0), (-5.0, 0.7), (4.0, 1e-3), (0.0, 3.0)):
        full = Objective.build(box, linear=np.array([lin]))
        full.full = np.array([[w]])
        diag = Objective.build(box, linear=np.array([lin]))
        diag.diag = np.array([w])
        assert np.allclose(argmin_quadratic(full), argmin_quadratic(diag),
                           rtol=0.0, atol=1e-15)


def test_full_box_route_rejects_a_singular_metric():
    v = np.array([1.0, 2.0])
    obj = Objective.build(Box(-np.ones(2), np.ones(2)), linear=np.array([1.0, -1.0]))
    obj.full = np.outer(v, v)
    with pytest.raises(IllPosedError):
        argmin_quadratic(obj)


def test_full_box_route_is_exact_and_never_numeric(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("the numeric route was called")

    monkeypatch.setattr(solvers, "argmin_numeric", refuse)
    rng = np.random.default_rng(9)
    obj = _full_box_objective(rng, 6)
    lo = obj.feasible_set.lo
    obj.feasible_set.hi[2] = lo[2]          # a coordinate with lo == hi
    hi = obj.feasible_set.hi
    x = minimize(obj)
    g = obj.smooth_grad(x)
    free = (x > lo) & (x < hi)
    assert x[2] == lo[2]
    assert np.max(np.abs(g[free]), initial=0.0) <= 1e-12
    # KKT signs on the bounds; lo == hi leaves the sign free
    assert np.all(g[(x == lo) & (lo < hi)] >= -1e-12)
    assert np.all(g[(x == hi) & (lo < hi)] <= 1e-12)


def test_full_box_route_reads_carried_eigenpairs_as_it_reads_the_matrix():
    # the solver suite's draws: conditioning up to 1e6, coordinates with
    # lo == hi, and warm starts that are right, wrong or absent.  The same
    # objective gives the same minimizer whether the argmin inverts its
    # matrix or reads the eigenpairs that take_quadratic carries, also once
    # a scaled-identity fold, which leaves the full part alone, shifts them
    rng = np.random.default_rng(15)
    for n in range(300):
        plain, _, _ = suites._full_box_instance(rng)
        metric = QuadMetric.full(plain.full)
        plain.full = metric.matrix
        carried = Objective.build(plain.feasible_set, linear=plain.lin)
        carried.take_quadratic(metric)
        carried.init = plain.init
        if n % 3 == 0:
            for obj in (plain, carried):
                obj.add_quadratic(np.zeros(plain.lin.size), QuadMetric.scaled(0.5), 1.0)
        assert carried.full_evecs is not None and plain.full_evecs is None
        x = argmin_quadratic(carried)
        assert np.allclose(x, argmin_quadratic(plain), rtol=0.0, atol=1e-9)
        lo, hi = plain.feasible_set.lo, plain.feasible_set.hi
        g = carried.smooth_grad(x)
        tol = 1e-8 * (1.0 + np.linalg.norm(carried.lin) + carried.quad_curvature()[1])
        assert np.max(np.abs(g[(x > lo) & (x < hi)]), initial=0.0) <= tol
        assert np.all(g[(x == lo) & (lo < hi)] >= -tol)
        assert np.all(g[(x == hi) & (lo < hi)] <= tol)
    # a fold that changes the full part drops both carried arrays
    d = carried.lin.size
    carried.add_quadratic(np.zeros(d), QuadMetric.full(np.eye(d)), 1.0)
    assert carried.full_evals is None and carried.full_evecs is None


def _one_bound_a_step(obj, scale):
    """The box route's minimizer by the primal active-set method alone
    (Nocedal & Wright, Alg. 16.3), the reference for its primal-dual
    passes: from the clipped warm start, each step moves towards the working
    set's minimizer until the first bounds block it, or, at that minimizer,
    releases the one most wrong multiplier."""
    lo, hi = obj.feasible_set.lo, obj.feasible_set.hi
    h = solvers._inverse(obj)
    u = h @ obj.lin
    x = (obj.init if obj.init is not None else -u).clip(lo, hi)
    at_lo, at_hi = x == lo, x == hi
    guard = 20 * x.size + 20
    for _ in range(guard):
        fixed = np.flatnonzero(at_lo | at_hi)
        if fixed.size == x.size:
            target, mu = x, obj.smooth_grad(x)
        elif fixed.size:
            cols = h.take(fixed, 1)
            mu = np.linalg.solve(cols.take(fixed, 0), x[fixed] + u[fixed])
            target = cols @ mu - u
            target[fixed] = x[fixed]
        else:
            target, mu = -u, np.zeros(0)
        below, above = target < lo, target > hi
        out = np.flatnonzero(below | above)
        if out.size:
            bound = np.where(below[out], lo[out], hi[out])
            frac = (bound - x[out]) / (target[out] - x[out])
            alpha = float(frac.min())
            x = (x + alpha * (target - x)).clip(lo, hi)
            hit = out[frac == alpha]
            x[hit] = bound[frac == alpha]
            at_lo[hit], at_hi[hit] = below[hit], above[hit]
            continue
        x = target
        w_lo = at_lo[fixed]
        wrong = np.where(w_lo ^ at_hi[fixed], np.where(w_lo, -mu, mu), 0.0)
        if not wrong.max(initial=0.0) > 1e-12 * scale:
            return x
        j = fixed[int(np.argmax(wrong))]
        at_lo[j] = at_hi[j] = False
    raise AssertionError("the reference did not settle")


def _box_scale(obj):
    """The scale argmin_quadratic hands the box route."""
    return 1.0 + np.linalg.norm(obj.lin) + obj.quad_curvature()[1]


def _full_matrix_run(d=50, T=40, seed=0):
    from adaopt.learners import Driver, run_rounds
    drv = Driver("adagrad-da", Box(-np.ones(d), np.ones(d)), {"metric": "full"})
    return run_rounds(drv, losses.random_stream(d, seed), T)


def test_full_box_route_returns_the_reference_point_on_a_full_matrix_run(monkeypatch):
    # on a full-matrix AdaGrad run each round's warm start is the previous
    # iterate; where the primal-dual passes end on the working set the
    # reference ends on, the point is the same formula: bit for bit
    seen = []

    def both(obj, scale, _real=solvers._full_box_argmin):
        ref = _one_bound_a_step(obj, scale)
        x = _real(obj, scale)
        seen.append((np.array_equal(x, ref), int(np.sum(np.abs(x) == 1.0))))
        return x

    monkeypatch.setattr(solvers, "_full_box_argmin", both)
    _full_matrix_run()
    assert len(seen) == 40 and all(same for same, _ in seen)
    # the iterates sit at bounds, so the working sets are not empty
    assert sum(on_bound for _, on_bound in seen) > 40


def test_full_box_route_agrees_with_the_reference_on_the_suites_draws():
    # the solver suite's draws: conditioning up to 1e6, coordinates with
    # lo == hi, multipliers exactly zero on a third of the bound coordinates
    # and warm starts that are right, wrong or absent.  Such a zero
    # multiplier makes two working sets optimal, whose points differ by the
    # rounding of different systems, below 1e-13 cond here (2e-15 cond
    # measured); on the draws with one optimal working set the points are
    # the same bits (1879 of the 2000 draws)
    rng = np.random.default_rng(15)
    same = 0
    for _ in range(2000):
        obj, x_star, cond = suites._full_box_instance(rng)
        x = argmin_quadratic(obj)
        ref = _one_bound_a_step(obj, _box_scale(obj))
        assert np.max(np.abs(x - ref)) <= 1e-12 + 1e-13 * cond
        same += np.array_equal(x, ref)
        assert np.allclose(x, x_star, rtol=0.0, atol=1e-9)
        lo, hi = obj.feasible_set.lo, obj.feasible_set.hi
        g = obj.smooth_grad(x)
        tol = 1e-8 * _box_scale(obj)
        assert np.max(np.abs(g[(x > lo) & (x < hi)]), initial=0.0) <= tol
        assert np.all(g[(x == lo) & (lo < hi)] >= -tol)
        assert np.all(g[(x == hi) & (lo < hi)] <= tol)
    assert same >= 1800


def test_full_box_route_hands_a_cycling_instance_to_the_primal_rule(monkeypatch):
    # draw 1991 of the suite's generator at seed 15 (d = 5, cond 5e5): its
    # primal-dual steps cycle.  After 8 of them the primal rule settles it,
    # certified, at the reference's point
    rng = np.random.default_rng(15)
    for _ in range(1992):
        obj, x_star, cond = suites._full_box_instance(rng)
    scale = _box_scale(obj)
    with monkeypatch.context() as m:
        m.setattr(solvers, "_WHOLESALE_PASSES", 10 ** 6)
        with pytest.raises(NumericArgminError, match="did not settle"):
            solvers._full_box_argmin(obj, scale)
    # each pass of the primal rule, and no primal-dual pass, looks for the
    # bounds its target crosses with flatnonzero
    primal = []

    def counted(a, _real=np.flatnonzero):
        primal.append(a)
        return _real(a)

    monkeypatch.setattr(np, "flatnonzero", counted)
    x = argmin_quadratic(obj)                   # certifies, or raises
    assert primal                               # 4 passes here
    monkeypatch.undo()
    assert np.max(np.abs(x - _one_bound_a_step(obj, scale))) <= 1e-13 * cond
    assert np.allclose(x, x_star, rtol=0.0, atol=1e-9)


def test_full_box_route_with_nothing_free(monkeypatch):
    # every coordinate ends at a bound, and the warm start has each at the
    # other one: the first pass releases them all, the second, with
    # nothing fixed, puts each at the bound it crosses, and the third
    # returns; no pass solves a system
    m = 2.0 * np.eye(3) + 0.5
    x_star = np.array([1.0, -1.0, 1.0])
    obj = Objective.build(Box(-np.ones(3), np.ones(3)),
                          linear=np.array([-3.0, 3.0, -3.0]) - m @ x_star)
    obj.full = m
    obj.init = -x_star
    pin = np.array([-0.5, 0.2, 0.3])
    pinned = Objective.build(Box(pin, pin.copy()), linear=obj.lin)
    pinned.full = m

    def refuse(*args):
        raise AssertionError("a working-set system was solved")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", refuse)
        x = argmin_quadratic(obj)
        # nor is a coordinate with lo == hi ever free
        assert np.array_equal(argmin_quadratic(pinned), pin)
    assert np.array_equal(x, x_star)
    assert np.array_equal(_one_bound_a_step(obj, _box_scale(obj)), x_star)


def test_full_matrix_run_takes_at_most_its_recorded_box_steps(monkeypatch):
    # the box route's working-set solves over a d = 50, T = 40 full-matrix
    # AdaGrad run: 59 with primal-dual passes, 86 by one bound a step
    solves = []

    def counted(a, b, _real=np.linalg.solve):
        if sys._getframe(1).f_globals["__name__"] == "adaopt.solvers":
            solves.append(np.shape(a))
        return _real(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    _full_matrix_run()
    assert len(solves) <= 59


def test_partial_eigenpairs_read_as_the_matrix_they_carry(monkeypatch):
    # in a round the Gram serves (t < 5d/6; the dimension floor is lifted
    # for d = 8), the full-matrix schedule's running metric carries its top
    # k < d eigenvectors and one floor eigenvalue for their complement.
    # solve, a ledger row's dual norm (sum P^2 / evals) and the box argmin
    # (its H, then its minimizer) agree to 1e-12 relative with a direct
    # solve on the matrix and with the same matrix read without eigenpairs
    from adaopt import regularizers
    from adaopt.core import MetricColumn
    from adaopt.regularizers import ScheduleState, adagrad_full_step
    monkeypatch.setattr(regularizers, "GRAM_MIN_DIM", 0)

    def close(a, ref):
        return np.abs(a - ref).max() <= 1e-12 * np.abs(ref).max()

    d, eta, rng = 8, 0.7, np.random.default_rng(4)
    state = ScheduleState()
    col, plain_col = MetricColumn(5, d), MetricColumn(5, d)
    box = Box(-0.3 * np.ones(d), 0.3 * np.ones(d))
    for t in range(1, 6):
        _, state = adagrad_full_step(state, rng.uniform(-1.0, 1.0, d), eta, 0.5)
        m = state.total
        assert m._evecs.shape == (d, t)
        plain = QuadMetric("full", matrix=m.matrix, dim=d)
        b = rng.normal(size=d)
        x = np.linalg.solve(m.matrix, b)
        assert close(m.solve(b), x) and close(plain.solve(b), x)
        col.put(t - 1, m, True, g=b)
        plain_col.put(t - 1, plain, True, g=b)
        assert close(col.evals[t - 1], plain_col.evals[t - 1])
        for c in (col, plain_col):
            p = c.proj["g"][t - 1]
            assert (p / c.evals[t - 1]).dot(p) == pytest.approx(b.dot(x), rel=1e-12)
        assert np.all(col.proj["g"][t - 1][1:d - t] == 0.0)
        objs = []
        for carried in (True, False):
            obj = Objective.build(box, linear=b)
            if carried:
                obj.take_quadratic(m)
            else:
                obj.full = m.matrix
            obj.add_quadratic(np.zeros(d), QuadMetric.scaled(0.25), 1.0)
            objs.append(obj)
        assert objs[0].full_evecs is m._evecs and objs[1].full_evecs is None
        ref = np.linalg.inv(m.matrix + 0.25 * np.eye(d))
        assert close(solvers._inverse(objs[0]), ref)
        assert close(solvers._inverse(objs[1]), ref)
        assert close(argmin_quadratic(objs[0]), argmin_quadratic(objs[1]))


def _ball_objective(lin, weights, center, radius):
    obj = Objective.build(Ball(np.asarray(center, float), radius),
                          linear=np.asarray(lin, float))
    obj.add_quadratic(np.zeros(len(lin)), QuadMetric.diagonal(weights), 1.0)
    return obj


def test_ball_route_hand_values():
    # free minimizer (-1, 0.5) under diag(1, 2) with lin (1, -1): inside the
    # radius-2 ball, so the multiplier is 0
    obj = _ball_objective([1.0, -1.0], [1.0, 2.0], [0.0, 0.0], 2.0)
    assert np.allclose(argmin_quadratic(obj), [-1.0, 0.5], atol=1e-14)
    # lin (-3, 0) under diag(1, 4): the free minimizer (3, 0) is outside the
    # unit ball and x(lam) = (3 / (1 + lam), 0) meets it at lam = 2
    obj = _ball_objective([-3.0, 0.0], [1.0, 4.0], [0.0, 0.0], 1.0)
    assert np.allclose(argmin_quadratic(obj), [1.0, 0.0], atol=1e-14)


# distance of the free minimizer from the centre, in radii
_BALL_CASES = {"interior": (0.0, 1.0), "boundary": (1.5, 3.0), "off-centre": (0.0, 3.0)}


@pytest.mark.parametrize("case", sorted(_BALL_CASES))
def test_ball_route_matches_numeric(case):
    rng = np.random.default_rng(sorted(_BALL_CASES).index(case))
    for _ in range(25):
        d = int(rng.integers(1, 7))
        w = rng.uniform(0.3, 3.0, d)
        center = rng.normal(size=d) if case == "off-centre" else np.zeros(d)
        radius = float(rng.uniform(0.5, 2.0))
        u = rng.normal(size=d)
        free = center + u * (radius * rng.uniform(*_BALL_CASES[case]) / np.linalg.norm(u))
        obj = _ball_objective(-w * free, w, center, radius)
        x = argmin_quadratic(obj)
        dist = np.linalg.norm(x - center)
        if case == "interior":
            assert np.allclose(x, free, atol=1e-12)
        elif case == "boundary":
            assert dist == pytest.approx(radius, rel=1e-12)
        assert np.max(np.abs(x - argmin_numeric(obj, tol=1e-11))) <= 1e-9


def test_ball_route_with_weights_spread_over_ten_decades():
    # metric entries from 1e-7 to 1e3, as in an AdaGrad metric whose first
    # gradient has a near-zero coordinate.  The numeric route cannot always
    # certify there; where it does, the two agree, and the ball route always
    # meets the KKT conditions: grad F = -lam (x - z) with lam >= 0.
    rng = np.random.default_rng(7)
    compared = 0
    for _ in range(40):
        d = int(rng.integers(2, 11))
        w = 10.0 ** rng.uniform(-7.0, 3.0, d)
        center = rng.normal(size=d)
        obj = _ball_objective(rng.normal(size=d), w, center, float(rng.uniform(0.2, 2.0)))
        x = argmin_quadratic(obj)
        grad = obj.smooth_grad(x)
        off = x - center
        lam = -float(np.dot(grad, off)) / float(np.dot(off, off))
        assert lam >= -1e-12
        assert np.linalg.norm(grad + lam * off) <= 1e-9 * (1.0 + np.linalg.norm(obj.lin))
        try:
            x_num = argmin_numeric(obj, tol=1e-11)
        except NumericArgminError:
            continue
        assert np.max(np.abs(x - x_num)) <= 1e-9
        compared += 1
    assert compared >= 30


def test_ball_route_certificate_rejects_non_finite_input():
    obj = _ball_objective([1.0, 0.0], [1.0, 2.0], [0.0, 0.0], 1.0)
    obj.lin[0] = float("nan")
    with pytest.raises(IllPosedError):
        argmin_quadratic(obj)


def test_argmin_rejects_zero_curvature():
    obj = Objective.build(Ball(np.zeros(2), 1.0), linear=np.array([1.0, 0.0]))
    with pytest.raises(IllPosedError):
        argmin_quadratic(obj)


def _l1_objective(fs, g, metric, alpha):
    """<g, x> + 1/2 ||x||_M^2 + alpha ||x||_1 on fs."""
    return Objective.build(fs, linear=np.asarray(g, float), regularizer=Sum(
        [Quadratic(np.zeros(fs.dim), metric, 1.0), L1(alpha)]))


def test_l1_composite_hand_values():
    # min <g, x> + 1/2 ||x||^2 + |x|_1: soft-threshold of -g at 1
    m = QuadMetric.diagonal([1.0, 1.0])
    x = argmin_l1_composite(_l1_objective(Unconstrained(2), [1.5, 0.5], m, 1.0))
    assert np.allclose(x, [-0.5, 0.0], atol=1e-14)
    assert x[1] == 0.0
    # box clip after thresholding
    x = argmin_l1_composite(_l1_objective(Box(-np.ones(2), np.ones(2)),
                                          [-5.0, 0.0], m, 1.0))
    assert np.allclose(x, [1.0, 0.0], atol=1e-14)


def test_l1_composite_route_guards():
    with pytest.raises(ValueError):
        argmin_l1_composite(_l1_objective(Unconstrained(2), np.zeros(2),
                                          QuadMetric.full(np.eye(2)), 1.0))
    with pytest.raises(IllPosedError):
        argmin_l1_composite(_l1_objective(Unconstrained(2), np.zeros(2),
                                          QuadMetric.diagonal([1.0, 0.0]), 1.0))


def test_l1_composite_certifies_a_coordinate_with_lo_equal_to_hi():
    # coordinate 1 is pinned at -1.566 and its gradient pushes it up: it sits
    # at both bounds, so no sign of its multiplier is wrong
    box = Box([-1.0, -1.566], [1.0, -1.566])
    obj = _l1_objective(box, [0.3, -5.0], QuadMetric.diagonal([1.0, 1.0]), 0.5)
    x = argmin_l1_composite(obj)
    assert np.array_equal(x, [-0.0, -1.566])
    assert np.allclose(x, argmin_numeric(obj), atol=1e-9)


# -- numeric solver ---------------------------------------------------------------

def _random_objective(rng, fs):
    d = fs.dim
    obj = Objective.build(fs, linear=rng.normal(size=d))
    kind = rng.integers(3)
    if kind == 0:
        obj.add_quadratic(rng.normal(size=d), QuadMetric.scaled(rng.uniform(0.5, 2.0)),
                          1.0)
    elif kind == 1:
        obj.add_quadratic(rng.normal(size=d),
                          QuadMetric.diagonal(rng.uniform(0.3, 3.0, d)), 1.0)
    else:
        a = rng.normal(size=(d, d))
        obj.add_quadratic(rng.normal(size=d),
                          QuadMetric.full(a @ a.T + 0.5 * np.eye(d)), 1.0)
    return obj


def test_numeric_matches_closed_form():
    rng = np.random.default_rng(12)
    sets = [Unconstrained(3), Box(-np.ones(3), np.ones(3)),
            Ball(np.zeros(3), 1.0), Simplex(3, 1.0)]
    worst = 0.0
    for i in range(60):
        obj = _random_objective(rng, sets[i % len(sets)])
        x_closed = minimize(obj)
        x_num = argmin_numeric(obj, tol=1e-11)
        worst = max(worst, float(np.max(np.abs(x_closed - x_num))))
    assert worst <= 1e-8


def test_numeric_certificate_honesty(monkeypatch):
    # no strong convexity: the certificate cannot be produced
    obj = Objective.build(Box(-np.ones(2), np.ones(2)), linear=np.array([1.0, 0.0]))
    with pytest.raises(IllPosedError):
        argmin_numeric(obj)
    # starved iteration budget raises instead of returning best-effort;
    # the badly conditioned metric forces many prox-gradient steps
    m = QuadMetric.diagonal([1e-4, 1.0, 1.0])
    hard = Objective.build(Ball(np.zeros(3), 1.0), linear=np.array([3.0, -2.0, 1.0]),
                           regularizer=Quadratic(np.ones(3), m, 1.0))
    monkeypatch.setattr(solvers, "NUMERIC_MAX_ITER", 2)
    with pytest.raises(NumericArgminError):
        argmin_numeric(hard, tol=1e-12)


def test_minimize_sends_a_diagonal_metric_on_a_simplex_to_the_numeric_route(monkeypatch):
    obj = Objective.build(Simplex(3, 1.0), linear=np.array([0.5, -0.2, 0.1]),
                          regularizer=Quadratic(np.zeros(3),
                                                QuadMetric.diagonal([1.0, 2.0, 3.0]), 1.0))
    with pytest.raises(ValueError, match="no exact route"):
        argmin_quadratic(obj)
    calls = []
    numeric = solvers.argmin_numeric

    def record(o, **kw):
        calls.append(o)
        return numeric(o, **kw)

    monkeypatch.setattr(solvers, "argmin_numeric", record)
    x = minimize(obj)
    assert calls == [obj]
    assert np.array_equal(x, numeric(obj))


def test_minimize_routes_l1():
    obj = Objective.build(Unconstrained(2), linear=np.array([1.5, 0.5]),
                          regularizer=Sum([Quadratic(np.zeros(2), QuadMetric.scaled(1.0), 1.0),
                                           L1(1.0)]))
    assert np.allclose(minimize(obj), [-0.5, 0.0], atol=1e-12)


def test_minimize_routes_loss_objectives_numerically():
    # implicit-style objective: f(x) + (1/2)||x - x_t||^2 with
    # f = (1/2)(x - 2)^2 in one dim, anchored at 0: minimizer 1
    f = losses.quadratic_loss(np.array([2.0]), 1.0)
    obj = Objective.build(Unconstrained(1), losses=[f])
    obj.add_quadratic(np.zeros(1), QuadMetric.scaled(1.0), 1.0)
    obj.init = np.zeros(1)
    assert obj.losses
    assert np.allclose(minimize(obj, tol=1e-11), [1.0], atol=1e-8)


def test_quadratic_loss_divergence_folds_into_the_quadratic_slot():
    # B_f(., a) for f = (w/2)||. - c||^2 is (w/2)||. - a||^2: folded, it
    # leaves no loss handle, and it agrees with the same function kept as a
    # loss (a plain Loss wrapper hides it from the fold)
    rng = np.random.default_rng(3)
    d = 4
    fs = Ball(np.zeros(d), 1.0)
    f = losses.quadratic_loss(rng.normal(size=d), 2.5)
    kept_f = losses.Loss("quadratic-kept", value=f.value, grad=f.grad,
                         dir_deriv=f.dir_deriv, smoothness=f.smoothness,
                         strong_convexity=f.strong_convexity)
    anchor, g = 0.3 * rng.normal(size=d), rng.normal(size=d)
    folded = Objective.build(fs, linear=g, regularizer=losses.BregmanAround(f, anchor))
    kept = Objective.build(fs, linear=g, regularizer=losses.BregmanAround(kept_f, anchor))
    assert folded.losses == [] and kept.losses == [kept_f]
    assert folded.is_isotropic() and folded.gamma == 2.5
    for _ in range(10):
        x = rng.normal(size=d)
        assert folded.smooth_value(x) == pytest.approx(kept.smooth_value(x), rel=1e-12)
        assert np.allclose(folded.smooth_grad(x), kept.smooth_grad(x), rtol=1e-12, atol=1e-12)
    assert np.allclose(minimize(folded), minimize(kept, tol=1e-11), atol=1e-9)


def test_objective_curvature_summaries():
    obj = Objective.build(Box(-np.ones(2), np.ones(2)), linear=np.zeros(2))
    obj.add_quadratic(np.zeros(2), QuadMetric.diagonal([0.5, 2.0]), 1.0)
    assert obj.quad_curvature() == pytest.approx((0.5, 2.0))
    assert obj.curvature() == pytest.approx((0.5, 2.0))
    assert not obj.is_isotropic()


def test_certificate_rejects_a_wrong_point_at_an_overflowing_scale():
    # ||lin|| and the residual of a wrong point overflow v.v at 1e160; the
    # norms rescale there, so the tolerance stays finite and the wrong point
    # fails while the minimizer passes
    fs = Unconstrained(4)
    obj = Objective.build(fs, linear=np.full(4, 1e160),
                          regularizer=Quadratic(np.zeros(4), QuadMetric.scaled(1.0, 4)))
    with np.errstate(over="ignore"):
        with pytest.raises(IllPosedError):
            solvers._certify(obj, np.array([1.0, 1.0, 0.5, -0.3]), 1.0)
        assert np.array_equal(solvers._certify(obj, -obj.lin, 1.0), -obj.lin)
        assert solvers._norm(np.full(4, 1e160)) == pytest.approx(2e160, rel=1e-15)
        v = np.array([3.0, -4.0])
        assert solvers._norm(v) == 5.0
        assert solvers._norm(v * 1e200) == pytest.approx(5e200, rel=1e-15)
        assert solvers._norm(np.array([1.0, np.inf])) == np.inf
        assert np.isnan(solvers._norm(np.array([1e200, np.nan])))


def test_folding_only_the_centre_leaves_the_quadratic_part():
    # a term folded without its quadratic part moves the linear term and the
    # constant exactly as the whole fold does, and leaves the part as it was
    rng = np.random.default_rng(3)
    d = 4
    a = rng.standard_normal((d, d))
    metrics = (QuadMetric.scaled(0.7, d), QuadMetric.diagonal(rng.uniform(0.1, 1.0, d)),
               QuadMetric.full(a @ a.T))
    center = rng.uniform(-1.0, 1.0, d)
    for m in metrics:
        whole, part = (Objective.build(Box(-np.ones(d), np.ones(d)),
                                       linear=np.ones(d)) for _ in range(2))
        whole.fold_quadratic(center, m, 1.0)
        part.fold_quadratic(center, m, 1.0, quadratic=False)
        assert np.array_equal(part.lin, whole.lin) and part.const == whole.const
        assert part.gamma == 0.0 and part.diag is None and part.full is None


def _per_call_verdict(fs, x, lin, w, l1):
    """``_certify``'s verdict on one separable row: None, or its message."""
    obj = Objective(fs, lin=lin, gamma=w if type(w) is float else 0.0,
                    diag=None if type(w) is float else w, l1_alpha=l1)
    try:
        solvers._certify(obj, x, w if type(w) is float else float(w.max()), w)
    except IllPosedError as e:
        return str(e)
    return None


@given(kind=st.sampled_from(["box", "ball", "unconstrained", "simplex"]),
       d=st.integers(1, 6), n=st.integers(1, 12), l1=st.booleans(),
       iso=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_batched_certificate_agrees_with_the_per_call_one(kind, d, n, l1, iso, seed):
    # _certify_rows passes and fails exactly the rows _certify does, with
    # its message: exact argmins; rows with one coordinate moved by 1e-6 of
    # the set's diameter (on the free set, of the point's largest entry, or
    # 1e-6); rows whose linear part, and so ||lin||^2, overflows (on the free
    # set, a moved one's residual^2 too, and only the rescaled norms tell
    # that it fails, and with which residual); on a box,
    # a ball, the free set and an isotropic simplex, with and without l1 (on
    # a box and the free set, where the l1 route runs)
    rng = np.random.default_rng(seed)
    fs = {"box": lambda: Box(-np.ones(d), np.ones(d)),
          "ball": lambda: Ball(np.full(d, 0.2), 1.5),
          "unconstrained": lambda: Unconstrained(d),
          "simplex": lambda: Simplex(d, 2.0)}[kind]()
    iso = iso or kind == "simplex"
    l1 = l1 and kind in ("box", "unconstrained")
    LIN = rng.uniform(-3.0, 3.0, (n, d))
    LIN[rng.uniform(size=n) < 0.2] *= 1e160
    W = rng.uniform(0.1, 4.0, n) if iso else rng.uniform(0.1, 4.0, (n, d))
    L1 = rng.uniform(0.01, 2.0, n) if l1 else 0.0
    ws = [float(w) if iso else w for w in W]
    l1s = L1 if l1 else np.zeros(n)
    X = np.empty((n, d))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            obj = Objective(fs, lin=LIN[j].copy(), gamma=ws[j] if iso else 0.0,
                            diag=None if iso else ws[j], l1_alpha=float(l1s[j]))
            X[j] = minimize(obj, _defer=[])
        moved = np.flatnonzero(rng.uniform(size=n) < 0.3)
        scale = fs.diameter() if kind != "unconstrained" \
            else np.maximum(1.0, np.abs(X[moved]).max(axis=1))
        X[moved, rng.integers(0, d, moved.size)] += 1e-6 * scale
        expected = [_per_call_verdict(fs, X[j], LIN[j], ws[j], float(l1s[j]))
                    for j in range(n)]

        def batch(a, b):
            try:
                solvers._certify_rows(fs, X[a:b], LIN[a:b], W[a:b],
                                      L1[a:b] if l1 else L1)
            except IllPosedError as e:
                return str(e)
            return None

        # rows start..j-1 pass together, and a batch from start that holds
        # row j, the next that _certify fails, fails with row j's message
        start = 0
        for j in [j for j in range(n) if expected[j] is not None] + [n]:
            assert j == start or batch(start, j) is None
            if j < n:
                assert batch(start, j + 1) == batch(start, n) == expected[j]
            start = j + 1
