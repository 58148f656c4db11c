"""Preset drivers: update rules against hand recursions, call accounting,
hint plumbing, and the composite path."""

import math
import sys
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adaopt import core, losses, regret, regularizers, solvers
from adaopt.learners import (HINT_POLICIES, PRESETS, Driver, preset_defaults,
                             run_rounds)


UNC2 = solvers.Unconstrained(2)


def linear_seq(vectors):
    arr = [np.asarray(v, dtype=float) for v in vectors]
    return losses.LinearStream(lambda t: arr[t - 1], arr[0].size, "scripted")


def run(preset, fs, params, seq, T, hint_fn=None, tol=1e-11, seed=0):
    return run_rounds(Driver(preset, fs, params, hint_fn=hint_fn, solver_tol=tol),
                      seq, T, rng=np.random.default_rng(seed))


def test_ogd_matches_manual_recursion_unconstrained():
    vs = [np.array([1.0, -2.0]), np.array([0.5, 0.5]), np.array([-1.0, 1.0])]
    led = run("ogd", UNC2, {"eta": 0.2}, linear_seq(vs), 3)
    x = np.zeros(2)
    for rec, v in zip(led.records, vs):
        assert np.allclose(rec.x, x, atol=1e-12)
        x = x - 0.2 * v
        assert np.allclose(rec.x_next, x, atol=1e-12)


def test_ogd_on_ball_is_the_lazy_projection():
    # the follow-the-leader form projects the accumulated step, so after a
    # +1/-1 gradient pair the iterate returns exactly to the start
    seq = linear_seq([[1.0], [-1.0]])
    led = run("ogd", solvers.Ball(np.zeros(1), 1.0), {"eta": 1.0}, seq, 2)
    assert np.allclose(led.records[0].x, [0.0])
    assert np.allclose(led.records[0].x_next, [-1.0])
    assert np.allclose(led.records[1].x_next, [0.0])


def test_md_with_matching_scale_equals_ogd():
    vs = [np.array([0.3, -0.1]), np.array([-0.6, 0.2]), np.array([0.1, 0.9])]
    led_f = run("ogd", UNC2, {"eta": 0.25}, linear_seq(vs), 3)
    led_m = run("md", UNC2, {"q0_scale": 4.0, "sigma_r": 0.0}, linear_seq(vs), 3)
    assert led_f.kind == "ftrl" and led_m.kind == "md"
    for a, b in zip(led_f.records, led_m.records):
        assert np.allclose(a.x_next, b.x_next, atol=1e-11)


def test_implicit_md_one_dim_hand_value():
    # x2 = argmin (1/2)(x - 2)^2 + (1/2) x^2 = 1
    seq = losses.FixedLoss(losses.quadratic_loss(np.array([2.0]), 1.0), 1)
    led = run("implicit-md", solvers.Unconstrained(1), {"sigma_r": 1.0}, seq, 1)
    assert led.records[0].x_next[0] == pytest.approx(1.0, abs=1e-9)


def test_nonlin_ftrl_one_dim_hand_value():
    # x2 = argmin (1/2) x^2 + (1/2)(x - 2)^2 = 1, the loss folded whole
    seq = losses.FixedLoss(losses.quadratic_loss(np.array([2.0]), 1.0), 1)
    led = run("nonlin-ftrl", solvers.Unconstrained(1), {"q0_scale": 1.0}, seq, 1)
    assert led.records[0].x_next[0] == pytest.approx(1.0, abs=1e-9)


def test_solver_call_accounting():
    seq = losses.random_stream(3, seed=2)
    ball = solvers.Ball(np.zeros(3), 1.0)
    # zero q0 and zero hint: the first iterate needs no solve
    led = run("ao-md", ball, {"hints": "prev-gradient"}, seq, 15)
    assert led.solver_calls == 15
    # ogd's q0 is a real quadratic, so initialization solves once
    led = run("ogd", ball, {"eta": 0.1}, seq, 15)
    assert led.solver_calls == 16


def test_hint_trail_prev_gradient():
    seq = losses.random_stream(2, seed=3)
    led = run("ao-ftrl-prox", solvers.Box(-np.ones(2), np.ones(2)),
              {"hints": "prev-gradient"}, seq, 5)
    assert np.array_equal(led.records[0].hint, np.zeros(2))
    for prev, rec in zip(led.records, led.records[1:]):
        assert np.array_equal(rec.hint, prev.g)


def test_hint_trail_custom():
    # half-right hints: perfect ones would zero the scale-free schedule
    seq = losses.random_stream(2, seed=4)
    led = run("ao-ftrl-prox", solvers.Box(-np.ones(2), np.ones(2)),
              {"hints": "custom"}, seq, 4,
              hint_fn=lambda t: 0.5 * seq.vector(t))
    for rec in led.records:
        assert np.array_equal(rec.hint, 0.5 * seq.vector(rec.t))


def test_zero_hints_leave_the_trail_empty():
    seq = losses.random_stream(2, seed=5)
    led = run("ao-ftrl-prox", solvers.Box(-np.ones(2), np.ones(2)),
              {"hints": "none"}, seq, 4)
    for rec in led.records:
        assert not np.any(rec.hint)


def test_composite_records_psi_and_pins_small_coordinates():
    # constant gradient (0.05, 1.0) against an l1 weight of 0.5: the first
    # coordinate's accumulated pull never beats the threshold, so the
    # leader keeps it at exactly zero every round
    seq = linear_seq([[0.05, 1.0]] * 30)
    led = run("ftrl-prox", solvers.Box(-np.ones(2), np.ones(2)),
              {"composite_alpha": 0.5, "eta": 0.5, "gamma0": 1.0}, seq, 30)
    assert led.composite
    for rec in led.records:
        assert rec.psi is not None
        assert rec.x[0] == 0.0
    assert led.records[-1].x_next[1] != 0.0


def test_composite_settings_both_run():
    seq = linear_seq([[0.5, -0.5]] * 6)
    box = solvers.Box(-np.ones(2), np.ones(2))
    for setting in ("revealed-after", "known-before"):
        led = run("md", box, {"composite_alpha": 0.3, "q0_scale": 1.0,
                              "sigma_r": 0.5, "composite_setting": setting},
                  seq, 6)
        assert led.T == 6


def test_adagrad_full_equals_diag_in_one_dim():
    # adagrad-md takes a full metric in one dimension only
    seq = losses.random_stream(1, seed=6)
    for preset in ("adagrad-da", "adagrad-md"):
        led_d = run(preset, solvers.Box(-np.ones(1), np.ones(1)),
                    {"metric": "diag"}, seq, 8)
        led_f = run(preset, solvers.Box(-np.ones(1), np.ones(1)),
                    {"metric": "full"}, seq, 8)
        for a, b in zip(led_d.records, led_f.records):
            assert np.allclose(a.x_next, b.x_next, atol=1e-10)


_FULL_RUNS = [("adagrad-da", {"metric": "full"}),
              ("ftrl-prox", {"metric": "full", "gamma0": 0.3})]


def _full_run(preset, params, d, T, seq=None, steps=None):
    """A full-matrix run on a box; ``steps`` collects what each round's
    schedule step returned: its Cholesky-checked increment and root / eta."""
    drv = Driver(preset, solvers.Box(-np.ones(d), np.ones(d)), params)
    if steps is not None:
        def step(state, g, eta, gamma0, _real=drv._adagrad_step):
            incr, state = _real(state, g, eta, gamma0)
            steps.append((incr.matrix, state.total.matrix))
            return incr, state
        drv._adagrad_step = step
    seq = seq or losses.random_stream(d, seed=5)
    return run_rounds(drv, seq, T, rng=np.random.default_rng(1))


@pytest.mark.parametrize("preset,params", _FULL_RUNS)
def test_full_metric_ledger_keeps_the_schedules_eigenvalues_and_projections(
        preset, params):
    # every full r_{1:t} row is the schedule's root(G_t) / eta, and keeps
    # the eigenvalues of that root and the projections of g_t onto its
    # eigenvectors, carried from play: they reproduce the quadratic form
    # and the norm of g_t, and the dual norm computed from them agrees with
    # a direct solve
    d, T = 6, 15
    led = _full_run(preset, params, d, T)
    m = led.r_metric
    rows = np.flatnonzero(m.kind >= 2)
    assert rows.size >= T - 1
    for i in rows:
        a, lam, p, g = m[i].matrix, m.evals[i], m.proj["g"][i], led.g[i]
        big = np.abs(a).max()
        assert np.all(np.diff(lam) >= 0.0), i
        assert np.abs(lam - np.linalg.eigvalsh(a)).max() <= 1e-12 * big, i
        assert p.dot(p) == pytest.approx(g.dot(g), rel=1e-12), i
        assert (p * lam).dot(p) == pytest.approx(g.dot(a @ g), rel=1e-12), i
        assert (p / lam).dot(p) == pytest.approx(
            g.dot(np.linalg.solve(a, g)), rel=1e-12), i


@pytest.mark.parametrize("preset,params", _FULL_RUNS)
def test_full_metric_ledger_stores_plays_roots_and_derives_its_increments(
        preset, params):
    # the ledger's one root per round is play's root / eta, bit for bit
    # (a metric the Gram served keeps its factors, and its matrix is formed
    # once, when read);
    # the increment column (q for adagrad-da, the proximal term for
    # ftrl-prox) is the difference of consecutive roots, which agrees with
    # play's Cholesky-checked increment to rounding
    d, T, steps = 6, 15, []
    led = _full_run(preset, params, d, T, steps=steps)
    roots = led.r_metric.roots
    assert len(roots) == T + 1 and len(steps) == T
    assert np.array_equal(roots[0].matrix, math.sqrt(led.schedule["params"]["gamma0"])
                          / led.schedule["params"]["eta"] * np.eye(d))
    incr_col = led.q_metric if preset == "adagrad-da" else led.prox
    for t, (incr, root) in enumerate(steps, start=1):
        assert np.array_equal(roots[t].matrix, root), t
        derived = incr_col[t - 1].matrix
        assert np.abs(derived - incr).max() <= 1e-12 * np.abs(root).max(), t
    # r row t is round t - 1's root for adagrad-da (q_t is not in r_{1:t})
    # and round t's for ftrl-prox
    lag = 1 if preset == "adagrad-da" else 0
    for i in range(lag, T):
        assert np.array_equal(led.r_metric[i].matrix, roots[i + 1 - lag].matrix), i
    assert led.prox.roots is roots and led.q_metric.roots is roots


@pytest.mark.parametrize("preset,params", _FULL_RUNS)
def test_full_metric_ledger_from_the_gram_keeps_its_values(preset, params,
                                                           monkeypatch):
    # the two ledger checks above with the dimension floor lifted, so that
    # the Gram serves rounds 1..4 of d = 6: their rows keep the top
    # eigenvectors' projections and the floor's share in one slot
    monkeypatch.setattr(regularizers, "GRAM_MIN_DIM", 0)
    test_full_metric_ledger_keeps_the_schedules_eigenvalues_and_projections(
        preset, params)
    test_full_metric_ledger_stores_plays_roots_and_derives_its_increments(
        preset, params)


def _ledger_floats(led) -> int:
    """Float64 values the ledger holds: every float array reachable from
    it, counted once per buffer, and every float."""
    seen, bufs, total, todo = set(), set(), 0, [led]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if obj.dtype.kind == "f" and id(obj) not in bufs:
                bufs.add(id(obj))
                total += obj.size
        elif isinstance(obj, float):
            total += 1
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(c.cell_contents for c in obj.__closure__)
        elif not isinstance(obj, (type, str, int, bool)) and obj is not None:
            todo.extend(getattr(obj, "__dict__", {}).values())
            todo.extend(getattr(obj, k, None)
                        for k in getattr(type(obj), "__slots__", ()))
    return total


def test_full_metric_ledger_keeps_one_matrix_per_round():
    # at d = 128 three d x d per round would be 384 d floats per round; the
    # ledger keeps r's root, its eigenvalues and g's projections
    d, T = 128, 40
    led = _full_run("adagrad-da", {"metric": "full"}, d, T,
                    seq=losses.random_stream(d, seed=3))
    assert _ledger_floats(led) <= (d + 10) * d * T


def test_full_matrix_gram_rounds_build_no_d_by_d(monkeypatch):
    # a d = 50, T = 49 adagrad-da run: rounds 1..41 take the Gram, 42..49
    # the d x d eigh.  No Gram round forms a d x d through np.outer,
    # np.linalg.cholesky or a metric's matrix, and nor does the accounting
    # of its rows; the ledger keeps a Gram root's eigenvalues and top
    # eigenvectors, and a d x d root's matrix alone; and
    # every root agrees with the eigh of gamma0 I + A'A for the rows A of
    # g_1..g_t to 1e-12 relative
    d, T = 50, 49
    gram = regularizers.gram_rounds(d)
    assert gram == 41
    formed, now = {}, [0]

    def count(name, fn):
        def counted(*args, **kw):
            out = fn(*args, **kw)
            if np.shape(out) == (d, d):
                formed.setdefault(now[0], []).append(name)
            return out
        return counted

    monkeypatch.setattr(np, "outer", count("outer", np.outer))
    monkeypatch.setattr(np.linalg, "cholesky", count("cholesky", np.linalg.cholesky))
    matrix = core.QuadMetric.matrix.fget

    def form(m):
        # a metric's matrix counts where the read forms it
        if m._matrix is None and m.kind == "full" and m.dim == d:
            formed.setdefault(now[0], []).append("matrix")
        return matrix(m)

    monkeypatch.setattr(core.QuadMetric, "matrix", property(form))
    play = Driver.round

    def round_t(self, t, *args):
        now[0] = t
        return play(self, t, *args)

    monkeypatch.setattr(Driver, "round", round_t)
    led = _full_run("adagrad-da", {"metric": "full"}, d, T,
                    seq=losses.random_stream(d, seed=4))
    now[0] = "accounting"
    regret.bound_table2(led, led.x[-1], "oo-ftrl")
    led.breg_r
    assert not any(t in formed for t in range(1, gram + 1)), formed
    assert all(t in formed for t in range(gram + 1, T + 1)), formed
    roots = led.r_metric.roots
    assert len(roots) == T + 1 and roots.gram() == gram + 1
    for t in range(gram + 1):
        m = roots[t]
        assert m._matrix is None and m._evecs.shape == (d, t), t
    assert all(roots[t]._evecs is None for t in range(gram + 1, T + 1))
    # the accounting formed only the d x d rows' matrices
    assert set(formed.get("accounting", ())) <= {"matrix"}
    monkeypatch.undo()
    p = led.schedule["params"]
    for t in range(T + 1):
        evals, evecs = np.linalg.eigh(p["gamma0"] * np.eye(d) + led.g[:t].T @ led.g[:t])
        ref = (evecs * np.sqrt(evals)) @ evecs.T / p["eta"]
        assert np.abs(roots[t].matrix - ref).max() <= 1e-12 * np.abs(ref).max(), t
    # an unconstrained run forms the running metric's matrix in play (its
    # argmin's Hessian) every round; the ledger still keeps a Gram root's
    # factors alone, and a row read as a matrix leaves its root without one
    drv = Driver("adagrad-da", solvers.Unconstrained(d), {"metric": "full"})
    led = run_rounds(drv, losses.random_stream(d, seed=4), gram)
    assert drv._r_metric._matrix is not None
    roots = led.r_metric.roots
    assert all(m._matrix is None and m._evecs.shape[1] < d for m in roots)
    assert roots.gram() == gram + 1
    led.r_metric[gram - 1].matrix
    assert roots[gram]._matrix is None


def test_schedule_info_recorded():
    seq = losses.random_stream(2, seed=7)
    led = run("ao-ftrl-prox", solvers.Box(-np.ones(2), np.ones(2)),
              {"eta_schedule": "scale-free"}, seq, 4)
    assert led.schedule["name"] == "scale-free"
    assert all(rec.eta is not None and rec.eta > 0 for rec in led.records)
    led = run("ao-ftrl-prox", solvers.Box(-np.ones(2), np.ones(2)),
              {"eta_schedule": "final-attack", "smooth_l": 1.0}, seq, 4)
    assert led.schedule["name"] == "final-attack"
    assert led.schedule["radius"] > 0


def test_driver_rejects_bad_configurations():
    seq = losses.random_stream(2, seed=8)
    with pytest.raises(ValueError):
        Driver("sgd", UNC2, {})
    with pytest.raises(ValueError):
        Driver("ogd", UNC2, {"eta": 0.1, "momentum": 0.9})
    with pytest.raises(ValueError):
        Driver("md", solvers.Simplex(3), {"composite_alpha": 0.5})
    with pytest.raises(ValueError):
        Driver("ao-ftrl-prox", UNC2, {"hints": "custom"})
    with pytest.raises(ValueError):
        Driver("md", UNC2, {"composite_setting": "bogus"})
    with pytest.raises(ValueError):
        run_rounds(Driver("ogd", UNC2, {}), seq, 0)


def test_implicit_rejects_stochastic_feedback():
    seq = losses.StochasticLoss(losses.quadratic_loss(np.zeros(2), 1.0), 2,
                                noise=0.1)
    for preset in ("implicit-md", "nonlin-ftrl"):
        with pytest.raises(ValueError):
            run_rounds(Driver(preset, UNC2, {}), seq, 3,
                       rng=np.random.default_rng(0))


def test_preset_defaults_are_copies():
    d = preset_defaults("ogd")
    d["eta"] = 99.0
    assert preset_defaults("ogd")["eta"] != 99.0
    assert set(PRESETS) == set(
        ("ogd", "da", "adagrad-da", "ftrl-prox", "adagrad-md", "md",
         "ao-ftrl-prox", "ao-md", "implicit-md", "nonlin-ftrl"))


def test_ledger_shape_and_kinds():
    seq = losses.random_stream(2, seed=10)
    led = run("adagrad-md", solvers.Box(-np.ones(2), np.ones(2)), {}, seq, 5)
    assert led.kind == "md"
    assert led.T == 5 and led.dim == 2
    assert np.array_equal(led.final_point(), led.records[-1].x_next)
    assert not led.stochastic


# -- the driver's state and r's running metric ----------------------------------

def test_run_rounds_leaves_the_driver_at_the_ledgers_last_row():
    for preset, params in (("adagrad-da", {}), ("md", {}), ("ftrl-prox",
                           {"gamma0": 0.5, "composite_alpha": 0.1})):
        driver = Driver(preset, solvers.Box(-np.ones(3), np.ones(3)), params)
        led = run_rounds(driver, losses.random_stream(3, seed=2), 6)
        assert driver.t == 6
        assert np.array_equal(driver.x, led.x[6])
        assert driver.solver_calls == led.solver_calls


def _l1_bregman(y, x):
    """B_{|.|}(y, x) in one dimension, |x|'s one-sided slope toward y."""
    slope = np.sign(x) * (y - x) if x != 0.0 else abs(y - x)
    return abs(y) - abs(x) - slope


def test_l1_part_of_q_enters_the_next_r_divergence():
    # in a ledger, r_{1:t} carries the l1 weight of q_{0:t-1}: psi's from
    # round 1 when known before, from round 2 when revealed after
    # (the swings grow, so the iterate changes sign every round)
    seq = linear_seq([[-1.0], [3.0], [-5.0], [7.0], [-9.0]])
    for setting, first in (("known-before", 1), ("revealed-after", 0)):
        led = run("ftrl-prox", solvers.Unconstrained(1),
                  {"gamma0": 1.0, "composite_alpha": 0.2,
                   "composite_setting": setting}, seq, 5)
        x = led.x[:, 0]
        l1 = [_l1_bregman(x[t], x[t - 1]) for t in range(1, 6)]
        assert min(l1[1:]) > 0.1
        for i, rec in enumerate(led.records):
            quad = 0.5 * float(rec.r_metric.weights[0]) * (x[i + 1] - x[i]) ** 2
            assert rec.breg_r == pytest.approx(
                quad + 0.2 * (i + first) * l1[i], rel=1e-12, abs=1e-15)


def _kept(f):
    """The quadratic loss f as a plain Loss, which is not read as isotropic."""
    return losses.Loss("quadratic-kept", value=f.value, grad=f.grad,
                       smoothness=f.smoothness, strong_convexity=f.strong_convexity)


def test_loss_divergence_in_q_is_carried_as_a_handle_unless_isotropic():
    f = losses.quadratic_loss(np.array([2.0]), 3.0)
    for loss in (f, _kept(f)):
        # the isotropic divergence is the metric 3 I; the other is no
        # metric.  Either enters B_{r_{1:2}}(x_3, x_2): r_{1:2} is
        # x^2/2 + B_{f_1}, so with x_2 = 3/2 and x_3 = 12/7 it is 2 (3/14)^2
        led = run("nonlin-ftrl", solvers.Unconstrained(1), {"q0_scale": 1.0},
                  losses.FixedLoss(loss, 1), 3, tol=1e-12)
        assert led.records[1].r_metric.gamma == (4.0 if loss is f else 1.0)
        assert led.x[1:3, 0] == pytest.approx([1.5, 12.0 / 7.0], rel=1e-9)
        assert led.breg_r[1] == pytest.approx(2.0 * (3.0 / 14.0) ** 2, rel=1e-9)


# -- play emits parameters, not objects ----------------------------------------

_PLAY = [(p, {}) for p in PRESETS] + [
    ("ftrl-prox", {"gamma0": 0.5, "composite_alpha": 0.1,
                   "composite_setting": "revealed-after"}),
    ("ftrl-prox", {"gamma0": 0.5, "composite_alpha": 0.1,
                   "composite_setting": "known-before"}),
    ("md", {"composite_alpha": 0.1}),
    ("adagrad-da", {"metric": "full"}),
]


_T = 8


def _play_setup(preset, params, stream):
    """(driver, stream) for a play test: d = 3 on a box, T = ``_T``."""
    d = 3
    centers = np.random.default_rng(5).uniform(-0.8, 0.8, (_T, d))
    seq = losses.random_stream(d, seed=4) if stream == "random-linear" \
        else losses.DriftingQuadratic(lambda t: centers[t - 1], d)
    return Driver(preset, solvers.Box(-np.ones(d), np.ones(d)), params), seq


def _spy(log, name, fn=None):
    """``fn`` (or a no-op) that first appends ``name`` to ``log``."""
    def call(*args, **kw):
        log.append(name)
        return None if fn is None else fn(*args, **kw)
    return call


def _handle_classes():
    classes = [losses.BregmanAround, regret.RoundRecord, regularizers.Regularizer]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    return classes


@pytest.mark.parametrize("stream", ["random-linear", "drifting-quadratic"])
@pytest.mark.parametrize("preset,params", _PLAY)
def test_play_builds_no_regularizer_objects(monkeypatch, preset, params, stream):
    # every term of a preset, q~_0 included, is a parameter tuple: while
    # the driver is built and played no regularizer handle, Sum,
    # Difference, loss divergence or record is built, and nothing is
    # folded as a handle
    built = []
    spy = partial(_spy, built)
    for cls in _handle_classes():
        monkeypatch.setattr(cls, "__init__", spy(cls.__name__, cls.__init__))
    monkeypatch.setattr(solvers.Objective, "add_regularizer",
                        spy("Objective.add_regularizer"))
    driver, seq = _play_setup(preset, params, stream)
    led = run_rounds(driver, seq, _T)
    monkeypatch.undo()
    assert built == []
    assert led.T == _T
    assert np.isfinite(regret.bound_table2(led, led.x1, f"oo-{led.kind}").value)


def _q0_scale(preset, p):
    """The scale of q~_0's quadratic (1/2) s ||x||^2, from the parameters."""
    if preset == "ogd":
        return 1.0 / p["eta"]
    if preset == "da":
        return p["alpha0"]
    if preset in ("adagrad-da", "ftrl-prox"):
        return math.sqrt(p["gamma0"]) / p["eta"]
    return p.get("q0_scale", 0.0)     # adagrad-md and ao-ftrl-prox: none


_HINTED = [("ao-ftrl-prox", {"hints": "custom"}),
           ("ao-md", {"hints": "custom", "q0_scale": 2.0})]


@pytest.mark.parametrize("preset,params", _PLAY + _HINTED)
def test_first_iterate_matches_the_handle_fold_of_q0(preset, params):
    # x_1 and ftrl's running objective, folded from q~_0's Terms, equal
    # the fold of the ledger's q~_0 handle plus <hint_1, .>, bit for bit;
    # q_0's handle is (1/2) s ||y||^2 + l1 ||y||_1 + <hint_1, y>
    d = 3
    fs = solvers.Box(-np.ones(d), np.ones(d))
    hint_fn = (lambda t: np.array([0.3, -0.2, 0.1]) / t) \
        if params.get("hints") == "custom" else None
    driver = Driver(preset, fs, params, hint_fn=hint_fn)
    obj = driver._obj
    lin, gamma, l1 = obj.lin, obj.gamma, obj.l1_alpha
    led = run_rounds(driver, losses.random_stream(d, seed=4), 3)
    hint_1 = np.zeros(d) if led.hint is None else led.hint[0]
    ref = solvers.Objective.build(fs, linear=hint_1, regularizer=led.q0_tilde)
    assert np.array_equal(lin, ref.lin)
    assert (gamma, l1) == (ref.gamma, ref.l1_alpha)
    p = dict(preset_defaults(preset), **params)
    if _q0_scale(preset, p):
        assert np.array_equal(led.x1, solvers.minimize(ref, tol=driver.solver_tol))
    known = p.get("composite_setting") == "known-before"
    alpha = p["composite_alpha"] if known else 0.0
    for y in np.random.default_rng(8).uniform(-1.0, 1.0, (5, d)):
        want = 0.5 * _q0_scale(preset, p) * float(y @ y) \
            + alpha * float(np.abs(y).sum()) + float(hint_1 @ y)
        assert led.q0.value(y) == pytest.approx(want, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("stream", ["random-linear", "drifting-quadratic"])
@pytest.mark.parametrize("preset,params", _PLAY)
def test_play_evaluates_no_divergence(monkeypatch, preset, params, stream):
    # play computes only what x_{t+1} needs: B_{r_{1:t}}(x_{t+1}, x_t) is
    # a term of the forward bound, which the ledger derives when it is read,
    # so during play no quadratic norm or divergence is evaluated
    driver, seq = _play_setup(preset, params, stream)
    called = []
    for name in ("quad_norm_sq", "bregman"):
        fn = getattr(core, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("adaopt") \
                    and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, _spy(called, name, fn))
    for cls in _handle_classes() + [losses.Loss]:
        if "bregman" in vars(cls):
            monkeypatch.setattr(cls, "bregman", _spy(
                called, f"{cls.__name__}.bregman", cls.bregman))
    led = run_rounds(driver, seq, _T)
    monkeypatch.undo()
    assert called == []
    assert led.T == _T and np.isfinite(led.breg_r).all()


def test_play_checks_each_gradient_once(monkeypatch):
    # Driver.round is the one check of g: the stream's kernel rows, the
    # schedule and the argmin trust it, so play calls as_point about once
    # a round (three times a round before the schedule and the stream
    # stopped re-checking)
    T, d = 200, 10
    driver = Driver("adagrad-da", solvers.Box(-np.ones(d), np.ones(d)),
                    {"metric": "diag"})
    seq = losses.random_stream(d, seed=3)
    calls = []
    fn = core.as_point
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("adaopt") \
                and getattr(mod, "as_point", None) is fn:
            monkeypatch.setattr(mod, "as_point", _spy(calls, "as_point", fn))
    led = run_rounds(driver, seq, T)
    monkeypatch.undo()
    assert led.T == T and np.isfinite(led.x).all()
    assert len(calls) <= T + 5, len(calls)


# T = 400 rounds of the closed-form benchmark config (adagrad-da), and of
# adagrad-md and ftrl-prox on the same stream: what play calls and builds
T_BUILDS = 400
BUILDS = {
    # column play: one minimize call a round and no Driver.round; the
    # schedule, objective rows and metric columns are scans, so no round
    # builds a QuadMetric (r's running metric is built once) or puts a
    # ledger row (one put of r's first row, one block put per column),
    # and g, checked once, needs no as_point.  The one LinearLoss of each
    # g row is the ledger's
    "adagrad-da": {"minimize": T_BUILDS, "Loss": T_BUILDS, "QuadMetric": 1,
                   "put": 1, "put_rows": 2, "kernel": 1},
    # column play of md: each round folds its row of r_{1:t} into a fresh
    # objective anchored at x_t; r's rows are all scanned, so no row is put
    # alone (the prox and r columns are block puts)
    "adagrad-md": {"minimize": T_BUILDS, "Loss": T_BUILDS, "QuadMetric": 1,
                   "put_rows": 2, "kernel": 1},
    # per-round play (a proximal term centred at x_t): each round checks g
    # once, builds the schedule's increment and r's new metric (round 1's
    # r is the increment itself) and writes the prox and r rows
    "ftrl-prox": {"minimize": T_BUILDS, "round": T_BUILDS, "Loss": T_BUILDS,
                  "QuadMetric": 2 * T_BUILDS - 1, "as_point": T_BUILDS,
                  "put": 2 * T_BUILDS, "kernel": 1},
}


def test_closed_form_round_builds_only_what_its_update_needs(monkeypatch):
    # the stream's rows 1..T are the ledger's g column, drawn by one kernel
    # call (2**14 // d = 1638 rounds a call).  The closed-form config and
    # adagrad-md played each round through Driver.round before column play,
    # with the counts ftrl-prox keeps: 2T QuadMetrics, 2T puts and T
    # as_point calls
    T, d = T_BUILDS, 10
    for preset, expected in BUILDS.items():
        driver = Driver(preset, solvers.Box(-np.ones(d), np.ones(d)),
                        {"metric": "diag"})
        seq = losses.random_stream(d, seed=11)
        calls = []
        monkeypatch.setattr(core.QuadMetric, "__init__",
                            _spy(calls, "QuadMetric", core.QuadMetric.__init__))
        for cls in [losses.Loss] + losses.Loss.__subclasses__():
            if "__init__" in vars(cls):
                monkeypatch.setattr(cls, "__init__",
                                    _spy(calls, "Loss", vars(cls)["__init__"]))
        for name in ("put", "put_rows"):
            monkeypatch.setattr(core.MetricColumn, name, _spy(
                calls, name, getattr(core.MetricColumn, name)))
        monkeypatch.setattr(losses, "_uniform_block",
                            _spy(calls, "kernel", losses._uniform_block))
        monkeypatch.setattr(solvers, "minimize",
                            _spy(calls, "minimize", solvers.minimize))
        monkeypatch.setattr(Driver, "round", _spy(calls, "round", Driver.round))
        fn = core.as_point
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("adaopt") \
                    and getattr(mod, "as_point", None) is fn:
                monkeypatch.setattr(mod, "as_point", _spy(calls, "as_point", fn))
        led = run_rounds(driver, seq, T)
        monkeypatch.undo()
        assert led.T == T
        counts = {k: calls.count(k) for k in set(calls)}
        assert counts == expected, (preset, counts)


# Driver.column_play per preset x metric x composite (an l1 weight) x hint
# policy, "-" where the preset takes no such parameter: a run plays its g
# column (a run that needs its loss, its centre column) by column play
# unless it is optimistic, keeps a full metric, or is an ftrl run with a
# term centred at x_t or an l1 weight
COLUMN_PLAY = {
    ("ogd", "-", "-", "-"): True,
    ("da", "-", "-", "-"): True,
    ("adagrad-da", "diag", "-", "-"): True,
    ("adagrad-da", "full", "-", "-"): False,
    ("ftrl-prox", "diag", False, "-"): False,
    ("ftrl-prox", "diag", True, "-"): False,
    ("ftrl-prox", "full", False, "-"): False,
    ("ftrl-prox", "full", True, "-"): False,
    ("adagrad-md", "diag", "-", "-"): True,
    ("adagrad-md", "full", "-", "-"): False,
    ("md", "-", False, "-"): True,
    ("md", "-", True, "-"): True,
    **{("ao-ftrl-prox", "-", l1, hints): False
       for l1 in (False, True) for hints in HINT_POLICIES},
    **{("ao-md", "-", "-", hints): False for hints in HINT_POLICIES},
    ("implicit-md", "-", "-", "-"): True,
    ("nonlin-ftrl", "-", "-", "-"): True,
}


def test_column_play_eligibility_table():
    got = {}
    for preset in PRESETS:
        defaults = preset_defaults(preset)
        for metric in ("diag", "full") if "metric" in defaults else ("-",):
            for l1 in (False, True) if "composite_alpha" in defaults else ("-",):
                for hints in HINT_POLICIES if "hints" in defaults else ("-",):
                    params = {"metric": metric, "hints": hints,
                              "composite_alpha": "-" if l1 == "-" else 0.5 * l1}
                    params = {k: v for k, v in params.items() if v != "-"}
                    driver = Driver(preset, solvers.Box(-np.ones(1), np.ones(1)),
                                    params, hint_fn=lambda t: np.zeros(1))
                    got[preset, metric, l1, hints] = driver.column_play
    assert got == COLUMN_PLAY


def _float_buffers(root) -> list:
    """The float buffers (array bases) reachable from ``root`` through
    containers, object attributes and closures."""
    seen, found, todo = set(), {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, type(sys))):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            if base.dtype.kind == "f":
                found[id(base)] = base
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(c.cell_contents for c in obj.__closure__)
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return list(found.values())


@pytest.mark.parametrize("preset,params", [
    ("adagrad-da", {"metric": "diag"}), ("ogd", {}), ("implicit-md", {}),
    ("adagrad-da", {"metric": "full"})])
def test_random_linear_ledger_losses_read_the_ledgers_g_column(preset, params):
    # exact feedback from a linear loss is its vector, so the ledger's
    # losses read the rows of its g column: no buffer reachable from them
    # is the stream's block of rounds or any other copy of g
    T, d = 150, 6
    led = run(preset, solvers.Box(-np.ones(d), np.ones(d)), params,
              losses.random_stream(d, seed=9), T)
    bufs = _float_buffers(led.losses)
    assert bufs and all(b is led.g for b in bufs), [b.shape for b in bufs]
    stream = losses.random_stream(d, seed=9)
    for t in (1, 64, 65, T):
        f = led.losses[t - 1]
        assert np.array_equal(f.vector, stream.vector(t))
        assert f.value(led.x[t - 1]) == led.loss_value[t - 1]
    assert len(led.prefix(70).losses) == 70


@pytest.mark.parametrize("preset,params", [
    ("nonlin-ftrl", {}), ("implicit-md", {}), ("ogd", {})])
def test_drifting_quadratic_ledger_stores_its_centres_once(preset, params):
    # a stream of quadratics gives its centres as one checked column: the
    # round losses view its rows and the accounting reads it as it is, so
    # no buffer reachable from the ledger's losses or their column is a
    # second copy of the centres (the weight is one float)
    T, d = 150, 6
    seq = losses.sine_drift_quadratic(d, 0.6, 11.0, 1.3)
    led = run(preset, solvers.Ball(np.zeros(d), 1.0), params, seq, T)
    centres, weights = led.quadratic
    assert weights.size == T and weights.base.size == 1
    for root in (led.losses, led.loss_column):
        bufs = _float_buffers(root)
        assert all(b is centres or b.size == 1 for b in bufs), [b.shape for b in bufs]
    for t in (1, 64, T):
        f = led.losses[t - 1]
        assert np.array_equal(f.isotropic[1], seq.center(t))
        assert f.value(led.x[t - 1]) == led.loss_value[t - 1]
    assert np.array_equal(led.loss_column.value(led.x[:-1]), led.loss_value)
    assert led.prefix(70).loss_column.groups[0][2][0].shape == (70, d)


class _CentresRoundByRound(losses.DriftingQuadratic):
    """The same quadratics without their centre column: play reads them
    round by round, through ``Driver.round``."""

    def quadratic_column(self, T):
        return None


def _play_quadratics(stream, preset, params, fs, C, weight):
    """Play ``preset`` on the quadratics of ``weight`` centred at C's rows:
    (ledger or None, driver, the failure's type, message, round and layer
    or None, each warning's category, message and place, the rounds
    ``Driver.round`` played)."""
    driver, calls, led, failed = Driver(preset, fs, dict(params)), [], None, None
    with warnings.catch_warnings(record=True) as caught, mock.patch.object(
            Driver, "round", _spy(calls, "round", Driver.round)):
        warnings.simplefilter("always")
        try:
            led = run_rounds(driver, stream(lambda t: C[t - 1], C.shape[1], weight),
                             len(C))
        except (ValueError, solvers.NumericArgminError) as e:
            failed = (type(e), str(e), e.round, e.layer)
    warned = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    return led, driver, failed, warned, len(calls)


def _bits(v):
    """v as bytes, so NaN matches NaN and 0.0 does not match -0.0; None,
    ints and strings as they are."""
    if isinstance(v, np.ndarray):
        return v.dtype, v.shape, v.tobytes()
    return (type(v), np.float64(v).tobytes()) if type(v) is float else v


def _quadratic_state(driver, led):
    """The driver's end state and, after a run, its ledger's columns and
    losses, each as ``_bits``."""
    r, obj = driver._r_metric, driver._obj
    out = {"x": driver.x, "t": driver.t, "solver_calls": driver.solver_calls,
           "r.kind": r.kind, "r.gamma": r.gamma, "r.dim": r.dim,
           **{f"obj.{k}": getattr(obj, k)
              for k in ("lin", "gamma", "diag", "const", "l1_alpha", "init")}}
    if led is not None:
        out.update({k: getattr(led, k) for k in ("x", "g", "loss_value")})
        for name in ("prox", "q_metric", "r_metric"):
            m = getattr(led, name)
            out.update({f"{name}.{k}": getattr(m, k) for k in ("kind", "gamma", "wide")})
        out["centres"] = np.array([f.isotropic[1] for f in led.losses])
        out["weights"] = np.array([f.isotropic[0] for f in led.losses])
        with np.errstate(over="ignore", invalid="ignore"):
            out["f"] = led.loss_column.value(led.x[:-1])
    return {k: _bits(v) for k, v in out.items()}


@given(preset=st.sampled_from(["nonlin-ftrl", "implicit-md"]),
       kind=st.sampled_from(["box", "ball", "unconstrained"]),
       d=st.one_of(st.integers(1, 6), st.just(256)), T=st.integers(1, 70),
       q0=st.sampled_from([0.0, 1e-3, 1.0, 4.0, 1e308]),
       sigma_r=st.sampled_from([0.0, 0.5, 2.0, 1e308]),
       weight=st.sampled_from([1e-3, 0.5, 1.0, 3.0, 1e150, 1e308]),
       seed=st.integers(0, 2 ** 16), zero=st.integers(0, 2 ** 16),
       big=st.sampled_from([None, 1e155, 1e160, 1e300]), at=st.integers(0, 2 ** 16))
# a centre of norm ~1e160: |c_t|^2 in round 4's fold constant overflows,
# and Driver.round plays rounds 4 to 12, warning, after column play's three
@example(preset="nonlin-ftrl", kind="ball", d=3, T=12, q0=1.0, sigma_r=0.0,
         weight=1.0, seed=1, zero=0, big=1e160, at=3)
# |x_t - c_t|^2 and |c_t|^2 overflow in round 6's f_t and fold constant, and
# nothing in its fold or argmin does: the dots, scanned after the rounds,
# hand rounds 6 to 12 to Driver.round
@example(preset="nonlin-ftrl", kind="box", d=3, T=12, q0=1.0, sigma_r=0.0,
         weight=1e-3, seed=1, zero=0, big=1e155, at=5)
# w (x_t - c_t) overflows in round 2's g: Driver.round warns, then fails
# in its argmin after column play's round 1
@example(preset="implicit-md", kind="box", d=2, T=12, q0=0.0, sigma_r=1.0,
         weight=1e150, seed=1, zero=5, big=1e300, at=1)
# r_1 = 1e308: round 1's certificate warns of a norm's overflow, and
# r_{1:2} = 2e308 overflows: round 2's argmin fails on infinite curvature
@example(preset="implicit-md", kind="ball", d=2, T=12, q0=0.0, sigma_r=1e308,
         weight=1.0, seed=2, zero=0, big=None, at=0)
# q~_0 + w = 2e308 overflows in round 1: its argmin fails on infinite
# curvature, without a warning, in column play and again in Driver.round
@example(preset="nonlin-ftrl", kind="unconstrained", d=2, T=12, q0=1e308,
         sigma_r=0.0, weight=1e308, seed=3, zero=0, big=None, at=0)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_quadratic_column_play_matches_round_by_round_play(
        preset, kind, d, T, q0, sigma_r, weight, seed, zero, big, at):
    # nonlin-ftrl and implicit-md play a drifting-quadratic stream from its
    # centre column (at d = 256 in chunks of 2**14 // d = 64 rounds), and
    # the same stream without its column round by round: their ledgers, the
    # drivers' end states (ftrl's running objective with its constant
    # included), failures and warnings are the same bit for bit.  A centre
    # row is all zeros, and one may be large enough that a round warns or
    # fails; a round that would warn is played by Driver.round
    fs = {"box": lambda: solvers.Box(-np.ones(d), np.ones(d)),
          "ball": lambda: solvers.Ball(np.full(d, 0.1), 0.7),
          "unconstrained": lambda: solvers.Unconstrained(d)}[kind]()
    C = np.random.default_rng(seed).uniform(-1.5, 1.5, (T, d))
    C[zero % T] = 0.0
    if big is not None:
        C[at % T] *= big
    params = {"q0_scale": q0}
    if preset == "implicit-md":
        params["sigma_r"] = sigma_r
    led, driver, failed, warned, rounds = _play_quadratics(
        losses.DriftingQuadratic, preset, params, fs, C, weight)
    led_r, driver_r, failed_r, warned_r, rounds_r = _play_quadratics(
        _CentresRoundByRound, preset, params, fs, C, weight)
    assert failed == failed_r and warned == warned_r
    assert _quadratic_state(driver, led) == _quadratic_state(driver_r, led_r)
    assert rounds_r == driver_r.t + (failed_r is not None)
    if failed is None and not warned:
        # no round was left to Driver.round
        assert rounds == 0 and led.quadratic is not None
