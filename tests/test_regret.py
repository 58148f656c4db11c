"""Regret accounting: the decomposition identity, the bound calculators,
comparator selection, and the ledger export."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaopt import losses, solvers, suites
from adaopt.core import INF, dual_norm_sq
from adaopt.learners import PRESETS, Driver, run_rounds
from adaopt.regret import (
    TABLE2_CASES, BoundInputs, bound_ao_ftrl, bound_ao_md, bound_final_attack,
    bound_forward_ftrl, bound_forward_md, bound_table2,
    bound_variational_smooth, decomposition_residual, decomposition_terms,
    empirical_regret, forward_regret, ledger_header, ledger_rows, scale_tau,
    BoundReport, _dual_values, select_comparator, sum_sqrt_check,
)


def scripted(vectors):
    arr = [np.asarray(v, dtype=float) for v in vectors]
    return losses.LinearStream(lambda t: arr[t - 1], arr[0].size, "scripted")


def two_round_ledger():
    # ogd, eta = 1, unit interval, gradients +1 then -1:
    #   x1 = 0, x2 = -1, x3 = 0
    seq = scripted([[1.0], [-1.0]])
    return run_rounds(Driver("ogd", solvers.Ball(np.zeros(1), 1.0), {"eta": 1.0},
                             solver_tol=1e-12), seq, 2,
                      rng=np.random.default_rng(0))


def test_two_round_hand_ledger():
    led = two_round_ledger()
    x_star = np.zeros(1)
    # regret: 1*0 + (-1)*(-1) - 0 = 1; forward: 1*(-1) + (-1)*0 = -1
    assert empirical_regret(led, x_star) == pytest.approx(1.0, abs=1e-12)
    assert forward_regret(led, x_star) == pytest.approx(-1.0, abs=1e-12)
    assert decomposition_residual(led, x_star) == 0.0
    # forward bound: q and p differences vanish at x* = x1 = 0, the two
    # divergence terms are 1/2 each: -1 exactly
    rep = bound_forward_ftrl(led, x_star)
    assert rep.value == pytest.approx(-1.0, abs=1e-12)
    # full bound: dual terms 1/2 ||g||^2 at metric 1 sum to 1
    rep = bound_table2(led, x_star, "oo-ftrl")
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.certified


def test_decomposition_terms_sees_gradient_noise():
    # one quadratic round with a deliberately wrong gradient: the delta
    # term carries exactly the inner product of the error with x* - x
    base = losses.quadratic_loss(np.zeros(2), 1.0)
    seq = losses.StochasticLoss(base, 2, noise=0.5)
    led = run_rounds(Driver("ogd", solvers.Ball(np.zeros(2), 1.0), {"eta": 0.5},
                            solver_tol=1e-12), seq, 6,
                     rng=np.random.default_rng(1))
    x_star = np.array([0.2, -0.1])
    terms = decomposition_terms(led, x_star)
    for i, rec in enumerate(led.records):
        expect = float(np.dot(rec.sigma, x_star - rec.x))
        assert terms["delta"][i] == pytest.approx(expect, abs=1e-12)
        assert terms["breg_loss"][i] >= -1e-12
    assert decomposition_residual(led, x_star) <= 1e-12


def test_forward_plus_terms_reconstructs_regret():
    led = two_round_ledger()
    x_star = np.array([0.5])
    terms = decomposition_terms(led, x_star)
    rhs = (np.sum(terms["lin_fwd"]) + np.sum(terms["drift"])
           - np.sum(terms["breg_loss"]) + np.sum(terms["delta"]))
    assert empirical_regret(led, x_star) == pytest.approx(rhs, abs=1e-12)


# -- bound calculators ------------------------------------------------------------

def test_bound_case_and_kind_must_match():
    led = two_round_ledger()
    with pytest.raises(ValueError):
        bound_table2(led, np.zeros(1), "oo-md")
    with pytest.raises(ValueError):
        bound_table2(led, np.zeros(1), "table-3")
    with pytest.raises(ValueError):
        bound_ao_md(led, np.zeros(1))


def test_final_q_term_is_the_whole_difference():
    # dropping the last q term changes the bound by exactly
    # q_T(x*) - q_T(x_{T+1}); the drop variant is below the general bound
    # precisely when that evaluated term is non-negative
    rng = np.random.default_rng(2)
    for _ in range(20):
        driver, seq, T = suites.random_run(rng, "adagrad-da")
        led = run_rounds(driver, seq, T, rng=rng)
        x_star = led.feasible_set.sample(rng)
        full = bound_table2(led, x_star, "oo-ftrl")
        drop = bound_table2(led, x_star, "oo-ftrl", include_final_q=False)
        rec = led.records[-1]
        final_term = rec.q.value(x_star) - rec.q.value(rec.x_next)
        assert full.value - drop.value == pytest.approx(final_term, abs=1e-10)
        if final_term >= 0.0:
            assert drop.value <= full.value + 1e-12


def test_dropped_q_variant_still_bounds_regret():
    # with zero hints the optimistic bound coincides with the dropped-q
    # variant, which certifies it as a valid full-regret bound on its own
    rng = np.random.default_rng(3)
    for variant in ("ogd", "da", "adagrad-da", "ftrl-prox"):
        for _ in range(5):
            driver, seq, T = suites.random_run(rng, variant)
            led = run_rounds(driver, seq, T, rng=rng)
            x_star = led.feasible_set.sample(rng)
            drop = bound_table2(led, x_star, "oo-ftrl", include_final_q=False)
            assert drop.value >= empirical_regret(led, x_star) - 1e-8


def test_strong_case_certificate_gating():
    ball = solvers.Ball(np.zeros(2), 1.0)
    seq = losses.FixedLoss(losses.quadratic_loss(np.array([0.3, 0.0]), 1.0), 2)
    ok = run_rounds(Driver("md", ball, {"q0_scale": 0.0, "sigma_r": 0.8},
                           solver_tol=1e-11), seq, 10,
                    rng=np.random.default_rng(4))
    x_star = select_comparator(ok)
    assert bound_table2(ok, x_star, "oo-md-strong").certified
    # regularizer curvature above the loss curvature: certificate refused
    over = run_rounds(Driver("md", ball, {"q0_scale": 0.0, "sigma_r": 2.0},
                             solver_tol=1e-11), seq, 10,
                      rng=np.random.default_rng(4))
    rep = bound_table2(over, select_comparator(over), "oo-md-strong")
    assert not rep.certified
    assert any("curvature" in n for n in rep.notes)


def test_ao_bound_with_zero_hints_is_the_dropped_q_bound():
    rng = np.random.default_rng(5)
    driver, seq, T = suites.random_run(rng, "ao-ftrl-prox")
    driver.hint_policy = "none"
    led = run_rounds(driver, seq, T, rng=rng)
    x_star = led.feasible_set.sample(rng)
    ao = bound_ao_ftrl(led, x_star)
    plain = bound_table2(led, x_star, "oo-ftrl", include_final_q=False)
    assert ao.terms["hint_err_sum"] == pytest.approx(
        plain.terms["grad_sum"], rel=1e-12, abs=1e-12)
    assert ao.terms["q_sum"] == pytest.approx(plain.terms["q_sum"],
                                              rel=1e-12, abs=1e-12)
    assert ao.value == pytest.approx(plain.value, rel=1e-12, abs=1e-12)


def test_ao_md_bound_covers_regret():
    rng = np.random.default_rng(6)
    for _ in range(5):
        driver, seq, T = suites.random_run(rng, "ao-md")
        led = run_rounds(driver, seq, T, rng=rng)
        x_star = led.feasible_set.sample(rng)
        rep = bound_ao_md(led, x_star)
        assert rep.value >= empirical_regret(led, x_star) - 1e-8


def _final_attack_run(T=60, smooth_l=1.0):
    seq = losses.sine_drift_quadratic(3, amplitude=0.4, period=9.0, weight=1.0)
    fs = solvers.Ball(np.zeros(3), 1.0)
    led = run_rounds(Driver("ao-ftrl-prox", fs,
                            {"eta_schedule": "final-attack", "smooth_l": smooth_l,
                             "hints": "prev-gradient"}, solver_tol=1e-11),
                     seq, T, rng=np.random.default_rng(7))
    return led, seq, fs


def test_variational_bound_wiring():
    led, seq, fs = _final_attack_run()
    x_star = select_comparator(led)
    terms = seq.per_round_variation(led.T, fs)
    inputs = BoundInputs(smoothness=1.0, variation_terms=terms,
                         variation=float(np.sum(terms)))
    rep = bound_variational_smooth(led, x_star, inputs)
    # recompute every piece from the raw records
    q = led.q0_tilde.value(x_star) + sum(r.q_tilde.value(x_star) for r in led.records)
    p = sum(r.p.value(x_star) for r in led.records)
    v = 2.0 * sum(term / r.eta for term, r in zip(terms, led.records))
    assert rep.value == pytest.approx(q + p + v, rel=1e-12)
    assert rep.value >= empirical_regret(led, x_star) - 1e-8


def test_variational_bound_checks_eta_condition():
    led, seq, fs = _final_attack_run()
    terms = seq.per_round_variation(led.T, fs)
    bad = BoundInputs(smoothness=50.0, variation_terms=terms)
    with pytest.raises(ValueError):
        bound_variational_smooth(led, select_comparator(led), bad)
    with pytest.raises(ValueError):
        bound_variational_smooth(led, select_comparator(led),
                                 BoundInputs(smoothness=1.0))


def test_final_attack_bound_formula_and_gating():
    led, seq, fs = _final_attack_run()
    D = float(np.sum(seq.per_round_variation(led.T, fs)))
    rep = bound_final_attack(led, BoundInputs(radius=1.0, smoothness=1.0,
                                              variation=D))
    assert rep.value == pytest.approx(2.0 + 1.0 + 2.0 * math.sqrt(2.0 * D),
                                      rel=1e-12)
    other = two_round_ledger()
    with pytest.raises(ValueError):
        bound_final_attack(other, BoundInputs(radius=1.0, variation=D))


def test_scale_tau_formula_and_guards():
    led = two_round_ledger()
    rep = bound_table2(led, np.zeros(1), "oo-ftrl")
    scaled = scale_tau(rep, 0.5, breg_reg_sum=0.25)
    assert scaled.value == pytest.approx((rep.value - 0.25) / 0.5, abs=1e-12)
    assert scaled.terms["breg_reg_correction"] == -0.25
    assert scaled.case.endswith("tau=0.5")
    with pytest.raises(ValueError):
        scale_tau(rep, 0.0)
    with pytest.raises(ValueError):
        scale_tau(rep, 1.5)


@pytest.mark.parametrize("preset,params", [
    ("adagrad-da", {"metric": "full"}),
    ("ftrl-prox", {"metric": "full", "gamma0": 0.3})])
def test_full_metric_dual_norms_are_the_direct_solves(preset, params):
    # a full row's dual norm is sum_j p_j^2 / (lam_j - s) over the
    # eigenvalues and projections play recorded: for g and for the noise
    # sigma it agrees with a solve under the stored root less s I, and the
    # first round whose metric cannot absorb s is named as the metric's own
    # check names it
    d, T = 5, 12
    seq = losses.StochasticLoss(losses.quadratic_loss(np.full(d, 0.2), 1.0), d,
                                noise=0.3)
    led = run_rounds(Driver(preset, solvers.Box(-np.ones(d), np.ones(d)), params),
                     seq, T, rng=np.random.default_rng(4))
    m = led.r_metric

    def direct(V, s):
        # adagrad-da's first row is q~_0's scaled identity
        return np.array([0.5 * v.dot(np.linalg.solve(
            m[i]._summand(d) - s * np.eye(d), v)) for i, v in enumerate(V)])

    def dual(name, s):
        rep = BoundReport("test", 0.0, {})
        return rep, _dual_values(rep, led, getattr(led, name), s, m.proj[name])

    for name in ("g", "sigma"):
        rep, got = dual(name, 0.0)
        assert rep.certified and rep.notes == []
        assert got == pytest.approx(direct(getattr(led, name), 0.0), rel=1e-12)
    # halve a middle round's root, and its eigenvalues with it: a shift
    # every other round absorbs uncertifies that round and those after it
    k = T // 2
    m[k].matrix[...] *= 0.5
    m.evals[k] *= 0.5
    low = np.array([np.linalg.eigvalsh(m[i]._summand(d))[0] for i in range(T)])
    s = 0.5 * (low[k] + np.delete(low, k).min())
    assert low[k] < s < np.delete(low, k).min()
    with pytest.raises(ValueError):
        m[k].shift_identity(-s)
    for name in ("g", "sigma"):
        rep, got = dual(name, s)
        assert not rep.certified
        assert rep.notes == [f"round {k + 1}: metric cannot absorb smoothness {s}"]
        V = getattr(led, name)
        assert got[:k] == pytest.approx(direct(V[:k], s), rel=1e-12)
        assert np.all(got[k:] == INF)


def test_uncertified_metric_reports_inf_not_a_number():
    led = two_round_ledger()
    led.r_metric.gamma[1] = 0.0     # round 2's metric cannot take a dual norm
    rep = bound_table2(led, np.zeros(1), "oo-ftrl")
    assert rep.value == INF and math.isfinite(rep.running[0])
    assert not rep.certified
    assert rep.notes == ["round 2: scaled-identity metric has gamma = 0"]


# -- comparator selection -----------------------------------------------------------

def test_comparator_explicit_checks_feasibility():
    led = two_round_ledger()
    assert np.allclose(select_comparator(led, "explicit", np.array([0.5])), [0.5])
    with pytest.raises(ValueError):
        select_comparator(led, "explicit", np.array([2.0]))
    with pytest.raises(ValueError):
        select_comparator(led, "no-such-policy")


def test_comparator_star_center():
    seq = losses.FixedLoss(losses.two_slope_abs(2), 2)
    led = run_rounds(Driver("ogd", solvers.Ball(np.zeros(2), 1.0), {"eta": 0.1},
                            solver_tol=1e-11), seq, 3,
                     rng=np.random.default_rng(8))
    assert np.allclose(select_comparator(led, "star-center"), np.zeros(2))


def test_comparator_offline_linear_matches_brute_force():
    rng = np.random.default_rng(9)
    box = solvers.Box(np.array([-1.0, -0.5]), np.array([0.5, 1.0]))
    vs = [rng.normal(size=2) for _ in range(7)]
    led = run_rounds(Driver("ogd", box, {"eta": 0.1}, solver_tol=1e-11),
                     scripted(vs), 7, rng=rng)
    x_star = select_comparator(led)
    g = np.sum(vs, axis=0)
    lo, hi = box.lo, box.hi
    best = min((float(np.dot(g, np.array([a, b]))), (a, b))
               for a in (lo[0], hi[0]) for b in (lo[1], hi[1]))
    assert float(np.dot(g, x_star)) == pytest.approx(best[0], abs=1e-12)


def test_comparator_offline_quadratic_weighted_mean():
    seqs = [losses.quadratic_loss(np.array([1.0, 0.0]), 1.0),
            losses.quadratic_loss(np.array([0.0, 1.0]), 3.0)]

    class Two(losses.LossSequence):
        dim = 2

        def loss(self, t):
            return seqs[(t - 1) % 2]

    led = run_rounds(Driver("ogd", solvers.Unconstrained(2), {"eta": 0.1},
                            solver_tol=1e-11), Two(), 4,
                     rng=np.random.default_rng(10))
    x_star = select_comparator(led)
    # argmin of the sum: weighted mean of the centers, weights (2, 6)
    assert np.allclose(x_star, [0.25, 0.75], atol=1e-12)


def test_comparator_composite_breakpoints_match_brute_force():
    box = solvers.Box(-np.ones(2), np.ones(2))
    vs = [[0.4, -1.5]] * 5
    led = run_rounds(Driver("ftrl-prox", box,
                            {"composite_alpha": 0.5, "eta": 0.5, "gamma0": 1.0},
                            solver_tol=1e-11), scripted(vs), 5,
                     rng=np.random.default_rng(11))
    x_star = select_comparator(led)
    g = np.sum(vs, axis=0)
    alpha = sum(rec.psi.alpha for rec in led.records if rec.psi is not None)

    def total(x):
        return float(np.dot(g, x)) + alpha * float(np.sum(np.abs(x)))

    xs = np.linspace(-1, 1, 401)
    brute = min(total(np.array([a, b])) for a in xs for b in xs)
    assert total(x_star) <= brute + 1e-12


def test_comparator_unbounded_rejected_honestly():
    led = run_rounds(Driver("ogd", solvers.Unconstrained(2), {"eta": 0.1},
                            solver_tol=1e-11), scripted([[1.0, 0.0]] * 3), 3,
                     rng=np.random.default_rng(12))
    with pytest.raises(ValueError):
        select_comparator(led)


# -- randomized forward-bound coverage, stratified over every variant --------------

@pytest.mark.parametrize("variant", suites._RUN_VARIANTS)
def test_forward_bound_holds_per_variant(variant):
    rng = np.random.default_rng(hash(variant) % 2 ** 32)
    for _ in range(15):
        driver, seq, T = suites.random_run(rng, variant)
        led = run_rounds(driver, seq, T, rng=rng)
        x_star = led.feasible_set.sample(rng)
        rep = (bound_forward_ftrl if led.kind == "ftrl"
               else bound_forward_md)(led, x_star)
        assert rep.value >= forward_regret(led, x_star) - 1e-8


# -- ledger export -----------------------------------------------------------------

def _noisy_quadratic_run(kind, seed=13, T=30):
    """A stochastic run whose metric absorbs smoothness 1 from round 1."""
    fs = solvers.Box(-np.ones(3), np.ones(3))
    seq = losses.StochasticLoss(losses.quadratic_loss(np.full(3, 0.2), 1.0), 3,
                                noise=0.3)
    driver = (Driver("ogd", fs, {"eta": 0.1}, solver_tol=1e-12) if kind == "ftrl"
              else Driver("md", fs, {"q0_scale": 2.0, "sigma_r": 2.0},
                          solver_tol=1e-12))
    return run_rounds(driver, seq, T, rng=np.random.default_rng(seed))


def _inputs_for(case):
    return BoundInputs(smoothness=1.0, d_init=0.5) if case.startswith("smooth") \
        else None


@pytest.mark.parametrize("case", TABLE2_CASES)
def test_ledger_rows_layout_and_totals(case):
    led = _noisy_quadratic_run("ftrl" if case.endswith("ftrl") else "md")
    x_star = select_comparator(led)
    header = ledger_header(led.dim)
    rows = ledger_rows(led, x_star, case, inputs=_inputs_for(case))
    assert header[0] == "t" and header[-3:] == ["cum_regret", "cum_bound", "slack"]
    assert len(rows) == led.T
    assert all(len(r) == len(header) for r in rows)
    last = rows[-1]
    assert last[header.index("cum_regret")] == empirical_regret(led, x_star)
    rep = bound_table2(led, x_star, case, inputs=_inputs_for(case))
    assert math.isfinite(rep.value)
    assert last[header.index("cum_bound")] == rep.value
    assert last[header.index("slack")] == \
        last[header.index("cum_bound")] - last[header.index("cum_regret")]


@pytest.mark.parametrize("kind", ["ftrl", "md"])
def test_report_terms_equal_the_loop_sums(kind):
    # the running sums add in loop order, so the totals are the loop's bit
    # for bit (a pairwise np.sum would not be)
    led = _noisy_quadratic_run(kind)
    x_star = select_comparator(led)
    q = led.q0.value(x_star) - led.q0.value(led.x1)
    comp = grad = 0.0
    for rec in led.records:
        q += rec.q.value(x_star) - rec.q.value(rec.x_next)
        comp += (rec.p.value(x_star) - rec.p.value(rec.x) if kind == "ftrl"
                 else rec.p.bregman(x_star, rec.x))
        grad += 0.5 * dual_norm_sq(rec.r_metric, rec.g)
    rep = bound_table2(led, x_star, f"oo-{kind}")
    comp_name = "p_sum" if kind == "ftrl" else "bp_sum"
    assert rep.terms == {"q_sum": q, comp_name: comp, "grad_sum": grad}
    assert rep.value == q + comp + grad


_OTHER_BOUNDS = {"forward-ftrl": bound_forward_ftrl, "forward-md": bound_forward_md,
                 "ao-ftrl": bound_ao_ftrl, "ao-md": bound_ao_md}


@pytest.mark.parametrize("case", TABLE2_CASES + tuple(_OTHER_BOUNDS))
def test_running_bound_is_the_truncated_runs_bound(case):
    # row t of a report's running bound is the report of the run cut after
    # round t, bit for bit
    led = _noisy_quadratic_run("ftrl" if case.endswith("ftrl") else "md", T=12)
    x_star = select_comparator(led)

    def report(ledger):
        if case in _OTHER_BOUNDS:
            return _OTHER_BOUNDS[case](ledger, x_star)
        return bound_table2(ledger, x_star, case, inputs=_inputs_for(case))

    full = report(led)
    assert len(full.running) == led.T and full.running[-1] == full.value
    for t in (1, 5, 11):
        cut = led.prefix(t)
        assert report(cut).value == full.running[t - 1], t


def test_ledger_rows_reject_unknown_case():
    led = two_round_ledger()
    with pytest.raises(ValueError):
        ledger_rows(led, np.zeros(1), "nonsense")


# -- scalar lemma ------------------------------------------------------------------

def test_sum_sqrt_frozen_values():
    lhs, rhs = sum_sqrt_check(np.ones(4))
    # 1 + 1/sqrt(2) + 1/sqrt(3) + 1/2
    assert lhs == pytest.approx(2.7844570503761734, abs=1e-15)
    assert rhs == 4.0
    with pytest.raises(ValueError):
        sum_sqrt_check([0.0, 1.0])
    with pytest.raises(ValueError):
        sum_sqrt_check([1.0, -0.5])


@given(st.lists(st.floats(min_value=1e-6, max_value=100.0), min_size=1,
                max_size=30))
@settings(max_examples=300, deadline=None)
def test_sum_sqrt_inequality(a):
    lhs, rhs = sum_sqrt_check(np.array(a))
    assert lhs <= rhs + 1e-9 * rhs


# every preset's bound terms against the loop over its record handles
_BOUND_RUNS = [(p, {}) for p in PRESETS] + [
    ("ftrl-prox", {"gamma0": 0.5, "composite_alpha": 0.1}),
    ("ftrl-prox", {"gamma0": 0.5, "composite_alpha": 0.1,
                   "composite_setting": "known-before"}),
    ("md", {"composite_alpha": 0.05}),
    ("md", {"sigma_r": 0.5}),
    ("adagrad-da", {"metric": "full"}),
    ("ao-ftrl-prox", {"hints": "none"}),
]


@pytest.mark.parametrize("preset,params", _BOUND_RUNS)
def test_bound_terms_are_the_loops_over_the_record_handles(preset, params):
    # the bound columns add in the order of the per-round loop over the
    # records' p, q, q~ and r_metric, so they equal it bit for bit
    d, T = 3, 15
    centers = np.random.default_rng(2).uniform(-0.8, 0.8, (T, d))
    seq = losses.DriftingQuadratic(lambda t: centers[t - 1], d) \
        if preset in ("implicit-md", "nonlin-ftrl") \
        else losses.random_stream(d, seed=11)
    led = run_rounds(Driver(preset, solvers.Box(-np.ones(d), np.ones(d)),
                            params, solver_tol=1e-12), seq, T)
    x_star = select_comparator(led)
    loop = {k: [] for k in ("q", "q~", "p", "grad", "hint_err", "breg")}
    for rec in led.records:
        for key, q in (("q", rec.q), ("q~", rec.q_tilde)):
            loop[key].append(q.value(x_star) - q.value(rec.x_next))
        loop["p"].append(rec.p.value(x_star) - rec.p.value(rec.x)
                         if led.kind == "ftrl" else rec.p.bregman(x_star, rec.x))
        v = rec.g - rec.hint
        loop["grad"].append(0.5 * dual_norm_sq(rec.r_metric, rec.g))
        loop["hint_err"].append(0.5 * dual_norm_sq(rec.r_metric, v)
                                if np.any(v) else 0.0)
        loop["breg"].append(rec.breg_r)
    total = {k: float(np.cumsum(v)[-1]) for k, v in loop.items()}
    q0, q0_tilde = (q.value(x_star) - q.value(led.x1)
                    for q in (led.q0, led.q0_tilde))
    comp = "p_sum" if led.kind == "ftrl" else "bp_sum"
    # a full row's dual norm reads the eigenpairs play recorded, where the
    # handle's solve decomposes the stored root again: those agree to rounding
    dual = (lambda v: v) if led.r_metric.evals is None \
        else (lambda v: pytest.approx(v, rel=1e-12))
    oo = bound_table2(led, x_star, f"oo-{led.kind}")
    assert oo.terms == {"q_sum": float(np.cumsum([q0] + loop["q"])[-1]),
                        comp: total["p"], "grad_sum": dual(total["grad"])}
    fwd = (bound_forward_ftrl if led.kind == "ftrl" else bound_forward_md)(led, x_star)
    assert fwd.terms == {"q_sum": oo.terms["q_sum"], comp: total["p"],
                         "breg_r_sum": total["breg"]}
    ao = (bound_ao_ftrl if led.kind == "ftrl" else bound_ao_md)(led, x_star)
    assert ao.terms == {"q_sum": float(np.cumsum([q0_tilde] + loop["q~"])[-2]),
                        comp: total["p"], "hint_err_sum": dual(total["hint_err"])}
