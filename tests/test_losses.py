"""Loss handles, streams, and the probe-based curvature certificates."""

import random

import numpy as np
import pytest

from adaopt.core import INF, bregman
from adaopt.regularizers import Quadratic
from adaopt.core import QuadMetric
from adaopt import losses, solvers


# -- loss constructors ------------------------------------------------------------

def test_linear_loss_basics():
    f = losses.linear_loss([2.0, -1.0])
    x = np.array([1.0, 1.0])
    assert f.value(x) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(f.grad(x), [2.0, -1.0])
    assert f.bregman(np.array([5.0, 0.0]), x) == 0.0
    assert f.smoothness == 0.0


def test_quadratic_loss_bregman():
    f = losses.quadratic_loss(np.array([1.0, 0.0]), 2.0)
    y, x = np.array([0.0, 0.0]), np.array([2.0, 1.0])
    # B(y, x) = (w/2)||y - x||^2 = 1 * 5
    assert f.bregman(y, x) == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(f.star_center, [1.0, 0.0])
    assert f.smoothness == 2.0


def test_two_slope_hand_values():
    # |u| inside the unit interval, 2|u| outside; the jump at |u| = 1 is
    # what breaks convexity while star-convexity toward 0 survives
    f = losses.two_slope_abs(1)
    assert f.value(np.array([0.5])) == pytest.approx(0.5, abs=1e-14)
    assert f.value(np.array([1.5])) == pytest.approx(3.0, abs=1e-14)
    assert f.grad(np.array([0.5]))[0] == pytest.approx(1.0)
    assert f.grad(np.array([1.5]))[0] == pytest.approx(2.0)


def test_two_slope_kink_blows_up_outward():
    # at |u| = 1 the one-sided slope jumps from 1 to 2, so the loss is not
    # convex there and the outward directional derivative reports +inf
    f = losses.two_slope_abs(1)
    assert f.dir_deriv(np.array([1.0]), np.array([1.0])) == INF


def test_sqrt_abs_hand_values():
    f = losses.sqrt_abs(1)
    assert f.value(np.array([4.0])) == pytest.approx(2.0, abs=1e-14)
    assert f.grad(np.array([4.0]))[0] == pytest.approx(0.25, abs=1e-14)
    assert f.grad(np.array([0.0]))[0] == 0.0


def test_power_product_hand_values():
    # f = |x1|^0.5 |x2|^0.7 at (4, 1): 2.  Partials: (0.25, 1.4).
    f = losses.power_product((0.5, 0.7))
    x = np.array([4.0, 1.0])
    assert f.value(x) == pytest.approx(2.0, abs=1e-12)
    g = f.grad(x)
    assert g[0] == pytest.approx(0.25, abs=1e-12)
    assert g[1] == pytest.approx(1.4, abs=1e-12)


def test_bregman_around_matches_direct():
    around = np.array([0.7, -0.4])
    for f in (losses.quadratic_loss(np.array([1.0, 1.0]), 1.3),
              losses.two_slope_abs(2)):
        handle = losses.BregmanAround(f, around)
        y = np.array([0.2, 0.1])
        assert handle.value(y) == pytest.approx(bregman(f, y, around), abs=1e-12)
        assert handle.value(around) == pytest.approx(0.0, abs=1e-14)


# -- streams -----------------------------------------------------------------------

def test_random_stream_reproducible():
    s1 = losses.random_stream(3, seed=9)
    s2 = losses.random_stream(3, seed=9)
    assert np.array_equal(s1.vector(5), s2.vector(5))
    assert not np.array_equal(s1.vector(5), s1.vector(6))
    assert np.all(np.abs(s1.vector(1)) <= 1.0)


def _rng_vector(seed, t, d, scale=1.0):
    """The reference the block kernel must match bit for bit."""
    return scale * np.random.default_rng((seed, t)).uniform(-1.0, 1.0, d)


def _block_starts(d, upto):
    """First rounds of the stream's blocks up to round ``upto``: 64, 128,
    256, ... rounds, capped at 2**14 // d."""
    cap = max(1, losses._BLOCK_FLOATS // d)
    starts, size = [1], min(losses._BLOCK_FIRST, cap)
    while starts[-1] + size <= upto:
        starts.append(starts[-1] + size)
        size = min(2 * size, cap)
    return starts


_RANDOM_SEEDS = [random.Random(11).getrandbits(bits)
                 for bits in (8, 31, 40, 70, 130)]


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5,
                                  2 ** 100 + 3] + _RANDOM_SEEDS)
@pytest.mark.parametrize("d, scale", [(1, 1.0), (10, 1.0), (50, 0.37), (10, 2.5)])
def test_random_stream_matches_default_rng_across_block_boundaries(seed, d, scale):
    # every block start up to round 6 cap (the doubling blocks and a few
    # capped ones) and the rounds on both sides of it; seeds of 1 to 5 uint32
    # words put the round's word inside the SeedSequence pool or past it
    stream = losses.random_stream(d, seed, scale)
    cap = max(1, losses._BLOCK_FLOATS // d)
    starts = _block_starts(d, 6 * cap)
    for s in starts:
        for t in (s - 1, s, s + 1):
            if t >= 1:
                ref = _rng_vector(seed, t, d, scale)
                assert np.array_equal(stream.vector(t), ref), t


@pytest.mark.parametrize("d", [1, 10, 50])
def test_random_stream_matches_default_rng_in_any_access_order(d):
    stream = losses.random_stream(d, 1734586549, 0.5)
    order = (list(range(300, 0, -7)) + [5, 5, 5, 200, 5, 2 ** 32 - 1, 1]
             + list(range(2 ** 32 - 3, 2 ** 32)) + [2 ** 20, 2 ** 20 - 1])
    for t in order:
        ref = _rng_vector(1734586549, t, d, 0.5)
        assert np.array_equal(stream.vector(t), ref), t


def test_random_streams_with_one_seed_share_no_state():
    a, b = losses.random_stream(4, 9), losses.random_stream(4, 9)
    va = a.vector(3)
    assert np.array_equal(b.vector(5000), _rng_vector(9, 5000, 4))
    assert np.array_equal(a.vector(3), va)
    assert np.array_equal(a.vector(4), _rng_vector(9, 4, 4))
    with pytest.raises(ValueError):
        va[0] = 0.0       # a view of the cached block cannot be written


def test_random_stream_variation_matches_per_round_reference():
    d, T = 6, 150
    seq = losses.random_stream(d, 31, scale=1.5)
    ref, prev = [], np.zeros(d)
    for t in range(1, T + 1):
        g = _rng_vector(31, t, d, 1.5)
        ref.append(float(np.dot(g - prev, g - prev)))
        prev = g
    assert seq.per_round_variation(T, solvers.Box(-np.ones(d), np.ones(d))) == ref


def test_random_stream_rejects_negative_seeds_and_rounds_out_of_range():
    for seed in (-1, -(2 ** 40)):
        with pytest.raises(ValueError, match="seed"):
            losses.random_stream(3, seed)
    stream = losses.random_stream(3, 2)
    for t in (0, -1, 2 ** 32, 2 ** 40):
        with pytest.raises(ValueError, match=f"t={t}"):
            stream.vector(t)


def _column_rows(stream, ts):
    """The rows of ``stream.column(ts)``, whose one group is linear."""
    (rows, kind, vs), = stream.column(ts).groups
    assert rows == slice(None) and kind == "linear"
    return vs


# seeds of 1, 2, 3, 4 and 5 uint32 words
_WORD_SEEDS = [3, 2 ** 32 + 1, 2 ** 64 + 5, 2 ** 96 + 7, 2 ** 128 + 9]


@pytest.mark.parametrize("seed", _WORD_SEEDS)
def test_random_stream_column_matches_its_vectors_across_chunks(seed, monkeypatch):
    # at d = 256 a kernel call draws at most 2**14 // 256 = 64 rounds, so
    # 300 rounds are 5 chunks; every row is the round's vector bit for bit
    d, T = 256, 300
    calls = []
    real = losses._uniform_block
    monkeypatch.setattr(losses, "_uniform_block",
                        lambda *a: calls.append(a[1].size) or real(*a))
    vs = _column_rows(losses.random_stream(d, seed, 0.75), range(1, T + 1))
    monkeypatch.undo()
    assert calls == [64] * 4 + [44]
    assert vs.shape == (T, d) and not vs.flags.writeable
    ref = losses.random_stream(d, seed, 0.75)
    for t in range(1, T + 1):
        assert np.array_equal(vs[t - 1], ref.vector(t)), t
    for t in (1, 64, 65, 300):
        assert np.array_equal(vs[t - 1], _rng_vector(seed, t, d, 0.75)), t


@pytest.mark.parametrize("d", [1, 10, 256])
def test_random_stream_column_matches_its_vectors_near_the_last_round(d):
    stream = losses.random_stream(d, 1734586549, 0.5)
    ts = list(range(2 ** 32 - 70, 2 ** 32)) + [5, 1, 2 ** 31]
    vs = _column_rows(stream, ts)
    for t, v in zip(ts, vs):
        assert np.array_equal(v, losses.random_stream(d, 1734586549, 0.5).vector(t)), t
    assert np.array_equal(vs[-4], _rng_vector(1734586549, 2 ** 32 - 1, d, 0.5))


@pytest.mark.parametrize("t", [0, -1, 2 ** 32, 2 ** 40, 2 ** 70])
def test_random_stream_column_names_a_round_out_of_range(t):
    stream = losses.random_stream(3, 2)
    with pytest.raises(ValueError, match=f"t={t} "):
        stream.column([1, 2, t, 3])


def test_random_stream_g_column_is_the_cached_block():
    # play's column of rounds 1..T is what a later lookup of those rounds
    # reads; past it the stream draws its own blocks again
    stream = losses.random_stream(4, 9)
    g = stream.g_column(100)
    assert stream.vector(1).base is g and stream.vector(100).base is g
    assert np.array_equal(stream.vector(101), _rng_vector(9, 101, 4))
    assert np.array_equal(stream.vector(1), g[0])
    assert losses.LinearStream(stream.vector_fn, 4).g_column(100) is None


@pytest.mark.parametrize("d", [1, 7, 256])
def test_stream_variation_is_the_per_round_dot_bit_for_bit(d):
    # the column's row differences and rowdot give each term as the loop
    # float(np.dot(g_t - g_{t-1}, g_t - g_{t-1})), g_0 = 0, gave it
    T = 300
    vs = np.random.default_rng(d).uniform(-2.0, 2.0, (T, d))
    box = solvers.Box(-np.ones(d), np.ones(d))
    for seq in (losses.LinearStream(lambda t: vs[t - 1], d),
                losses.random_stream(d, 5, 1.5)):
        ref, prev = [], np.zeros(d)
        for t in range(1, T + 1):
            diff = seq.vector(t) - prev
            ref.append(float(np.dot(diff, diff)))
            prev = seq.vector(t)
        assert seq.per_round_variation(T, box) == ref
    seq = losses.DriftingQuadratic(lambda t: vs[t - 1], d, weight=1.5)
    per = seq.per_round_variation(T, box)
    for t in range(2, T + 1):
        diff = seq.weight * (seq.center(t) - seq.center(t - 1))
        assert per[t - 1] == float(np.dot(diff, diff)), t


def test_alternating_stream_variation():
    b = np.array([1.0, -2.0])
    seq = losses.alternating_stream(b)
    per = seq.per_round_variation(3, solvers.Box(-np.ones(2), np.ones(2)))
    # t=1 against the zero function, then |2b|^2 each flip
    assert per == pytest.approx([5.0, 20.0, 20.0])


def test_drift_then_constant_variation_saturates():
    b = np.array([0.6, -0.3, 0.45, 0.15])
    seq = losses.drift_then_constant_stream(b, flips=16)
    fs = solvers.Ball(np.zeros(4), 1.0)
    d_400 = np.sum(seq.per_round_variation(400, fs))
    d_1600 = np.sum(seq.per_round_variation(1600, fs))
    assert d_400 == pytest.approx(d_1600, abs=1e-12)
    assert np.array_equal(seq.vector(17), seq.vector(1600))


def test_drifting_quadratic_column_checks_its_centres_once(monkeypatch):
    # the stacked centres are checked together, not round by round, and
    # the column's values are the per-round losses' bit for bit
    T, d = 60, 3
    centers = np.random.default_rng(0).uniform(-1.0, 1.0, (T, d))
    seq = losses.DriftingQuadratic(lambda t: centers[t - 1], d, weight=1.5)
    ts = list(range(1, T + 1))
    x = np.random.default_rng(1).uniform(-1.0, 1.0, (T, d))
    ref = [seq.loss(t).value(x[t - 1]) for t in ts]
    calls = []
    real = losses.as_point
    monkeypatch.setattr(losses, "as_point", lambda v: calls.append(1) or real(v))
    col = seq.column(ts)
    assert len(calls) <= 1
    assert np.array_equal(col.value(x), ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_drifting_quadratic_column_rejects_a_bad_centre_at_any_round(bad):
    T, d = 20, 3
    centers = np.random.default_rng(0).uniform(-1.0, 1.0, (T, d))
    centers[13, 1] = bad
    seq = losses.DriftingQuadratic(lambda t: centers[t - 1], d)
    with pytest.raises(ValueError, match="finite"):
        seq.column(range(1, T + 1))
    for wrong in (lambda t: np.zeros(d + 1), lambda t: np.zeros((d, 1))):
        with pytest.raises(ValueError):
            losses.DriftingQuadratic(wrong, d).column(range(1, T + 1))
    # a scalar centre is a 1-vector, as as_point takes it
    col = losses.DriftingQuadratic(lambda t: 0.5 * t, 1).column([1, 2])
    assert np.array_equal(col.value(np.zeros((2, 1))), [0.125, 0.5])


def test_sine_drift_quadratic_variation_is_exact():
    seq = losses.sine_drift_quadratic(3, amplitude=0.5, period=8.0, weight=1.5)
    fs = solvers.Ball(np.zeros(3), 1.0)
    per = seq.per_round_variation(5, fs)
    # round 1 compares against the zero function: sup over the ball of
    # ||w (x - a_1)||^2 sits at distance radius + |a_1| from the center
    a1 = np.linalg.norm(seq.center(1))
    assert per[0] == pytest.approx((1.5 * (1.0 + a1)) ** 2, rel=1e-9)
    for t in range(2, 6):
        g_now = seq.loss(t).grad(np.zeros(3))
        g_prev = seq.loss(t - 1).grad(np.zeros(3))
        # quadratic gradients differ by a constant, so any probe point works
        assert per[t - 1] == pytest.approx(float(np.sum((g_now - g_prev) ** 2)),
                                           rel=1e-12)
    val, quality = losses.variation_estimate(seq, fs, 5)
    assert quality == "exact"
    assert val == pytest.approx(np.sum(per), rel=1e-12)


def test_fixed_loss_variation_front_loaded():
    f = losses.quadratic_loss(np.zeros(2), 1.0)
    seq = losses.FixedLoss(f, 2)
    per = seq.per_round_variation(4, solvers.Box(-np.ones(2), np.ones(2)))
    assert per[0] > 0.0
    assert per[1:] == [0.0, 0.0, 0.0]


def test_variation_estimate_probe_fallback_underestimates():
    # a stream with no closed form falls back to probing and says so
    class Opaque(losses.LossSequence):
        dim = 2

        def loss(self, t):
            return losses.quadratic_loss(np.array([0.1 * t, 0.0]), 1.0)

        def per_round_variation(self, T, feasible_set):
            return None

    fs = solvers.Box(-np.ones(2), np.ones(2))
    val, quality = losses.variation_estimate(Opaque(), fs, 4,
                                             rng=np.random.default_rng(0))
    assert quality == "probe-estimated"
    # rounds 2..4 have constant gradient differences of norm 0.1, picked up
    # exactly by any probe; the round-1 sup (attained at the corner (-1, 1),
    # squared norm 1.1^2 + 1 = 2.21) is under-estimated by sampling
    assert 3 * 0.01 < val <= 3 * 0.01 + 2.21 + 1e-12


def test_stochastic_loss_noise_accounting():
    base = losses.quadratic_loss(np.zeros(2), 1.0)
    seq = losses.StochasticLoss(base, 2, noise=0.5, noise_kind="gaussian")
    assert seq.stochastic
    rng = np.random.default_rng(3)
    x = np.array([0.5, -0.5])
    g, sigma = seq.gradient(1, x, rng)
    assert np.allclose(g - sigma, base.grad(x))
    # same seed, same draw
    g2, _ = seq.gradient(1, x, np.random.default_rng(3))
    assert np.array_equal(g, g2)
    # uniform noise is variance-matched to the gaussian level, so its
    # half-width is noise * sqrt(3)
    useq = losses.StochasticLoss(base, 2, noise=0.25, noise_kind="uniform")
    for t in range(1, 30):
        _, s = useq.gradient(t, x, rng)
        assert np.all(np.abs(s) <= 0.25 * np.sqrt(3.0) + 1e-15)


# -- certificates ------------------------------------------------------------------

def test_verify_star_convex_classifies_the_zoo():
    rng = np.random.default_rng(5)
    fs = solvers.Box(-2 * np.ones(2), 2 * np.ones(2))
    z = np.zeros(2)
    assert losses.verify_star_convex(losses.quadratic_loss(z, 1.0), z,
                                     feasible_set=fs, n_probes=500, rng=rng)
    assert losses.verify_star_convex(losses.two_slope_abs(2), z,
                                     feasible_set=fs, n_probes=500, rng=rng)
    assert losses.verify_star_convex(losses.power_product((0.5, 0.7)), z,
                                     feasible_set=fs, n_probes=500, rng=rng)
    assert losses.verify_star_convex(losses.l1_loss(1.0, 2), z,
                                     feasible_set=fs, n_probes=500, rng=rng)
    assert not losses.verify_star_convex(losses.sqrt_abs(2), z,
                                         feasible_set=fs, n_probes=500, rng=rng)
    # powers summing under 1 break star-convexity at the center
    assert not losses.verify_star_convex(losses.power_product((0.3, 0.3)), z,
                                         feasible_set=fs, n_probes=500, rng=rng)


def test_estimate_tau_known_constants():
    rng = np.random.default_rng(6)
    fs = solvers.Box(-2 * np.ones(2), 2 * np.ones(2))
    z = np.zeros(2)
    cases = [
        (losses.quadratic_loss(z, 1.7), 2.0),
        (losses.sqrt_abs(2), 0.5),
        (losses.two_slope_abs(2), 1.0),
        (losses.power_product((0.5, 0.7)), 1.2),
    ]
    for f, expected in cases:
        tau = losses.estimate_tau(f, z, feasible_set=fs, n_probes=400, rng=rng)
        assert tau == pytest.approx(expected, abs=1e-9)


def test_estimate_tau_strong_quadratic_closed_form():
    # f = (w/2)||x||^2 against r = (1/2)||x||^2: the ratio
    # (f-gap minus B_r) / f-gap is exactly 2 - 1/w
    rng = np.random.default_rng(7)
    z = np.zeros(2)
    r = Quadratic(z, QuadMetric.scaled(1.0, 2), 1.0)
    for w in (0.7, 1.0, 2.0):
        f = losses.quadratic_loss(z, w)
        ts = losses.estimate_tau_strong(f, r, z, n_probes=300, rng=rng)
        assert ts == pytest.approx(2.0 - 1.0 / w, abs=1e-9)
        assert losses.verify_tau_star_strong(f, r, z, ts, n_probes=300, rng=rng)
        assert not losses.verify_tau_star_strong(f, r, z, ts + 0.05,
                                                 n_probes=300, rng=rng)


def test_check_pl_sharp_constant():
    # (w/2)||x||^2 satisfies the gradient-dominance inequality with mu = w
    # and with nothing larger
    rng = np.random.default_rng(8)
    for w in (0.7, 1.0, 2.0):
        f = losses.quadratic_loss(np.zeros(2), w)
        assert losses.check_pl(f, w, rng=rng)
        assert not losses.check_pl(f, 1.1 * w, rng=rng)


def test_a_loss_named_quadratic_is_what_its_handles_compute():
    # a library loss with quadratic_loss's name and a star centre but another
    # value: only quadratic_loss's mark makes a loss a closed-form quadratic,
    # for the loss column, the objective fold and the comparator alike
    f = losses.Loss("quadratic", value=lambda x: float(np.sum(x ** 4)),
                    grad=lambda x: 4.0 * x ** 3, smoothness=1.0,
                    star_center=[0.0, 0.0])
    x = np.array([0.5, 2.0])
    assert f.value(x) == 16.0625
    assert not losses.is_isotropic_quadratic(f)
    assert losses.LossColumn.of([f]).value(x)[0] == 16.0625
    fold = solvers.Objective.build(solvers.Unconstrained(2),
                                   regularizer=losses.BregmanAround(f, x))
    assert fold.losses == [f] and fold.gamma == 0.0
    q = losses.quadratic_loss([0.0, 0.0])
    assert losses.is_isotropic_quadratic(q)
    assert losses.LossColumn.of([q]).value(x)[0] == q.value(x) == 2.125
    # likewise a loss named "linear" has no closed-form variation
    named_linear = losses.Loss("linear", value=f.value, grad=f.grad)
    box = solvers.Box(-np.ones(2), np.ones(2))
    assert losses.FixedLoss(named_linear, 2).per_round_variation(3, box) is None
