"""A textbook reference for the round path.

Every preset below is written out again as a plain per-coordinate
recursion, with none of adaopt's regularizers, objectives or solvers.  On a
box or the free set with a scalar or diagonal metric each argmin is closed
form coordinatewise: soft-threshold for the l1 term, then clip.  On a ball
with an isotropic metric (ogd, da, md, ao-ftrl-prox and ao-md, without l1)
it is the projection of the unconstrained minimizer.  Every preset is
played both round by round and in chunks, from a stream that gives its g
column.  The presets that need their loss, nonlin-ftrl and implicit-md,
are written out on drifting quadratics f_t = (w/2) ||x - c_t||^2, played
from their centre column and round by round:

    nonlin-ftrl:  x_{t+1} = Proj((sum_{s<=t} w c_s) / (q0 + t w))
    implicit-md:  x_{t+1} = Proj((w c_t + gamma_t x_t) / (w + gamma_t)),
                  gamma_t = q0 + t sigma_r

    ftrl:  x_{t+1} = argmin <g_{1:t} + h_{t+1}, x> + p_{1:t}(x) + q_{0:t}(x)
    md:    x_{t+1} = argmin <g_t + h_{t+1} - h_t, x> + psi(x) + B_{r_{1:t}}(x, x_t)

with p_s centred at x_s and q_s at the origin.  The Driver's iterates and
its r-divergences B_{r_{1:t}}(x_{t+1}, x_t) must agree with it to 1e-9
relative.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaopt import losses, solvers
from adaopt.learners import Driver, run_rounds

LO, HI = -0.5, 0.75
CENTER, RADIUS = 0.1, 0.6     # the ball: every coordinate of its centre is 0.1
TOL = 1e-9

# (preset, params); every gamma0 is positive: at gamma0 = 0 a coordinate
# whose gradients are all 0 has no curvature, and the argmin is ill-posed
CASES = [
    ("ogd", {"eta": 0.7}),
    ("da", {"alpha0": 1.5, "alpha_growth": 0.8}),
    ("adagrad-da", {"eta": 0.9, "gamma0": 0.6}),
    ("ftrl-prox", {"eta": 1.1, "gamma0": 0.4}),
    ("ftrl-prox", {"eta": 1.1, "gamma0": 0.4, "composite_alpha": 0.3,
                   "composite_setting": "revealed-after"}),
    ("ftrl-prox", {"eta": 0.8, "gamma0": 0.5, "composite_alpha": 0.2,
                   "composite_setting": "known-before"}),
    ("ao-ftrl-prox", {"eta0": 0.8, "hints": "prev-gradient"}),
    ("adagrad-md", {"eta": 0.9, "gamma0": 0.6}),
    ("md", {"q0_scale": 1.2, "sigma_r": 0.5}),
    ("md", {"q0_scale": 1.2, "sigma_r": 0.5, "composite_alpha": 0.2,
            "composite_setting": "revealed-after"}),
    ("md", {"q0_scale": 0.9, "sigma_r": 0.3, "composite_alpha": 0.1,
            "composite_setting": "known-before"}),
    ("ao-md", {"q0_scale": 0.0, "sigma_r": 1.3, "hints": "prev-gradient"}),
]
# adagrad-md's r_1 has no curvature on a coordinate whose g_1 is 0, so its
# round-1 argmin is ill-posed there; it gets no zeros
NO_ZERO_COORDINATES = {"adagrad-md"}


# the cases whose metric is a multiple of the identity in every round
BALL_CASES = [i for i, (preset, p) in enumerate(CASES)
              if preset in ("ogd", "da", "md", "ao-ftrl-prox", "ao-md")
              and "composite_alpha" not in p]


def _argmin(a, b, alpha, where):
    """Per coordinate, argmin (a/2) x^2 - b x + alpha |x|, then clipped to
    the box; on the ball, where a is one scale and alpha 0, the minimizer
    projected."""
    x = np.sign(b) * np.maximum(np.abs(b) - alpha, 0.0) / a
    if where == "box":
        return np.clip(x, LO, HI)
    if where == "ball":
        n = float(np.linalg.norm(x - CENTER))
        return x if n <= RADIUS else CENTER + (x - CENTER) * (RADIUS / n)
    return x


def _l1_breg(y, x):
    """B_{||.||_1}(y, x) = sum_j |y_j| - |x_j| - d/ds |x_j + s (y_j - x_j)| at 0+."""
    dd = np.where(x != 0.0, np.sign(x) * (y - x), np.abs(y - x))
    return float(np.sum(np.abs(y) - np.abs(x) - dd))


def reference(preset, p, G, where):
    """(iterates x_1..x_{T+1}, r-divergences) of ``preset`` on gradients G
    over ``where``: "box", "free" or "ball"."""
    T, d = G.shape
    start = np.full(d, {"box": 0.5 * (LO + HI), "free": 0.0, "ball": CENTER}[where])
    alpha = p.get("composite_alpha", 0.0)
    known = p.get("composite_setting") == "known-before"
    eta, gamma0 = p.get("eta", 1.0), p.get("gamma0", 0.0)
    root = math.sqrt(gamma0) / eta if gamma0 else 0.0
    hints = "hints" in p
    sq = np.full(d, gamma0)                # adagrad: gamma0 + sum g^2
    bregs, h = [], np.zeros(d)
    if preset in ("md", "adagrad-md", "ao-md"):
        q0 = p.get("q0_scale", 0.0) if preset != "adagrad-md" else 0.0
        x = _argmin(q0, np.zeros(d), alpha if known else 0.0, where) if q0 else start
        xs, R = [x], np.zeros(d)
        for t in range(1, T + 1):
            g = G[t - 1]
            if preset == "adagrad-md":
                prev = np.sqrt(sq)
                sq = sq + g * g
                R = R + (np.sqrt(sq) - prev) / eta
            else:
                R = R + (q0 + p["sigma_r"] if t == 1 else p["sigma_r"])
            h_next = g if hints else h
            x_next = _argmin(R, R * x - g - (h_next - h), alpha, where)
            bregs.append(0.5 * float(np.sum(R * (x_next - x) ** 2)))
            x, h = x_next, h_next
            xs.append(x)
        return np.array(xs), np.array(bregs)

    # ftrl: A is the curvature of r_{0:t}, B the sum of its curvature times
    # centre, lin the linear part, l1 the weight of q_{0:t}'s l1 terms
    A = np.full(d, {"ogd": 1.0 / p.get("eta", 1.0), "da": p.get("alpha0", 1.0),
                    "adagrad-da": root, "ftrl-prox": root}.get(preset, 0.0))
    B, lin = np.zeros(d), np.zeros(d)
    l1 = alpha if known else 0.0
    x = _argmin(A, B, l1, where) if A.any() else start
    xs, eta_prev, err = [x], 0.0, 0.0
    for t in range(1, T + 1):
        g = G[t - 1]
        w_p = w_q = 0.0
        if preset in ("adagrad-da", "ftrl-prox"):
            prev = np.sqrt(sq)
            sq = sq + g * g
            incr = (np.sqrt(sq) - prev) / eta
            w_p, w_q = (incr, 0.0) if preset == "ftrl-prox" else (0.0, incr)
        elif preset == "da":
            w_q = p["alpha_growth"] * (math.sqrt(t + 1.0) - math.sqrt(t))
        elif preset == "ao-ftrl-prox":
            err += float(np.sum((g - h) ** 2))
            eta_t = p["eta0"] * math.sqrt(err)
            w_p, eta_prev = eta_t - eta_prev, eta_t
        A_r = A + w_p                       # r_{1:t} = p_{1:t} + q_{0:t-1}
        l1_r = l1
        A, B = A_r + w_q, B + w_p * x
        l1 += alpha
        h_next = g if hints else h
        lin = lin + g + (h_next - h)
        x_next = _argmin(A, B - lin, l1, where)
        bregs.append(0.5 * float(np.sum(A_r * (x_next - x) ** 2))
                     + l1_r * _l1_breg(x_next, x))
        x, h = x_next, h_next
        xs.append(x)
    return np.array(xs), np.array(bregs)


class ColumnStream(losses.LinearStream):
    """The scripted stream G that gives play its g column, G read-only."""

    def __init__(self, G):
        super().__init__(lambda t: G[t - 1], G.shape[1], "scripted")
        self.G = G.copy()
        self.G.flags.writeable = False

    def g_column(self, T):
        return self.G[:T]


def _close(a, b):
    return bool(np.all(np.abs(a - b) <= TOL * np.maximum(1.0, np.abs(b))))


def _check(preset, params, G, where):
    """Driver's iterates and ``breg_r`` against the reference over ``where``."""
    T, d = G.shape
    fs = {"box": lambda: solvers.Box(np.full(d, LO), np.full(d, HI)),
          "free": lambda: solvers.Unconstrained(d),
          "ball": lambda: solvers.Ball(np.full(d, CENTER), RADIUS)}[where]()
    xs, bregs = reference(preset, params, G, where)
    # every preset plays the scripted stream round by round, and its g
    # column in chunks
    for seq in (losses.LinearStream(lambda t: G[t - 1], d, "scripted"),
                ColumnStream(G)):
        driver = Driver(preset, fs, dict(params))
        led = run_rounds(driver, seq, T)
        assert _close(led.x, xs), (preset, np.max(np.abs(led.x - xs)))
        assert _close(led.breg_r, bregs), (preset, np.max(np.abs(led.breg_r - bregs)))


@given(case=st.sampled_from(range(len(CASES))), d=st.integers(1, 5),
       T=st.integers(1, 25), box=st.booleans(), seed=st.integers(0, 2 ** 16),
       scale=st.sampled_from([0.1, 1.0, 4.0]), zeros=st.integers(0, 4))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_driver_matches_the_textbook_recursion(case, d, T, box, seed, scale, zeros):
    preset, params = CASES[case]
    G = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, (T, d))
    if preset not in NO_ZERO_COORDINATES:
        # force up to d - 1 coordinates to 0 in every round, so some
        # coordinate still moves
        G[:, :min(zeros, d - 1)] = 0.0
    _check(preset, params, G, "box" if box else "free")


@given(case=st.sampled_from(BALL_CASES), d=st.integers(1, 5),
       T=st.integers(1, 25), seed=st.integers(0, 2 ** 16),
       scale=st.sampled_from([0.1, 1.0, 4.0]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_driver_matches_the_textbook_projection_on_a_ball(case, d, T, seed, scale):
    preset, params = CASES[case]
    G = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, (T, d))
    _check(preset, params, G, "ball")


# (preset, params) of the presets that need their loss
QUADRATIC_CASES = [
    ("nonlin-ftrl", {"q0_scale": 0.0}),
    ("nonlin-ftrl", {"q0_scale": 1.3}),
    ("implicit-md", {"q0_scale": 0.0, "sigma_r": 0.8}),
    ("implicit-md", {"q0_scale": 0.7, "sigma_r": 0.4}),
]


def quadratic_reference(preset, p, C, w, where):
    """(iterates x_1..x_{T+1}, r-divergences) of ``preset`` on the
    quadratics of weight w centred at C's rows, over ``where``."""
    T, d = C.shape
    q0 = p["q0_scale"]
    start = np.full(d, {"box": 0.5 * (LO + HI), "free": 0.0, "ball": CENTER}[where])
    x = _argmin(q0, np.zeros(d), 0.0, where) if q0 else start
    xs, bregs, total = [x], [], np.zeros(d)
    for t in range(1, T + 1):
        if preset == "nonlin-ftrl":
            # r_{1:t} = q~_0 and the quadratics of rounds before t
            r = q0 + (t - 1) * w
            total = total + w * C[t - 1]
            x_next = _argmin(q0 + t * w, total, 0.0, where)
        else:
            r = q0 + t * p["sigma_r"]
            x_next = _argmin(w + r, w * C[t - 1] + r * x, 0.0, where)
        bregs.append(0.5 * r * float(np.sum((x_next - x) ** 2)))
        x = x_next
        xs.append(x)
    return np.array(xs), np.array(bregs)


class RoundByRoundQuadratics(losses.DriftingQuadratic):
    """The quadratics without their centre column, which play reads round
    by round."""

    def quadratic_column(self, T):
        return None


@given(case=st.sampled_from(range(len(QUADRATIC_CASES))), d=st.integers(1, 5),
       T=st.integers(1, 25), where=st.sampled_from(["box", "free", "ball"]),
       seed=st.integers(0, 2 ** 16), w=st.sampled_from([0.3, 1.0, 2.5]),
       zero=st.integers(0, 24))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_loss_carrying_presets_match_the_textbook_recursion(case, d, T, where,
                                                            seed, w, zero):
    preset, params = QUADRATIC_CASES[case]
    C = np.random.default_rng(seed).uniform(-1.0, 1.0, (T, d))
    C[zero % T] = 0.0
    fs = {"box": lambda: solvers.Box(np.full(d, LO), np.full(d, HI)),
          "free": lambda: solvers.Unconstrained(d),
          "ball": lambda: solvers.Ball(np.full(d, CENTER), RADIUS)}[where]()
    xs, bregs = quadratic_reference(preset, params, C, w, where)
    for stream in (losses.DriftingQuadratic, RoundByRoundQuadratics):
        driver = Driver(preset, fs, dict(params))
        led = run_rounds(driver, stream(lambda t: C[t - 1], d, w), T)
        assert (led.quadratic is not None) == (stream is losses.DriftingQuadratic)
        assert _close(led.x, xs), (preset, np.max(np.abs(led.x - xs)))
        assert _close(led.breg_r, bregs), (preset, np.max(np.abs(led.breg_r - bregs)))


@pytest.mark.parametrize("case", range(len(CASES)))
def test_every_case_is_reached(case):
    # one fixed stream per case, so a case the draws miss still runs; the
    # isotropic cases run on the ball too, with steps that reach its edge
    preset, params = CASES[case]
    G = np.random.default_rng(case).uniform(-1.0, 1.0, (12, 3))
    _check(preset, params, G, "box")
    if case in BALL_CASES:
        _check(preset, params, 4.0 * G, "ball")
