"""The column ledger: accounting over whole columns equals the per-round
loops it replaced, bit for bit; so does the r-divergence the ledger derives
from its columns, against a per-round loop over the records.

The references below are those loops, kept here as the specification:
one ``dot`` per row and one running ``total`` added left to right.  The
column code reaches the same bits through ``core.rowdot`` (a stacked
matmul that sends each row to the same BLAS ddot as a vector dot) and
np.cumsum (which adds in loop order); both are numpy implementation
details, so these tests also run on the oldest numpy the package accepts.
"""

import json

import numpy as np
import pytest

from adaopt import losses, regret, solvers
from adaopt.cli import (build_losses, build_set, main, replay_check,
                        run_seed, validate_run_config)
from adaopt.core import dot, quad_norm_sq, rowdot
from adaopt.learners import PRESETS, Driver, run_rounds
from adaopt.regularizers import COMPOSITE_SETTINGS, L1, Sum


# -- the per-row references ----------------------------------------------------

def ref_decomposition_terms(led, x_star):
    out = {k: np.zeros(led.T) for k in regret.CSV_TERMS}
    for i, rec in enumerate(led.records):
        to_star = x_star - rec.x
        out["lin_fwd"][i] = dot(rec.g, rec.x_next - x_star)
        out["drift"][i] = dot(rec.g, rec.x - rec.x_next)
        d = rec.loss.dir_deriv(rec.x, to_star)
        out["breg_loss"][i] = rec.loss.value(x_star) - rec.loss_value - d
        out["delta"][i] = dot(rec.g, to_star) - d
    return out


def ref_running_regret(led, x_star, composite):
    out = np.empty(led.T)
    total = 0.0
    for i, rec in enumerate(led.records):
        total += rec.loss_value - rec.loss.value(x_star)
        if composite and rec.psi is not None:
            total += rec.psi.value(rec.x) - rec.psi.value(x_star)
        out[i] = total
    return out


def ref_forward_regret(led, x_star):
    return sum(dot(rec.g, rec.x_next - x_star) for rec in led.records)


def ref_ledger_rows(led, x_star, report):
    terms = ref_decomposition_terms(led, x_star)
    rows = []
    for i, (rec, cum_regret, cum_bound) in enumerate(zip(
            led.records, ref_running_regret(led, x_star, led.composite).tolist(),
            report.running.tolist())):
        row = [float(rec.t)] + rec.x.tolist() + rec.g.tolist()
        row += [float(terms[k][i]) for k in regret.CSV_TERMS]
        row += [cum_regret, cum_bound, cum_bound - cum_regret]
        rows.append(row)
    return rows


def ref_replay_worst(csv_text, cfg, x_star):
    """The row-by-row replay: its worst scaled error."""
    fs = build_set(cfg["set"])
    seq = build_losses(cfg["losses"], fs.dim)
    d = fs.dim
    alpha = float(cfg["params"].get("composite_alpha", 0.0))
    worst, cum_prev = 0.0, 0.0
    for line in csv_text.strip().split("\n")[1:]:
        parts = line.split(",")
        x = np.array([float(v) for v in parts[1:1 + d]])
        g = np.array([float(v) for v in parts[1 + d:1 + 2 * d]])
        lin_fwd, drift, breg_loss, delta = (float(v) for v in
                                            parts[1 + 2 * d:5 + 2 * d])
        cum = float(parts[5 + 2 * d])
        loss = seq.loss(int(parts[0]))
        scale = 1.0 + abs(cum) + float(np.linalg.norm(g)) * float(
            np.linalg.norm(x - x_star))
        err = abs((lin_fwd + drift) - dot(g, x - x_star))
        err = max(err, abs(breg_loss - loss.bregman(x_star, x)))
        err = max(err, abs(delta - (dot(g, x_star - x)
                                    - loss.dir_deriv(x, x_star - x))))
        inc = loss.value(x) - loss.value(x_star)
        if alpha > 0.0:
            inc += alpha * (float(np.sum(np.abs(x))) - float(np.sum(np.abs(x_star))))
        err = max(err, abs((cum - cum_prev) - inc))
        cum_prev = cum
        worst = max(worst, err / scale)
    return worst


# -- the row dot ------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 3, 10, 50, 200])
def test_rowdot_is_the_per_row_dot(d):
    rng = np.random.default_rng(d)
    # spread magnitudes so that summation order would show in the last bit
    a = rng.standard_normal((64, d)) * 10.0 ** rng.integers(-6, 6, (64, d))
    b = rng.standard_normal((64, d))
    star = rng.standard_normal(d)
    assert np.array_equal(rowdot(a, b), [u.dot(v) for u, v in zip(a, b)])
    assert np.array_equal(rowdot(a, star), [u.dot(star) for u in a])
    assert np.array_equal(rowdot(a, np.broadcast_to(star, a.shape)),
                          [u.dot(star) for u in a])
    # rows of a wider table, as replay slices them from the parsed CSV
    table = np.hstack([a, b, a])
    assert np.array_equal(rowdot(table[:, d:2 * d], table[:, :d]),
                          [v.dot(u) for u, v in zip(a, b)])
    # the composite term's row sums of |x|
    assert np.array_equal(np.abs(a).sum(axis=1),
                          [float(np.sum(np.abs(u))) for u in a])


# -- ledgers of every loss family ----------------------------------------------------

class _Mixed(losses.LossSequence):
    """Linear, l1, isotropic-quadratic and two-slope rounds in turn: two of
    the four families take the column path, two the handle path."""

    def __init__(self, dim):
        self.dim = dim
        self._stream = losses.random_stream(dim, seed=11)

    def loss(self, t):
        k = t % 4
        if k == 1:
            return losses.linear_loss(self._stream.vector(t))
        if k == 2:
            return losses.l1_loss(0.5, self.dim)
        if k == 3:
            return losses.quadratic_loss(0.3 * self._stream.vector(t), 1.5)
        return losses.two_slope_abs(self.dim)


def _box(d, width=1.0):
    return solvers.Box(-width * np.ones(d), width * np.ones(d))


LEDGERS = {
    "linear": lambda: run_rounds(
        Driver("adagrad-da", _box(10), {"metric": "diag"}),
        losses.random_stream(10, seed=5), 60),
    "linear-d1": lambda: run_rounds(
        Driver("ogd", _box(1), {"eta": 0.3}),
        losses.alternating_stream([0.7]), 9),
    "isotropic-quadratic": lambda: run_rounds(
        Driver("nonlin-ftrl", solvers.Ball(np.zeros(4), 1.0)),
        losses.sine_drift_quadratic(4, 0.6, 11.0, 1.3), 40),
    "stochastic": lambda: run_rounds(
        Driver("ogd", solvers.Ball(np.zeros(3), 1.0), {"eta": 0.2}),
        losses.StochasticLoss(losses.quadratic_loss([0.2, -0.4, 0.1], 2.0), 3,
                              noise=0.5), 40, rng=np.random.default_rng(3)),
    "composite-ftrl": lambda: run_rounds(
        Driver("ftrl-prox", _box(6), {"composite_alpha": 0.1}),
        losses.random_stream(6, seed=7), 50),
    "composite-md": lambda: run_rounds(
        Driver("md", _box(5), {"composite_alpha": 0.05}),
        losses.random_stream(5, seed=2), 50),
    "mixed-families": lambda: run_rounds(
        Driver("ogd", _box(4, 2.0), {"eta": 0.1}), _Mixed(4), 40),
}


def _comparator(led):
    rng = np.random.default_rng(led.T)
    return led.feasible_set.sample(rng)


@pytest.mark.parametrize("name", sorted(LEDGERS))
def test_column_accounting_is_the_per_row_loop(name):
    led = LEDGERS[name]()
    x_star = _comparator(led)
    terms = regret.decomposition_terms(led, x_star)
    ref = ref_decomposition_terms(led, x_star)
    for k in regret.CSV_TERMS:
        assert np.array_equal(terms[k], ref[k]), k
    for composite in (False, True):
        running = ref_running_regret(led, x_star, composite)
        assert np.array_equal(
            regret._running_regret(led, x_star, composite), running)
        assert regret.empirical_regret(led, x_star, composite) == running[-1]
        assert regret.empirical_regret(led, x_star, composite,
                                       terms=terms) == running[-1]
    assert np.array_equal(terms["cum_regret"],
                          ref_running_regret(led, x_star, led.composite))
    assert regret.forward_regret(led, x_star) == ref_forward_regret(led, x_star)
    assert regret.forward_regret(led, x_star, terms) == \
        ref_forward_regret(led, x_star)
    report = regret.bound_table2(led, x_star, f"oo-{led.kind}")
    assert regret.ledger_rows(led, x_star, terms=terms, report=report) == \
        ref_ledger_rows(led, x_star, report)


@pytest.mark.parametrize("name", sorted(LEDGERS))
def test_records_view_the_ledger_columns(name):
    led = LEDGERS[name]()
    assert led.x.shape == (led.T + 1, led.dim) and led.g.shape == (led.T, led.dim)
    assert np.array_equal(led.x1, led.x[0])
    assert np.array_equal(led.final_point(), led.x[-1])
    for i, rec in enumerate(led.records):
        assert np.shares_memory(rec.x, led.x) and np.array_equal(rec.x, led.x[i])
        assert np.shares_memory(rec.x_next, led.x)
        assert np.array_equal(rec.x_next, led.x[i + 1])
        assert np.shares_memory(rec.g, led.g) and np.array_equal(rec.g, led.g[i])
        assert led.loss_value[i] == rec.loss_value == rec.loss.value(rec.x)


def test_a_prefix_of_the_records_is_the_truncated_run():
    led = LEDGERS["composite-ftrl"]()
    x_star = _comparator(led)
    full = regret.decomposition_terms(led, x_star)
    cut = led.prefix(17)
    assert cut.x.shape[0] == 18 and cut.g.shape[0] == 17
    part = regret.decomposition_terms(cut, x_star)
    for k in regret.CSV_TERMS + ("cum_regret",):
        assert np.array_equal(part[k], full[k][:17]), k


def test_loss_column_matches_the_handles_row_by_row():
    d = 4
    seq = _Mixed(d)
    fs = [seq.loss(t) for t in range(1, 13)]
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 2, (12, d))
    z = rng.uniform(-2, 2, (12, d))
    star = rng.uniform(-2, 2, d)
    col = losses.LossColumn.of(fs)
    assert [kind for _, kind, _ in col.groups] == ["linear", "quadratic", "handle"]
    assert np.array_equal(col.value(x), [f.value(u) for f, u in zip(fs, x)])
    assert np.array_equal(col.value(star), [f.value(star) for f in fs])
    assert np.array_equal(col.dir_deriv(x, z),
                          [f.dir_deriv(u, w) for f, u, w in zip(fs, x, z)])


@pytest.mark.parametrize("seq", [
    losses.random_stream(6, seed=3, scale=0.4),
    losses.alternating_stream([1.0, -2.0, 0.5]),
    losses.sine_drift_quadratic(3, 0.5, 8.0, 2.0),
    losses.FixedLoss(losses.quadratic_loss([0.1, 0.2], 1.5), 2),
], ids=["random", "alternating", "sine-quadratic", "fixed-quadratic"])
def test_sequence_columns_match_their_losses(seq):
    ts = list(range(1, 300))
    col = seq.column(ts)
    fs = [seq.loss(t) for t in ts]
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, (len(ts), seq.dim))
    star = rng.uniform(-1, 1, seq.dim)
    assert np.array_equal(col.value(x), [f.value(u) for f, u in zip(fs, x)])
    assert np.array_equal(col.value(star), [f.value(star) for f in fs])
    assert np.array_equal(col.dir_deriv(x, star - x),
                          [f.dir_deriv(u, star - u) for f, u in zip(fs, x)])


def test_non_finite_derivative_toward_the_comparator_names_its_round():
    # sqrt|u| has an infinite slope at 0; the linear rounds before it never
    # move the first coordinate off x_1 = 0
    class Cusp(losses.LossSequence):
        dim = 2

        def loss(self, t):
            return losses.sqrt_abs(2) if t == 3 else losses.linear_loss([0.0, 1.0])

    led = run_rounds(Driver("ogd", _box(2), {"eta": 0.1}), Cusp(), 5)
    assert led.records[2].x[0] == 0.0
    with pytest.raises(ValueError, match="round 3: directional derivative"):
        regret.decomposition_terms(led, np.array([0.5, 0.0]))


# -- replay over columns ------------------------------------------------------------

REPLAY_CONFIGS = {
    "random-linear": {"preset": "adagrad-da", "params": {"metric": "diag"},
                      "set": {"kind": "box", "dim": 10},
                      "losses": {"kind": "random-linear", "seed": 9}, "T": 50},
    "sine-quadratic": {"preset": "nonlin-ftrl",
                       "set": {"kind": "ball", "dim": 4},
                       "losses": {"kind": "sine-quadratic", "amplitude": 0.7,
                                  "period": 9.0}, "T": 40},
    "stochastic": {"preset": "ogd", "params": {"eta": 0.2},
                   "set": {"kind": "ball", "dim": 3},
                   "losses": {"kind": "fixed-quadratic", "center": [0.3, 0.0, -0.2],
                              "noise": 0.4}, "T": 40},
    "composite": {"preset": "ftrl-prox", "params": {"composite_alpha": 0.1},
                  "set": {"kind": "box", "dim": 6},
                  "losses": {"kind": "random-linear", "seed": 4}, "T": 50},
}


def _seed_run(name):
    cfg = validate_run_config(dict(REPLAY_CONFIGS[name]))
    res = run_seed(cfg, 1, 1e-10)
    return cfg, res


@pytest.mark.parametrize("name", sorted(REPLAY_CONFIGS))
def test_replay_is_the_per_row_replay(name):
    cfg, res = _seed_run(name)
    x_star = np.array(res["comparator"])
    assert res["replay"]["ok"] is True
    assert res["replay"]["worst_error"] == ref_replay_worst(res["_csv"], cfg, x_star)
    assert res["replay"]["rows"] == cfg["T"]


def _perturbed(csv_text, row, col, rel=1e-6):
    """The CSV with one value moved by a relative ``rel``; a value of 0
    (the divergence and gap of exact linear rounds) moves by ``rel``."""
    lines = csv_text.strip().split("\n")
    parts = lines[row].split(",")
    v = float(parts[col])
    parts[col] = "%.17g" % (v + rel * max(abs(v), 1.0) * (1.0 if v >= 0 else -1.0))
    lines[row] = ",".join(parts)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(REPLAY_CONFIGS))
def test_replay_catches_a_corrupted_value(name):
    cfg, res = _seed_run(name)
    csv_text, x_star = res["_csv"], np.array(res["comparator"])
    header = csv_text.split("\n", 1)[0].split(",")
    table = np.array([[float(v) for v in line.split(",")]
                      for line in csv_text.strip().split("\n")[1:]])
    d = len(x_star)
    # the gradient entry that moves <g_t, x_t - x*> most
    x, g = table[:, 1:1 + d], table[:, 1 + d:1 + 2 * d]
    i, j = np.unravel_index(np.argmax(np.abs(g * (x - x_star))), g.shape)
    targets = [(i, 1 + d + j)]
    # the largest entry of each checked column
    for k in regret.CSV_TERMS + ("cum_regret",):
        c = header.index(k)
        targets.append((int(np.argmax(np.abs(table[:, c]))), c))
    for row, col in targets:
        rep = replay_check(_perturbed(csv_text, row + 1, col), cfg, x_star)
        assert rep["ok"] is False, header[col]
        assert rep["worst_error"] > 1e-9


@pytest.mark.parametrize("kind", ["box", "ball", "simplex"])
def test_replay_checks_the_rows_whose_norms_overflow(tmp_path, kind):
    # at gradient scale 1e300 g.g overflows: a row's scale
    # ||g_t|| ||x_t - x*|| was inf, so the row went unchecked, or inf * 0 =
    # NaN where x_t = x*, which failed the replay of a valid run.  The run
    # now replays and exits 0, and a corrupted gradient entry is caught
    raw = {"name": "big", "preset": "md", "set": {"kind": kind, "dim": 3},
           "losses": {"kind": "random-linear", "seed": 2, "scale": 1e300},
           "T": 30, "seeds": [0]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(raw))
    with np.errstate(over="ignore"):
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        res = json.loads((tmp_path / "out" / "big.json").read_text())["results"][0]
        assert res["replay"]["ok"] is True and res["replay"]["worst_error"] < 1e-15
        cfg = validate_run_config(dict(raw))
        csv_text = (tmp_path / "out" / "big.seed0.csv").read_text()
        x_star = np.array(res["comparator"])
        d = len(x_star)
        # the gradient entry that moves <g_t, x_t - x*> most
        table = np.array([[float(v) for v in line.split(",")]
                          for line in csv_text.strip().split("\n")[1:]])
        x, g = table[:, 1:1 + d], table[:, 1 + d:1 + 2 * d]
        i, j = np.unravel_index(np.argmax(np.abs(g * (x - x_star))), g.shape)
        rep = replay_check(_perturbed(csv_text, i + 1, 1 + d + j), cfg, x_star)
        assert rep["ok"] is False and rep["worst_error"] > 1e-9


# -- the r-divergence ---------------------------------------------------------------

def ref_breg_r(led):
    """B_{r_{1:t}}(x_{t+1}, x_t) round by round, r_{1:t} accumulated from
    the records' handles as an update loop accumulates it: 0.0, the
    quadratic under r_{1:t}'s metric, then, for ftrl, whose r_{1:t}
    carries q_{0:t-1}, the l1 part at r's running l1 weight and each
    earlier loss divergence that is neither isotropic (it is in the metric)
    nor linear (it is 0, and play folds nothing for it)."""
    ftrl = led.kind == "ftrl"
    r_l1, kept, out = 0.0, [], []

    def carry(q):
        nonlocal r_l1
        for part in Sum([q]).parts:
            if isinstance(part, L1):
                r_l1 = r_l1 + part.alpha
            elif isinstance(part, losses.BregmanAround) and not (
                    losses.is_isotropic_quadratic(part.loss)
                    or type(part.loss) is losses.LinearLoss):
                kept.append(part.bregman)

    if ftrl:
        carry(led.q0_tilde)
    for rec in led.records:
        breg = 0.0
        breg += 0.5 * quad_norm_sq(rec.r_metric, rec.x_next - rec.x)
        if r_l1 > 0.0:
            breg += L1(r_l1).bregman(rec.x_next, rec.x)
        for b in kept:
            breg += b(rec.x_next, rec.x)
        out.append(breg)
        if ftrl:
            carry(rec.q_tilde)
    return np.array(out)


class _DiagQuadratic(losses.LossSequence):
    """(1/2) sum_j w_j (x_j - c_{t,j})^2 with unequal weights and a drifting
    centre: a library loss that is not isotropic, so the r of nonlin-ftrl
    carries each round's divergence as a handle."""

    def __init__(self, dim, T):
        self.dim = dim
        self.w = np.linspace(0.5, 2.0, dim)
        self.c = np.random.default_rng(8).uniform(-0.8, 0.8, (T, dim))

    def loss(self, t):
        w, c = self.w, self.c[t - 1]
        return losses.Loss("diag-quadratic",
                           value=lambda x: 0.5 * float(np.sum(w * (x - c) ** 2)),
                           grad=lambda x: w * (x - c), smoothness=float(w.max()),
                           strong_convexity=float(w.min()))


_D, _T = 3, 12
BREG_VARIANTS = [(p, {}) for p in PRESETS] + [
    (p, {"composite_alpha": 0.1, "composite_setting": s, **extra})
    for p, extra in (("ftrl-prox", {"gamma0": 0.5}), ("md", {}))
    for s in COMPOSITE_SETTINGS] + [
    # ao-ftrl-prox's q~_0 is zero, so it cannot run psi known before
    ("ao-ftrl-prox", {"composite_alpha": 0.1}),
    ("adagrad-da", {"metric": "full"}),
    ("ftrl-prox", {"metric": "full", "gamma0": 0.3}),
]
BREG_SETS = {
    "box": lambda: _box(_D),
    "free": lambda: solvers.Unconstrained(_D),
    "ball": lambda: solvers.Ball(np.zeros(_D), 1.0),
}
BREG_STREAMS = {
    "linear": lambda: losses.random_stream(_D, seed=4),
    "drifting-quadratic": lambda: losses.DriftingQuadratic(
        lambda t: np.random.default_rng(t).uniform(-0.8, 0.8, _D), _D),
    "stochastic": lambda: losses.StochasticLoss(
        losses.quadratic_loss([0.3, -0.2, 0.1], 1.5), _D, noise=0.3),
}


@pytest.mark.parametrize("preset,params", BREG_VARIANTS)
def test_ledger_breg_r_is_the_per_round_loop(preset, params):
    # every set and stream the variant can run: psi needs a box or the free
    # set, and the presets that fold the loss need exact losses
    runs = 0
    for set_name, make_set in BREG_SETS.items():
        if params.get("composite_alpha") and set_name == "ball":
            continue
        for stream, make_seq in BREG_STREAMS.items():
            if preset in ("implicit-md", "nonlin-ftrl") and stream == "stochastic":
                continue
            led = run_rounds(Driver(preset, make_set(), dict(params)),
                             make_seq(), _T, rng=np.random.default_rng(2))
            assert np.array_equal(led.breg_r, ref_breg_r(led)), (set_name, stream)
            assert np.all(led.breg_r >= 0.0)
            runs += 1
    assert runs >= 4


@pytest.mark.parametrize("set_name", sorted(BREG_SETS))
def test_ledger_breg_r_carries_non_isotropic_loss_divergences(set_name):
    led = run_rounds(Driver("nonlin-ftrl", BREG_SETS[set_name]()),
                     _DiagQuadratic(_D, _T), _T)
    ref = ref_breg_r(led)
    assert np.array_equal(led.breg_r, ref)
    # the handles are a real part: the metric alone leaves a gap
    quad = regret._quad_values(led.r_metric, led.x[1:] - led.x[:-1])
    assert np.all(ref[1:] > quad[1:])


# -- the bound terms against the records' handles --------------------------------------

TERM_RUNS = {
    "composite-ftrl-revealed": ("ftrl-prox", {"gamma0": 0.5, "composite_alpha": 0.1}),
    "composite-ftrl-known": ("ftrl-prox", {"gamma0": 0.5, "composite_alpha": 0.1,
                                           "composite_setting": "known-before"}),
    "composite-md-revealed": ("md", {"composite_alpha": 0.05}),
    "composite-md-known": ("md", {"composite_alpha": 0.05,
                                  "composite_setting": "known-before"}),
    "ao-ftrl-prox": ("ao-ftrl-prox", {}),
    "ao-ftrl-prox-psi": ("ao-ftrl-prox", {"composite_alpha": 0.1}),
    "ao-md": ("ao-md", {}),
    "implicit-md": ("implicit-md", {}),
}


def _term_run(name, d):
    preset, params = TERM_RUNS[name]
    seq = losses.sine_drift_quadratic(d, 0.6, 11.0, 1.3) \
        if preset == "implicit-md" else losses.random_stream(d, seed=4)
    led = run_rounds(Driver(preset, _box(d), dict(params)), seq, 40)
    # a comparator with zero coordinates, where the l1 derivative turns
    x_star = _comparator(led)
    x_star[::3] = 0.0
    return led, x_star


def _same(col, ref, d):
    """Bit for bit below 8 coordinates.  From 8 on, numpy's pairwise row
    sum groups an l1 derivative's zero-filled row otherwise than the
    handle's compressed sum, so the columns agree to 1e-12 relative."""
    ref = np.asarray(ref, dtype=float)
    if d < 8:
        assert np.array_equal(col, ref)
    else:
        np.testing.assert_allclose(col, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [6, 20])
@pytest.mark.parametrize("name", sorted(TERM_RUNS))
def test_q_and_p_columns_are_the_handles(name, d):
    led, x_star = _term_run(name, d)
    recs, x, x_next = led.records, led.x[:-1], led.x[1:]
    assert led.composite or led.hint is not None or led.needs_loss
    for tilde in (False, True):
        def q(rec):
            return rec.q_tilde if tilde else rec.q
        _same(regret._q_values(led, x_star, tilde),
              [q(rec).value(x_star) for rec in recs], d)
        _same(regret._q_values(led, x_next, tilde),
              [q(rec).value(rec.x_next) for rec in recs], d)
        vals, ders = regret._q_values(led, x, tilde, x_star - x)
        _same(vals, [q(rec).value(rec.x) for rec in recs], d)
        _same(ders, [q(rec).dir_deriv(rec.x, x_star - rec.x) for rec in recs], d)
    # the p term of the ftrl bounds and of the variational bound
    _same(regret._p_values(led, x_star), [rec.p.value(x_star) for rec in recs], d)
    _same(regret._p_values(led, x), [rec.p.value(rec.x) for rec in recs], d)
    if led.kind == "md":
        # p_t = r_t - q_{t-1}, and q_{t-1} is not zero
        _same(regret._bp_md(led, x_star),
              regret._capped(np.array([rec.p.bregman(x_star, rec.x)
                                       for rec in recs])), d)
    else:
        _same(led.breg_r, ref_breg_r(led), d)


@pytest.mark.parametrize("d", [6, 20])
@pytest.mark.parametrize("name", ["ao-ftrl-prox", "ao-ftrl-prox-psi"])
def test_variational_p_term_is_the_handles_running_sum(name, d):
    led, x_star = _term_run(name, d)
    inputs = regret.BoundInputs(smoothness=0.0, variation_terms=[1.0] * led.T)
    report = regret.bound_variational_smooth(led, x_star, inputs)
    total = 0.0
    for rec in led.records:
        total += rec.p.value(x_star)
    _same(report.terms["p_at_star"], total, d)
