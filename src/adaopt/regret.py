"""Regret accounting: the exact decomposition and the bound calculators.

For any loss sequence, gradient sequence, and point sequence, the realized
regret against a comparator x* splits exactly as

    R_T = R+_T + sum_t <g_t, x_t - x_{t+1}> - sum_t B_{f_t}(x*, x_t) + sum_t delta_t

where R+_T = sum_t <g_t, x_{t+1} - x*> is the forward (one-step-ahead)
linear regret and delta_t = <g_t, x* - x_t> - f_t'(x_t; x* - x_t) is the
linearization gap.  The calculators in this module evaluate every term from
a recorded run, bound R+_T through the emitted regularizers, and evaluate
the closed-form full-regret bounds for the standard schedule families.

There is one accounting path.  The forward, Table-2 and optimistic bounds
are all built by ``_bound`` from per-round term arrays; a report carries
the running sum of its terms, its value is the last entry, and the CSV's
``cum_bound`` column is that same running bound, so a report and its
ledger cannot disagree.

A ledger stores each round's iterates, gradients and loss values once, as
columns, and the decomposition terms, the running regret and the CSV rows
are array expressions over them.  Each equals the per-round loop it
replaced bit for bit: row dot products go through ``core.rowdot``, running
sums through np.cumsum (which adds in loop order), and the losses through
``losses.LossColumn``, whose per-row path for losses outside the linear
and isotropic-quadratic families is the only row loop left.

All q-sums run over t = 0..T by default; since the regret never depends on
the last emitted regularizer, each calculator can also drop the final q
term (``include_final_q=False``), which is the bound obtained by re-running
the last round with q_T set to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import INF, QuadMetric, SingularMetricError, as_point, dual_norm_sq, rowdot
from .losses import LossColumn
from .regularizers import Regularizer
from . import solvers

TABLE2_CASES = (
    "oo-ftrl", "oo-md", "oo-md-strong",
    "so-ftrl", "so-md", "so-md-strong",
    "smooth-so-ftrl", "smooth-so-md", "smooth-so-md-strong",
)


@dataclass
class RoundRecord:
    """Everything round t leaves behind.

    ``p``, ``q``, ``q_tilde`` are the emitted regularizer handles, kept as
    objects so any comparator can be evaluated after the fact.  ``r_metric``
    is the quadratic part of r_{1:t} = p_{1:t} + q_{0:t-1}; it certifies the
    round's strong-convexity norm, so dual-norm terms use it.  In a ledger,
    ``x``, ``x_next`` and ``g`` are row views of the ledger's columns.
    """

    t: int
    x: np.ndarray
    x_next: np.ndarray
    g: np.ndarray
    hint: np.ndarray
    loss: object
    loss_value: float
    sigma: np.ndarray | None
    psi: object | None
    p: Regularizer
    q: Regularizer
    q_tilde: Regularizer
    r_metric: QuadMetric | None
    breg_r: float
    eta: float | None
    certified: bool


@dataclass
class Ledger:
    """A run's rounds: a list of records, plus the columns they view.

    ``x`` is (T+1) x d, with rows t-1 and t the x_t and x_{t+1} of round t;
    ``g`` is T x d and ``loss_value`` holds f_t(x_t).  Each record's ``x``,
    ``x_next`` and ``g`` are rows of these, so every iterate is stored once.
    The columns are cut to the records' length, so a ledger rebuilt on a
    prefix of the records (``dataclasses.replace``) is the truncated run.
    """

    records: list
    x: np.ndarray
    g: np.ndarray
    loss_value: np.ndarray
    q0: Regularizer
    q0_tilde: Regularizer
    feasible_set: object
    kind: str                      # "ftrl" or "md"
    composite: bool = False
    stochastic: bool = False
    schedule: dict = field(default_factory=dict)
    solver_calls: int = 0

    def __post_init__(self):
        T = len(self.records)
        self.x, self.g = self.x[:T + 1], self.g[:T]
        self.loss_value = self.loss_value[:T]

    @property
    def T(self) -> int:
        return len(self.records)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def x1(self) -> np.ndarray:
        return self.x[0]

    def final_point(self) -> np.ndarray:
        return self.x[-1]

    def certified(self) -> bool:
        return all(r.certified for r in self.records)


@dataclass
class BoundInputs:
    """Problem-level constants that bounds may need beyond the ledger."""

    x_star: np.ndarray | None = None
    radius: float | None = None        # R, feasible-set width
    smoothness: float | None = None    # L
    variation: float | None = None     # D, total gradient variation
    variation_terms: list | None = None
    variation_quality: str = "exact"
    d_init: float | None = None        # f(x_1) - inf f for smooth stochastic rows


@dataclass
class BoundReport:
    case: str
    value: float
    terms: dict
    certified: bool = True
    quality: str = "exact"
    notes: list = field(default_factory=list)
    running: np.ndarray | None = field(default=None, repr=False)


# -- decomposition -----------------------------------------------------------

def _running(*cols) -> np.ndarray:
    """Entry t: ``total`` after row t of the loop ``total = 0.0``, then per
    row ``total += c[t]`` for each column c in turn.  np.cumsum adds in
    that order; the leading 0.0 is the loop's start."""
    steps = np.concatenate(([0.0], np.column_stack(cols).ravel()))
    return np.cumsum(steps)[len(cols)::len(cols)]


def _running_regret(ledger: Ledger, x_star, composite: bool | None = None,
                    regret=None) -> np.ndarray:
    """Entry t: sum_{s<=t} f_s(x_s) - f_s(x*), plus psi_s(x_s) - psi_s(x*)
    after each round's loss term when ``composite`` (the run's own setting
    by default).  ``regret`` takes the per-round f_t(x_t) - f_t(x*) when
    the caller has it."""
    x_star = as_point(x_star)
    if composite is None:
        composite = ledger.composite
    if regret is None:
        regret = ledger.loss_value - _losses(ledger).value(x_star)
    if not composite:
        return _running(regret)
    # psi is l1 or absent; an absent psi adds +0.0, which leaves a total as it is
    alpha = np.array([0.0 if rec.psi is None else rec.psi.alpha
                      for rec in ledger.records])
    psi = (alpha * np.abs(ledger.x[:-1]).sum(axis=1)
           - alpha * float(np.sum(np.abs(x_star))))
    return _running(regret, psi)


def _losses(ledger: Ledger) -> LossColumn:
    return LossColumn.of(rec.loss for rec in ledger.records)


def _lin_fwd(ledger: Ledger, x_star) -> np.ndarray:
    return rowdot(ledger.g, ledger.x[1:] - x_star)


def empirical_regret(ledger: Ledger, x_star, composite: bool | None = None,
                     terms: dict | None = None) -> float:
    """sum_t f_t(x_t) - f_t(x*), plus the composite terms when requested:
    the last entry of the running regret.  ``terms`` is as in
    :func:`decomposition_residual`."""
    if composite is None:
        composite = ledger.composite
    if terms is not None and composite == ledger.composite:
        running = terms["cum_regret"]
    else:
        running = _running_regret(ledger, x_star, composite,
                                  None if terms is None else terms["regret"])
    return float(running[-1]) if running.size else 0.0


def forward_regret(ledger: Ledger, x_star, terms: dict | None = None) -> float:
    """R+_T = sum_t <g_t, x_{t+1} - x*>, summed in round order."""
    lin_fwd = _lin_fwd(ledger, as_point(x_star)) if terms is None \
        else terms["lin_fwd"]
    return float(_running(lin_fwd)[-1]) if lin_fwd.size else 0.0


def decomposition_terms(ledger: Ledger, x_star) -> dict:
    """Per-round columns of the four decomposition terms, plus ``regret``,
    f_t(x_t) - f_t(x*), and ``cum_regret``, the running regret under the
    run's composite setting (the CSV's column and, last entry,
    :func:`empirical_regret`).

    The directional derivative f_t'(x_t; x* - x_t) is evaluated once per
    round and shared between the divergence and the linearization gap, so
    the identity holds to rounding error by construction of the terms, not
    by cancellation luck.
    """
    x_star = as_point(x_star)
    x, x_next, g = ledger.x[:-1], ledger.x[1:], ledger.g
    to_star = x_star - x
    losses = _losses(ledger)
    f_star = losses.value(x_star)
    d = losses.dir_deriv(x, to_star)
    bad = np.flatnonzero(~np.isfinite(d))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"round {ledger.records[i].t}: directional "
                         f"derivative toward x* is {d[i]}")
    regret = ledger.loss_value - f_star
    return {
        "lin_fwd": _lin_fwd(ledger, x_star),
        "drift": rowdot(g, x - x_next),
        "breg_loss": f_star - ledger.loss_value - d,
        "delta": rowdot(g, to_star) - d,
        "regret": regret,
        "cum_regret": _running_regret(ledger, x_star, regret=regret),
    }


def decomposition_residual(ledger: Ledger, x_star, terms: dict | None = None) -> float:
    """|R_T - (R+_T + drift - breg + delta)|; zero in exact arithmetic.

    ``terms`` takes the columns ``decomposition_terms`` already returned for
    this ledger and comparator, so a caller that also exports them computes
    them once."""
    if terms is None:
        terms = decomposition_terms(ledger, x_star)
    rhs = (float(np.sum(terms["lin_fwd"])) + float(np.sum(terms["drift"]))
           - float(np.sum(terms["breg_loss"])) + float(np.sum(terms["delta"])))
    return abs(empirical_regret(ledger, x_star, composite=False, terms=terms)
               - rhs)


# -- the per-round terms: one accounting path -----------------------------------

_FORWARD_CASES = ("forward-ftrl", "forward-md")
_AO_CASES = ("ao-ftrl", "ao-md")


def _per_round(ledger: Ledger, term) -> np.ndarray:
    """term(rec) for every round, +inf from the first +inf on: a running
    total is +inf from there, so later rounds are not evaluated."""
    out = np.full(ledger.T, INF)
    for i, rec in enumerate(ledger.records):
        v = term(rec)
        if v == INF:
            break
        out[i] = v
    return out


def _diff(reg, x_star, x) -> float:
    """reg(x*) - reg(x), +inf when reg(x*) is."""
    vs = reg.value(x_star)
    return INF if vs == INF else vs - reg.value(x)


def _dual_term(report: BoundReport, vec_of, shift: float):
    """1/2 ||v_t||^2 under round t's certified metric (shifted by
    -shift * identity for the smooth rows); +inf, with a note naming the
    round, where the metric cannot certify it."""
    def term(rec):
        v = vec_of(rec)
        if v is None:
            return _uncertify(report, f"round {rec.t}: missing vector for dual norm")
        if not np.any(v):
            return 0.0
        m = rec.r_metric
        if m is None:
            return _uncertify(report, f"round {rec.t}: no certified metric")
        if shift:
            try:
                m = m.shift_identity(-shift)
            except ValueError:
                return _uncertify(report, f"round {rec.t}: metric cannot "
                                  f"absorb smoothness {shift}")
        try:
            return 0.5 * dual_norm_sq(m, v)
        except SingularMetricError as e:
            return _uncertify(report, f"round {rec.t}: {e}")
    return term


def _uncertify(report: BoundReport, note: str) -> float:
    """Withdraw the report's certificate, say why, and return +inf."""
    report.certified = False
    report.notes.append(note)
    return INF


def _check_certified(ledger: Ledger, report: BoundReport):
    if not ledger.certified():
        _uncertify(report, "run emitted uncertified regularizers")


def _bound(ledger: Ledger, x_star, case: str, inputs: BoundInputs | None = None,
           include_final_q: bool = True) -> BoundReport:
    """Every bound of this module except the variational and schedule ones.

    Each term is a per-round array; the report's running bound is the
    left-to-right running sum of the terms (np.cumsum, which adds in the
    order a loop would, unlike the pairwise np.sum), its total the last
    entry, so a report and the CSV built from it agree bit for bit.  Row t
    of the running bound is the bound of the run truncated after round t.
    """
    if case not in TABLE2_CASES + _FORWARD_CASES + _AO_CASES:
        raise ValueError(f"unknown bound case {case!r}")
    ftrl_case = case.endswith("ftrl")
    if ftrl_case != (ledger.kind == "ftrl"):
        raise ValueError(f"case {case} does not match a {ledger.kind} ledger")
    forward = case in _FORWARD_CASES
    optimistic = case in _AO_CASES
    strong = case.endswith("md-strong")
    smooth = case.startswith("smooth")
    x_star = as_point(x_star)
    inputs = inputs or BoundInputs()
    report = BoundReport(case, 0.0, {})
    _check_certified(ledger, report)
    if strong and any(rec.loss.bregman(x_star, rec.x)
                      < rec.p.bregman(x_star, rec.x) - 1e-9
                      for rec in ledger.records):
        _uncertify(report, "loss curvature does not dominate B_{p_t}(x*, x_t)")

    # q_0 term, then one per round; the optimistic bounds use q~ and, like
    # include_final_q=False, stop one q term short of each row
    q0 = ledger.q0_tilde if optimistic else ledger.q0
    q_terms = np.concatenate((
        [q0.value(x_star) - q0.value(ledger.x1)],
        _per_round(ledger, lambda rec: _diff(
            rec.q_tilde if optimistic else rec.q, x_star, rec.x_next))))
    q_run = np.cumsum(q_terms)
    parts = {"q_sum": q_run[:-1] if optimistic or not include_final_q
             else q_run[1:]}
    if ftrl_case:
        parts["p_sum"] = np.cumsum(_per_round(
            ledger, lambda rec: _diff(rec.p, x_star, rec.x)))
    elif not strong:
        parts["bp_sum"] = np.cumsum(_per_round(
            ledger, lambda rec: rec.p.bregman(x_star, rec.x)))

    if smooth:
        L = inputs.smoothness
        if L is None or L <= 0:
            raise ValueError("smooth cases need a positive smoothness constant")
        if inputs.d_init is None:
            raise ValueError("smooth cases need d_init = f(x_1) - inf f")
        if not ledger.stochastic:
            report.notes.append("smooth case evaluated on a deterministic run")
        anchor = x_star if ftrl_case else x_star - ledger.x1
        parts["smooth_anchor"] = 0.5 * L * float(np.dot(anchor, anchor))
        parts["d_init"] = float(inputs.d_init)
        parts["noise_sum"] = np.cumsum(_per_round(
            ledger, _dual_term(report, lambda rec: rec.sigma, L)))
    elif optimistic:
        parts["hint_err_sum"] = np.cumsum(_per_round(
            ledger, _dual_term(report, lambda rec: rec.g - rec.hint, 0.0)))
    elif not forward:
        parts["grad_sum"] = np.cumsum(_per_round(
            ledger, _dual_term(report, lambda rec: rec.g, 0.0)))

    running = 0.0
    for part in parts.values():
        running = running + part
    if forward:
        parts["breg_r_sum"] = np.cumsum(_per_round(ledger, lambda rec: rec.breg_r))
        running = running - parts["breg_r_sum"]
    report.terms = {k: float(v[-1]) if isinstance(v, np.ndarray) else v
                    for k, v in parts.items()}
    report.running = running
    report.value = float(running[-1])
    return report


# -- the entry points ------------------------------------------------------------

def bound_forward_ftrl(ledger: Ledger, x_star, include_final_q: bool = True) -> BoundReport:
    """Follow-the-regularized-leader forward bound:
    sum (q_t(x*) - q_t(x_{t+1})) + sum (p_t(x*) - p_t(x_t)) - sum B_{r_{1:t}}(x_{t+1}, x_t)."""
    return _bound(ledger, x_star, "forward-ftrl", include_final_q=include_final_q)


def bound_forward_md(ledger: Ledger, x_star, include_final_q: bool = True) -> BoundReport:
    """Mirror-descent forward bound: the FTRL bound with B_{p_t}(x*, x_t)
    in place of p_t(x*) - p_t(x_t)."""
    return _bound(ledger, x_star, "forward-md", include_final_q=include_final_q)


def bound_table2(ledger: Ledger, x_star, case: str, inputs: BoundInputs | None = None,
                 include_final_q: bool = True) -> BoundReport:
    """Closed-form full-regret bound for the named schedule family.

    Online cases charge 1/2 ||g_t||^2 under the round's certified dual norm;
    stochastic cases are the same expressions in expectation.  The smooth
    stochastic cases charge only the noise part 1/2 ||sigma_t||^2 under the
    metric reduced by the smoothness constant, plus the one-time terms
    L/2 ||x*||^2 (or L/2 ||x* - x_1||^2 for mirror descent) and
    f(x_1) - inf f.  The strongly convex mirror-descent cases drop the
    B_{p_t} terms and are certified only where B_{f_t}(x*, x_t) >=
    B_{p_t}(x*, x_t) in every round.
    """
    if case not in TABLE2_CASES:
        raise ValueError(f"unknown bound case {case!r}")
    return _bound(ledger, x_star, case, inputs, include_final_q)


def bound_ao_ftrl(ledger: Ledger, x_star) -> BoundReport:
    """Optimistic FTRL bound:
    sum_{t=0}^{T-1} (q~_t(x*) - q~_t(x_{t+1})) + sum (p_t(x*) - p_t(x_t))
    + sum 1/2 ||g_t - hint_t||^2 dual.  With zero hints this is the plain
    FTRL bound with the final q term dropped, term by term."""
    return _bound(ledger, x_star, "ao-ftrl")


def bound_ao_md(ledger: Ledger, x_star) -> BoundReport:
    """Optimistic mirror-descent analog of :func:`bound_ao_ftrl`."""
    return _bound(ledger, x_star, "ao-md")


def bound_variational_smooth(ledger: Ledger, x_star, inputs: BoundInputs) -> BoundReport:
    """Variation bound for smooth losses under previous-gradient hints:
    q~_{0:T}(x*) + p_{1:T}(x*) + 2 sum_t (1/eta_t) sup_x ||grad f_t - grad f_{t-1}||^2,
    valid when eta_t eta_{t+1} >= 8 L^2 along the schedule."""
    x_star = as_point(x_star)
    L = inputs.smoothness if inputs.smoothness is not None else 0.0
    etas = [rec.eta for rec in ledger.records]
    if any(e is None or e <= 0 for e in etas):
        raise ValueError("variational bound needs a positive eta trail")
    chain = etas + [etas[-1]]
    for a, b in zip(chain, chain[1:]):
        if a * b < 8.0 * L ** 2 - 1e-12:
            raise ValueError(
                f"eta condition violated: {a} * {b} < 8 L^2 = {8 * L ** 2}")
    if inputs.variation_terms is None or len(inputs.variation_terms) != ledger.T:
        raise ValueError("variational bound needs per-round variation terms")
    report = BoundReport("variational-smooth", 0.0, {},
                         quality=inputs.variation_quality)
    _check_certified(ledger, report)
    q = ledger.q0_tilde.value(x_star)
    for rec in ledger.records:
        q += rec.q_tilde.value(x_star)
    p = sum(rec.p.value(x_star) for rec in ledger.records)
    v = 2.0 * sum(term / eta for term, eta in zip(inputs.variation_terms, etas))
    report.terms = {"q_at_star": q, "p_at_star": p, "variation_sum": v}
    report.value = q + p + v
    return report


def bound_final_attack(ledger: Ledger, inputs: BoundInputs) -> BoundReport:
    """Closed-form 2 R^3 L^2 + R + 2 R sqrt(2 D) for the doubly-adaptive
    proximal schedule (eta floor 4 R L^2, growth 2/R sqrt of hint errors)."""
    if ledger.schedule.get("name") != "final-attack":
        raise ValueError("final-attack bound needs a run under that schedule")
    R = inputs.radius
    L = inputs.smoothness if inputs.smoothness is not None else 0.0
    D = inputs.variation
    if R is None or not math.isfinite(R) or R <= 0:
        raise ValueError(f"needs a finite positive set width, got {R}")
    if D is None or D < 0:
        raise ValueError("needs a non-negative total gradient variation")
    report = BoundReport("final-attack", 0.0, {}, quality=inputs.variation_quality)
    _check_certified(ledger, report)
    report.terms = {
        "curvature": 2.0 * R ** 3 * L ** 2,
        "width": R,
        "variation": 2.0 * R * math.sqrt(2.0 * D),
    }
    report.value = float(sum(report.terms.values()))
    return report


def scale_tau(report: BoundReport, tau: float, breg_reg_sum: float = 0.0) -> BoundReport:
    """Rescale a convex-case bound for a tau-star-convex loss.

    The decomposition gives tau R_T <= (the bounded combination), so the
    bound divides by tau; for star-strongly-convex losses the recorded
    regularizer divergences are subtracted first.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    scaled = BoundReport(
        case=f"{report.case}/tau={tau}",
        value=(report.value - breg_reg_sum) / tau,
        terms=dict(report.terms, breg_reg_correction=-breg_reg_sum),
        certified=report.certified,
        quality=report.quality,
        notes=list(report.notes),
    )
    return scaled


def sum_sqrt_check(a) -> tuple:
    """(sum_t a_t / sqrt(a_{1:t}), 2 sqrt(a_{1:T})) for non-negative a, a_1 > 0."""
    a = np.asarray(a, dtype=float)
    if a.size == 0 or a[0] <= 0 or np.any(a < 0):
        raise ValueError("needs non-negative terms with a positive first term")
    csum = np.cumsum(a)
    lhs = float(np.sum(a / np.sqrt(csum)))
    rhs = 2.0 * math.sqrt(float(csum[-1]))
    return lhs, rhs


# -- comparator --------------------------------------------------------------

def select_comparator(ledger: Ledger, policy: str = "offline-best",
                      point=None) -> np.ndarray:
    """Pick x*: an explicit point, the losses' star center, or the offline
    best fixed feasible point of the played sequence (composite included)."""
    fs = ledger.feasible_set
    if policy == "explicit":
        x = as_point(point)
        if not fs.contains(x):
            raise ValueError("explicit comparator is infeasible")
        return x
    if policy == "star-center":
        c = ledger.records[0].loss.star_center
        if c is None:
            raise ValueError("losses carry no star center")
        if not fs.contains(c):
            raise ValueError("star center is infeasible")
        return as_point(c)
    if policy != "offline-best":
        raise ValueError(f"unknown comparator policy {policy!r}")
    return _offline_best(ledger)


def _offline_best(ledger: Ledger) -> np.ndarray:
    fs = ledger.feasible_set
    names = {rec.loss.name for rec in ledger.records}
    psi_alpha = _total_psi_alpha(ledger) if ledger.composite else 0.0
    if names == {"linear"}:
        g_total = np.sum([rec.loss.grad(ledger.x1) for rec in ledger.records], axis=0)
        return _linear_offline(fs, g_total, psi_alpha)
    if ledger.composite:
        raise ValueError("offline comparator for composite runs needs linear losses")
    if names == {"quadratic"}:
        centers = np.array([rec.loss.star_center for rec in ledger.records])
        weights = np.array([rec.loss.smoothness for rec in ledger.records])
        mean = np.average(centers, axis=0, weights=weights)
        return fs.project(mean)
    center = ledger.records[0].loss.star_center
    if center is not None and all(
            rec.loss.star_center is not None
            and np.array_equal(rec.loss.star_center, center)
            for rec in ledger.records):
        if not fs.contains(center):
            raise ValueError("shared star center is infeasible")
        return as_point(center)
    raise ValueError("no exact offline comparator for this loss mix")


def _total_psi_alpha(ledger: Ledger) -> float:
    total = 0.0
    for rec in ledger.records:
        if rec.psi is None:
            continue
        alpha = getattr(rec.psi, "alpha", None)
        if alpha is None:
            raise ValueError("composite comparator needs l1 composite terms")
        total += alpha
    return total


def _linear_offline(fs, g_total: np.ndarray, psi_alpha: float) -> np.ndarray:
    if psi_alpha == 0.0:
        if isinstance(fs, solvers.Unconstrained):
            if np.any(np.abs(g_total) > 1e-12):
                raise ValueError("offline comparator unbounded below")
            return fs.center()
        return solvers.linear_argmin(fs, g_total)
    # piecewise-linear per coordinate: the minimum sits at a breakpoint
    if isinstance(fs, solvers.Box):
        out = np.empty(fs.dim)
        for j in range(fs.dim):
            cands = [fs.lo[j], fs.hi[j]]
            if fs.lo[j] <= 0.0 <= fs.hi[j]:
                cands.append(0.0)
            vals = [g_total[j] * c + psi_alpha * abs(c) for c in cands]
            out[j] = cands[int(np.argmin(vals))]
        return out
    if isinstance(fs, solvers.Unconstrained):
        out = np.zeros(fs.dim)
        over = np.abs(g_total) > psi_alpha + 1e-12
        if np.any(over):
            raise ValueError("offline comparator unbounded below")
        return out
    raise ValueError("composite offline comparator supports box and free sets")


# -- ledger export -------------------------------------------------------------

CSV_TERMS = ("lin_fwd", "drift", "breg_loss", "delta")


def ledger_header(dim: int) -> list:
    cols = ["t"]
    cols += [f"x_{j}" for j in range(dim)]
    cols += [f"g_{j}" for j in range(dim)]
    cols += list(CSV_TERMS)
    cols += ["cum_regret", "cum_bound", "slack"]
    return cols


def ledger_rows(ledger: Ledger, x_star, bound_case: str | None = None,
                inputs: BoundInputs | None = None, terms: dict | None = None,
                report: BoundReport | None = None) -> list:
    """Fixed-layout rows: t, iterate, gradient, the four decomposition
    terms, then running regret, running bound, and their gap.  The running
    regret is ``terms["cum_regret"]``, so its last row is
    :func:`empirical_regret` bit for bit.

    The running bound is ``report``'s, by default the Table-2 report for
    ``bound_case`` (the run kind's online case when None); its last row is
    the report's value.  ``terms`` is as in :func:`decomposition_residual`.
    """
    x_star = as_point(x_star)
    if terms is None:
        terms = decomposition_terms(ledger, x_star)
    if report is None:
        report = bound_table2(ledger, x_star, bound_case or f"oo-{ledger.kind}",
                              inputs)
    t = np.array([rec.t for rec in ledger.records], dtype=float)
    cum_regret, cum_bound = terms["cum_regret"], report.running
    return np.column_stack(
        [t, ledger.x[:-1], ledger.g] + [terms[k] for k in CSV_TERMS]
        + [cum_regret, cum_bound, cum_bound - cum_regret]).tolist()
