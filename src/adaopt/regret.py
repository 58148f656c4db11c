"""Regret accounting: the exact decomposition and the bound calculators.

For any loss sequence, gradient sequence, and point sequence, the realized
regret against a comparator x* splits exactly as

    R_T = R+_T + sum_t <g_t, x_t - x_{t+1}> - sum_t B_{f_t}(x*, x_t) + sum_t delta_t

where R+_T = sum_t <g_t, x_{t+1} - x*> is the forward (one-step-ahead)
linear regret and delta_t = <g_t, x* - x_t> - f_t'(x_t; x* - x_t) is the
linearization gap.  The calculators in this module evaluate every term from
a recorded run, bound R+_T through the emitted regularizers, and evaluate
the closed-form full-regret bounds for the standard schedule families.

All q-sums run over t = 0..T by default; since the regret never depends on
the last emitted regularizer, each calculator can also drop the final q
term (``include_final_q=False``), which is the bound obtained by re-running
the last round with q_T set to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import INF, QuadMetric, SingularMetricError, as_point, dot, quad_norm_sq, dual_norm_sq
from .regularizers import Regularizer, Zero
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
    round's strong-convexity norm, so dual-norm terms use it.
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
    records: list
    x1: np.ndarray
    q0: Regularizer
    q0_tilde: Regularizer
    feasible_set: object
    kind: str                      # "ftrl" or "md"
    seq: object = None             # loss sequence, for comparators/variation
    composite: bool = False
    stochastic: bool = False
    schedule: dict = field(default_factory=dict)
    solver_calls: int = 0

    @property
    def T(self) -> int:
        return len(self.records)

    @property
    def dim(self) -> int:
        return self.x1.size

    def final_point(self) -> np.ndarray:
        return self.records[-1].x_next if self.records else self.x1

    def certified(self) -> bool:
        return all(r.certified for r in self.records)


@dataclass
class BoundInputs:
    """Problem-level constants that bounds may need beyond the ledger."""

    x_star: np.ndarray | None = None
    lipschitz: float | None = None     # G
    radius: float | None = None        # R, feasible-set width
    smoothness: float | None = None    # L
    tau: float | None = None
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


# -- decomposition -----------------------------------------------------------

def empirical_regret(ledger: Ledger, x_star, composite: bool | None = None) -> float:
    """sum_t f_t(x_t) - f_t(x*), plus the composite terms when requested."""
    x_star = as_point(x_star)
    if composite is None:
        composite = ledger.composite
    total = 0.0
    for rec in ledger.records:
        total += rec.loss_value - rec.loss.value(x_star)
        if composite and rec.psi is not None:
            total += rec.psi.value(rec.x) - rec.psi.value(x_star)
    return total


def forward_regret(ledger: Ledger, x_star) -> float:
    x_star = as_point(x_star)
    return sum(dot(rec.g, rec.x_next - x_star) for rec in ledger.records)


def decomposition_terms(ledger: Ledger, x_star) -> dict:
    """Per-round arrays of the four decomposition terms.

    The directional derivative f_t'(x_t; x* - x_t) is evaluated once per
    round and shared between the divergence and the linearization gap, so
    the identity holds to rounding error by construction of the terms, not
    by cancellation luck.
    """
    x_star = as_point(x_star)
    T = ledger.T
    out = {
        "lin_fwd": np.zeros(T), "drift": np.zeros(T),
        "breg_loss": np.zeros(T), "delta": np.zeros(T),
    }
    for i, rec in enumerate(ledger.records):
        to_star = x_star - rec.x
        out["lin_fwd"][i] = dot(rec.g, rec.x_next - x_star)
        out["drift"][i] = dot(rec.g, rec.x - rec.x_next)
        d = rec.loss.dir_deriv(rec.x, to_star)
        if not math.isfinite(d):
            raise ValueError(
                f"round {rec.t}: directional derivative toward x* is {d}")
        out["breg_loss"][i] = rec.loss.value(x_star) - rec.loss_value - d
        out["delta"][i] = dot(rec.g, to_star) - d
    return out


def decomposition_residual(ledger: Ledger, x_star, terms: dict | None = None) -> float:
    """|R_T - (R+_T + drift - breg + delta)|; zero in exact arithmetic.

    ``terms`` takes the arrays ``decomposition_terms`` already returned for
    this ledger and comparator, so a caller that also exports them computes
    them once."""
    if terms is None:
        terms = decomposition_terms(ledger, x_star)
    rhs = (float(np.sum(terms["lin_fwd"])) + float(np.sum(terms["drift"]))
           - float(np.sum(terms["breg_loss"])) + float(np.sum(terms["delta"])))
    return abs(empirical_regret(ledger, x_star, composite=False) - rhs)


# -- shared bound pieces -------------------------------------------------------

def _q_sum(ledger: Ledger, x_star, include_final_q: bool, tilde: bool) -> float:
    """sum over t of q_t(x*) - q_t(x_{t+1}), starting at the round-0 term."""
    q0 = ledger.q0_tilde if tilde else ledger.q0
    total = q0.value(x_star) - q0.value(ledger.x1)
    recs = ledger.records if include_final_q else ledger.records[:-1]
    for rec in recs:
        q = rec.q_tilde if tilde else rec.q
        vs = q.value(x_star)
        if vs == INF:
            return INF
        total += vs - q.value(rec.x_next)
    return total


def _p_sum(ledger: Ledger, x_star) -> float:
    total = 0.0
    for rec in ledger.records:
        vs = rec.p.value(x_star)
        if vs == INF:
            return INF
        total += vs - rec.p.value(rec.x)
    return total


def _bp_sum(ledger: Ledger, x_star) -> float:
    total = 0.0
    for rec in ledger.records:
        b = rec.p.bregman(x_star, rec.x)
        if b == INF:
            return INF
        total += b
    return total


def _breg_r_sum(ledger: Ledger) -> float:
    return sum(rec.breg_r for rec in ledger.records)


def _dual_sum(ledger: Ledger, vec_of, report: BoundReport, shift: float = 0.0) -> float:
    """sum_t 1/2 ||v_t||^2 under each round's certified metric (optionally
    shifted by -shift * identity for the smooth-loss rows)."""
    total = 0.0
    for rec in ledger.records:
        v = vec_of(rec)
        if v is None:
            report.certified = False
            report.notes.append(f"round {rec.t}: missing vector for dual norm")
            return INF
        if not np.any(v):
            continue
        m = rec.r_metric
        if m is None:
            report.certified = False
            report.notes.append(f"round {rec.t}: no certified metric")
            return INF
        if shift:
            try:
                m = m.shift_identity(-shift)
            except ValueError:
                report.certified = False
                report.notes.append(
                    f"round {rec.t}: metric cannot absorb smoothness {shift}")
                return INF
        try:
            total += 0.5 * dual_norm_sq(m, v)
        except SingularMetricError as e:
            report.certified = False
            report.notes.append(f"round {rec.t}: {e}")
            return INF
    return total


def _check_certified(ledger: Ledger, report: BoundReport):
    if not ledger.certified():
        report.certified = False
        report.notes.append("run emitted uncertified regularizers")


# -- forward-regret bounds -----------------------------------------------------

def bound_forward_ftrl(ledger: Ledger, x_star, include_final_q: bool = True) -> BoundReport:
    """Follow-the-regularized-leader forward bound:
    sum (q_t(x*) - q_t(x_{t+1})) + sum (p_t(x*) - p_t(x_t)) - sum B_{r_{1:t}}(x_{t+1}, x_t)."""
    if ledger.kind != "ftrl":
        raise ValueError(f"forward FTRL bound on a {ledger.kind} ledger")
    x_star = as_point(x_star)
    report = BoundReport("forward-ftrl", 0.0, {})
    _check_certified(ledger, report)
    q = _q_sum(ledger, x_star, include_final_q, tilde=False)
    p = _p_sum(ledger, x_star)
    b = _breg_r_sum(ledger)
    report.terms = {"q_sum": q, "p_sum": p, "breg_r_sum": b}
    report.value = q + p - b
    return report


def bound_forward_md(ledger: Ledger, x_star, include_final_q: bool = True) -> BoundReport:
    """Mirror-descent forward bound: the FTRL bound with B_{p_t}(x*, x_t)
    in place of p_t(x*) - p_t(x_t)."""
    if ledger.kind != "md":
        raise ValueError(f"forward MD bound on a {ledger.kind} ledger")
    x_star = as_point(x_star)
    report = BoundReport("forward-md", 0.0, {})
    _check_certified(ledger, report)
    q = _q_sum(ledger, x_star, include_final_q, tilde=False)
    bp = _bp_sum(ledger, x_star)
    b = _breg_r_sum(ledger)
    report.terms = {"q_sum": q, "bp_sum": bp, "breg_r_sum": b}
    report.value = q + bp - b
    return report


# -- full-regret bounds --------------------------------------------------------

def _assumption7_holds(ledger: Ledger, x_star, tol: float = 1e-9) -> bool:
    """Per-round check B_{f_t}(x*, x_t) >= B_{p_t}(x*, x_t)."""
    for rec in ledger.records:
        bf = rec.loss.bregman(x_star, rec.x)
        bp = rec.p.bregman(x_star, rec.x)
        if bf < bp - tol:
            return False
    return True


def bound_table2(ledger: Ledger, x_star, case: str, inputs: BoundInputs | None = None,
                 include_final_q: bool = True) -> BoundReport:
    """Closed-form full-regret bound for the named schedule family.

    Online cases charge 1/2 ||g_t||^2 under the round's certified dual norm;
    stochastic cases are the same expressions in expectation.  The smooth
    stochastic cases charge only the noise part 1/2 ||sigma_t||^2 under the
    metric reduced by the smoothness constant, plus the one-time terms
    L/2 ||x*||^2 (or L/2 ||x* - x_1||^2 for mirror descent) and
    f(x_1) - inf f.
    """
    if case not in TABLE2_CASES:
        raise ValueError(f"unknown bound case {case!r}")
    x_star = as_point(x_star)
    inputs = inputs or BoundInputs()
    report = BoundReport(case, 0.0, {})
    _check_certified(ledger, report)

    ftrl_case = case.endswith("ftrl")
    strong = case.endswith("md-strong")
    smooth = case.startswith("smooth")
    if ftrl_case and ledger.kind != "ftrl" or not ftrl_case and ledger.kind != "md":
        raise ValueError(f"case {case} does not match a {ledger.kind} ledger")

    terms = {}
    terms["q_sum"] = _q_sum(ledger, x_star, include_final_q, tilde=False)
    if ftrl_case:
        terms["p_sum"] = _p_sum(ledger, x_star)
    elif strong:
        if not _assumption7_holds(ledger, x_star):
            report.certified = False
            report.notes.append(
                "loss curvature does not dominate B_{p_t}(x*, x_t)")
    else:
        terms["bp_sum"] = _bp_sum(ledger, x_star)

    if smooth:
        L = inputs.smoothness
        if L is None or L <= 0:
            raise ValueError("smooth cases need a positive smoothness constant")
        if not ledger.stochastic:
            report.notes.append("smooth case evaluated on a deterministic run")
        if inputs.d_init is None:
            raise ValueError("smooth cases need d_init = f(x_1) - inf f")
        anchor = x_star if ftrl_case else x_star - ledger.x1
        terms["smooth_anchor"] = 0.5 * L * float(np.dot(anchor, anchor))
        terms["d_init"] = float(inputs.d_init)
        terms["noise_sum"] = _dual_sum(
            ledger, lambda rec: rec.sigma, report, shift=L)
    else:
        terms["grad_sum"] = _dual_sum(ledger, lambda rec: rec.g, report)

    report.terms = terms
    report.value = float(sum(terms.values()))
    return report


def bound_ao_ftrl(ledger: Ledger, x_star) -> BoundReport:
    """Optimistic FTRL bound:
    sum_{t=0}^{T-1} (q~_t(x*) - q~_t(x_{t+1})) + sum (p_t(x*) - p_t(x_t))
    + sum 1/2 ||g_t - hint_t||^2 dual.  With zero hints this is the plain
    FTRL bound with the final q term dropped, term by term."""
    if ledger.kind != "ftrl":
        raise ValueError("optimistic FTRL bound needs an ftrl ledger")
    x_star = as_point(x_star)
    report = BoundReport("ao-ftrl", 0.0, {})
    _check_certified(ledger, report)
    terms = {
        "q_sum": _q_sum(ledger, x_star, include_final_q=False, tilde=True),
        "p_sum": _p_sum(ledger, x_star),
        "hint_err_sum": _dual_sum(ledger, lambda rec: rec.g - rec.hint, report),
    }
    report.terms = terms
    report.value = float(sum(terms.values()))
    return report


def bound_ao_md(ledger: Ledger, x_star) -> BoundReport:
    """Optimistic mirror-descent analog of :func:`bound_ao_ftrl`."""
    if ledger.kind != "md":
        raise ValueError("optimistic MD bound needs an md ledger")
    x_star = as_point(x_star)
    report = BoundReport("ao-md", 0.0, {})
    _check_certified(ledger, report)
    terms = {
        "q_sum": _q_sum(ledger, x_star, include_final_q=False, tilde=True),
        "bp_sum": _bp_sum(ledger, x_star),
        "hint_err_sum": _dual_sum(ledger, lambda rec: rec.g - rec.hint, report),
    }
    report.terms = terms
    report.value = float(sum(terms.values()))
    return report


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
                inputs: BoundInputs | None = None, terms: dict | None = None) -> list:
    """Fixed-layout rows: t, iterate, gradient, the four decomposition
    terms, then running regret, running bound, and their gap.

    The running bound at row t is the bound of the run truncated after
    round t (with its final q term included), accumulated incrementally so
    the export stays linear in T; the last row matches the full-run
    calculator.  ``terms`` is as in :func:`decomposition_residual`.
    """
    x_star = as_point(x_star)
    if terms is None:
        terms = decomposition_terms(ledger, x_star)
    if bound_case is None:
        bound_case = "oo-ftrl" if ledger.kind == "ftrl" else "oo-md"
    if bound_case not in TABLE2_CASES:
        raise ValueError(f"unknown bound case {bound_case!r}")
    ftrl_case = bound_case.endswith("ftrl")
    strong = bound_case.endswith("md-strong")
    smooth = bound_case.startswith("smooth")
    inputs = inputs or BoundInputs()
    const = 0.0
    if smooth:
        L = inputs.smoothness
        if L is None or L <= 0 or inputs.d_init is None:
            raise ValueError("smooth cases need smoothness and d_init")
        anchor = x_star if ftrl_case else x_star - ledger.x1
        const = 0.5 * L * float(np.dot(anchor, anchor)) + float(inputs.d_init)
    shift = inputs.smoothness if smooth else 0.0

    rows = []
    cum_regret = 0.0
    q_acc = ledger.q0.value(x_star) - ledger.q0.value(ledger.x1)
    comp_acc = 0.0   # p differences, Bregman of p, or nothing (strong)
    dual_acc = 0.0
    for i, rec in enumerate(ledger.records):
        cum_regret += rec.loss_value - rec.loss.value(x_star)
        if ledger.composite and rec.psi is not None:
            cum_regret += rec.psi.value(rec.x) - rec.psi.value(x_star)
        q_acc += rec.q.value(x_star) - rec.q.value(rec.x_next)
        if ftrl_case:
            comp_acc += rec.p.value(x_star) - rec.p.value(rec.x)
        elif not strong:
            comp_acc += rec.p.bregman(x_star, rec.x)
        v = rec.sigma if smooth else rec.g
        if v is not None and np.any(v) and rec.r_metric is not None:
            m = rec.r_metric.shift_identity(-shift) if shift else rec.r_metric
            dual_acc += 0.5 * dual_norm_sq(m, v)
        cum_bound = const + q_acc + comp_acc + dual_acc
        row = [float(rec.t)]
        row += rec.x.tolist()
        row += rec.g.tolist()
        row += [float(terms[k][i]) for k in CSV_TERMS]
        row += [cum_regret, cum_bound, cum_bound - cum_regret]
        rows.append(row)
    return rows
