"""Span recorder for the traced run.

The recorder wraps public entry points of adaopt at the places where the
program looks them up (module globals such as ``cli.run_rounds`` or
``solvers.argmin_numeric``, and class attributes such as ``Driver.round``).
Nothing in the package is edited: ``install`` swaps the attributes and the
returned ``uninstall`` puts the originals back.

Each span records its name, start, end, parent and cell id in flat arrays
that stay in memory until ``write`` dumps them.  Counts come from the same
wrappers.  A span's self time is its duration minus the durations of its
direct children; the self time of the benchmark's own ``cell`` root span is
the time no layer span covers, reported as ``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

ROOT = "cell"

MODULES = ("core", "regularizers", "solvers", "losses", "learners", "regret",
           "cli")

# layer span name -> entry points ("module:function" or "module:Class.attr").
# A module function is wrapped in every adaopt module that imported it.
SPANS = {
    "learners.run_rounds": ["learners:run_rounds"],
    "learners.driver_round": ["learners:Driver.round"],
    "regularizers.schedule": [
        "regularizers:adagrad_diag_step", "regularizers:adagrad_full_step",
        "regularizers:adagrad_initial_metric",
        "regularizers:ftrl_prox_increment", "regularizers:optimistic_shift",
        "regularizers:scale_free_eta", "regularizers:final_attack_eta",
        "regularizers:proximal_eta_increment", "regularizers:composite_wrap"],
    "regularizers.check_proximal": ["regularizers:check_proximal"],
    "core.quadmetric_full": ["core:QuadMetric.full"],
    "core.dual_norm_sq": ["core:dual_norm_sq"],
    "solvers.objective": [
        "solvers:Objective.build", "solvers:Objective.add_linear",
        "solvers:Objective.add_quadratic", "solvers:Objective.add_regularizer",
        "solvers:Objective.add_bregman_anchor"],
    "solvers.minimize": ["solvers:minimize"],
    "solvers.argmin_quadratic": ["solvers:argmin_quadratic"],
    "solvers.argmin_l1_composite": ["solvers:argmin_l1_composite"],
    "solvers.argmin_numeric": ["solvers:argmin_numeric"],
    "losses.stream": [
        "losses:LossSequence.gradient", "losses:FixedLoss.loss",
        "losses:LinearStream.loss", "losses:DriftingQuadratic.loss",
        "losses:StochasticLoss.loss", "losses:StochasticLoss.gradient"],
    "regret.comparator": ["regret:select_comparator"],
    "regret.decomposition": [
        "regret:empirical_regret", "regret:forward_regret",
        "regret:decomposition_residual", "regret:decomposition_terms"],
    "regret.bounds": [
        "regret:bound_table2", "regret:bound_forward_ftrl",
        "regret:bound_forward_md", "regret:bound_ao_ftrl", "regret:bound_ao_md",
        "regret:bound_variational_smooth", "regret:bound_final_attack"],
    "regret.ledger_rows": ["regret:ledger_header", "regret:ledger_rows"],
    "cli.validate": ["cli:validate_run_config"],
    "cli.run_config": ["cli:_run_config"],
    "cli.run_seed": ["cli:run_seed"],
    "cli.replay_check": ["cli:replay_check"],
    "cli.write": ["cli:_atomic_write"],
}

LAYERS = (ROOT,) + tuple(SPANS)


class Recorder:
    """Spans and counts of one traced process, kept in flat arrays."""

    def __init__(self):
        self.names = list(LAYERS)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell = array("i")
        self.outer = array("b")      # 1 if no ancestor span has the same name
        self.depth = [0] * len(self.names)
        self.stack = []
        self.counts = Counter()
        self.cell_id = -1
        self.factor = {}             # cell id -> wall-to-reference-speed factor
        self.ledger = None           # the last Ledger run_rounds returned

    def nid(self, name: str) -> int:
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.cell.append(self.cell_id)
        self.outer.append(self.depth[nid] == 0)
        self.end.append(0.0)
        self.depth[nid] += 1
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int, nid: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()
        self.depth[nid] -= 1

    def inside(self, i: int, nid: int) -> bool:
        """True if span i has an ancestor named nid."""
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def write(self, path: str) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span,name,start_us,end_us,parent,cell\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.names[self.name[i]]},"
                         f"{(self.start[i] - t0) * 1e6:.3f},"
                         f"{(self.end[i] - t0) * 1e6:.3f},"
                         f"{self.parent[i]},{self.cell[i]}\n")


def self_times(rec: Recorder) -> list:
    """Per span: duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(rec.start, rec.end)]
    for i, p in enumerate(rec.parent):
        if p >= 0:
            own[p] -= rec.end[i] - rec.start[i]
    return own


# -- installing the wrappers ---------------------------------------------------

def _span(rec: Recorder, nid: int, key: str, fn, after=None):
    counts = rec.counts

    def wrapper(*args, **kw):
        counts[key] += 1
        i = rec.open(nid)
        try:
            out = fn(*args, **kw)
        finally:
            rec.close(i, nid)
        if after is not None:
            after(args, out)
        return out

    return functools.update_wrapper(wrapper, fn)


def _counter(rec: Recorder, key: str, fn):
    counts = rec.counts

    def wrapper(*args, **kw):
        counts[key] += 1
        return fn(*args, **kw)

    return functools.update_wrapper(wrapper, fn)


def _smooth_counter(rec: Recorder, fn, grad: bool):
    """Objective.smooth_grad / smooth_value: each evaluates every loss in
    ``self.losses`` once, so the loss-evaluation count is their length."""
    counts = rec.counts
    in_numeric = rec.nid("solvers.argmin_numeric")
    in_minimize = rec.nid("solvers.minimize")
    depth = rec.depth

    def wrapper(obj, x):
        if grad and depth[in_numeric]:
            counts["solvers.numeric.grad_evals"] += 1
        if depth[in_minimize]:
            counts["losses.loss_evals"] += len(obj.losses)
        return fn(obj, x)

    return functools.update_wrapper(wrapper, fn)


def _resolve(target: str):
    """'mod:func' -> (module, func, None); 'mod:Cls.attr' -> (module, attr, cls)."""
    mod_name, _, path = target.partition(":")
    mod = importlib.import_module(f"adaopt.{mod_name}")
    if "." in path:
        cls_name, attr = path.split(".")
        return mod, attr, getattr(mod, cls_name)
    return mod, path, None


def install(rec: Recorder):
    """Wrap every entry point in SPANS plus the counters; return uninstall."""
    undo = []

    def patch_function(fn, wrapped):
        for m in MODULES:
            mod = importlib.import_module(f"adaopt.{m}")
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    undo.append((mod, attr, val))
                    setattr(mod, attr, wrapped)

    def patch_attr(cls, attr, make):
        raw = cls.__dict__[attr]
        undo.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def stash_ledger(args, out):
        rec.ledger = out

    def count_bytes(args, out):
        rec.counts["cli.write.bytes"] += len(args[1].encode())

    after = {"learners:run_rounds": stash_ledger, "cli:_atomic_write": count_bytes}
    for layer, targets in SPANS.items():
        nid = rec.nid(layer)
        for target in targets:
            mod, attr, cls = _resolve(target)
            key = f"{mod.__name__.rsplit('.', 1)[1]}.{attr}"
            hook = after.get(target)
            if cls is None:
                fn = getattr(mod, attr)
                patch_function(fn, _span(rec, nid, key, fn, hook))
            else:
                patch_attr(cls, attr, lambda f, nid=nid, key=key, hook=hook:
                           _span(rec, nid, key, f, hook))

    core = importlib.import_module("adaopt.core")
    solvers = importlib.import_module("adaopt.solvers")
    patch_function(core.as_point, _counter(rec, "core.as_point", core.as_point))
    patch_attr(core.QuadMetric, "__init__",
               lambda f: _counter(rec, "core.quadmetric_build", f))
    patch_attr(solvers.Objective, "smooth_grad",
               lambda f: _smooth_counter(rec, f, grad=True))
    patch_attr(solvers.Objective, "smooth_value",
               lambda f: _smooth_counter(rec, f, grad=False))

    def uninstall():
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)
        undo.clear()

    return uninstall


# -- summaries -------------------------------------------------------------------

def layer_totals(rec: Recorder, factor=None) -> tuple:
    """(self seconds, inclusive seconds) per layer name, each span scaled by
    its cell's entry in ``factor`` (cell id -> factor) when given.

    Inclusive time counts only a layer's outermost spans, so a layer that
    calls itself is not counted twice."""
    own = self_times(rec)
    self_s = dict.fromkeys(rec.names, 0.0)
    incl_s = dict.fromkeys(rec.names, 0.0)
    for i, nid in enumerate(rec.name):
        n = rec.names[nid]
        f = factor[rec.cell[i]] if factor else 1.0
        self_s[n] += own[i] * f
        if rec.outer[i]:
            incl_s[n] += (rec.end[i] - rec.start[i]) * f
    return self_s, incl_s


def route_counts(rec: Recorder, first: int = 0) -> Counter:
    """Solver calls made during play (inside run_rounds), by route, over
    spans from index ``first`` on.

    argmin_quadratic hands anisotropic constrained problems to
    argmin_numeric; such a call counts once, as numeric."""
    play = rec.nid("learners.run_rounds")
    ids = {rec.nid(n): n for n in ("solvers.minimize", "solvers.argmin_quadratic",
                                   "solvers.argmin_l1_composite",
                                   "solvers.argmin_numeric")}
    quad = rec.nid("solvers.argmin_quadratic")
    out = Counter()
    delegated = 0
    for i in range(first, len(rec.name)):
        n = ids.get(rec.name[i])
        if n is None or not rec.inside(i, play):
            continue
        out[n] += 1
        if n == "solvers.argmin_numeric" and rec.name[rec.parent[i]] == quad:
            delegated += 1
    out["quadratic"] = out["solvers.argmin_quadratic"] - delegated
    out["l1"] = out["solvers.argmin_l1_composite"]
    out["numeric"] = out["solvers.argmin_numeric"]
    return out


def ledger_floats(ledger) -> int:
    """Float64 values reachable from the ledger's round records.

    Walks iterates, gradients, hints, the regularizer handles with their
    metric weights and matrices, and the loss closures.  Arrays are counted
    once per underlying buffer."""
    seen = set()
    buffers = set()
    total = 0
    todo = list(ledger.records)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            if base.dtype.kind == "f" and id(base) not in buffers:
                buffers.add(id(base))
                total += base.size
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, types.FunctionType):
            todo.extend(c.cell_contents for c in obj.__closure__ or ())
        elif isinstance(obj, float):
            total += 1
        elif hasattr(obj, "__dict__") or hasattr(type(obj), "__slots__"):
            if isinstance(obj, (type, types.ModuleType)):
                continue
            todo.extend(vars(obj).values() if hasattr(obj, "__dict__") else ())
            for slot in getattr(type(obj), "__slots__", ()):
                todo.append(getattr(obj, slot, None))
    return total
