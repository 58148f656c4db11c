"""The benchmark's workloads: each is a pool of seeded `adaopt run` configs.

Every workload is one preset on one feasible set.  The workload seed drives
all generated inputs (the loss-stream seed, the run seed and, for the
quadratic stream, its amplitude and period) through the standard library's
``random``, so the parent process needs neither numpy nor adaopt to build
the pool.  A run cycles through the pool; each pool entry is one cell: one
config with one seed.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0          # the seed the golden references were made with
POOL_SIZE = 16


def _closed_form(r: random.Random) -> dict:
    # adagrad-da, diagonal metric on a box: every round takes the separable
    # closed-form argmin, so the time is Python-object overhead; T=400 makes
    # a cell long enough that one sample averages out short speed changes
    return {"preset": "adagrad-da", "params": {"metric": "diag"},
            "set": {"kind": "box", "dim": 10},
            "losses": {"kind": "random-linear", "seed": r.randrange(2 ** 31)},
            "T": 400}


def _numeric_ball(r: random.Random) -> dict:
    # a diagonal metric on a ball has no closed form here: every round falls
    # back to argmin_numeric; T=200 for the same reason as closed-form's T.
    # gamma0=0 makes the round-1 metric diag|g_1| (textbook AdaGrad).  With
    # the default gamma0=1 it is about diag(g_1^2)/2, and when a coordinate
    # of g_1 is near 0, argmin_numeric cannot certify round 1 (see
    # NUMERIC_BALL_DEFECT): about 3% of cells would fail
    return {"preset": "adagrad-md", "params": {"metric": "diag", "gamma0": 0.0},
            "set": {"kind": "ball", "dim": 10},
            "losses": {"kind": "random-linear", "seed": r.randrange(2 ** 31)},
            "T": 200}


def _full_matrix(r: random.Random) -> dict:
    # full-matrix AdaGrad at d=50: eigh calls in QuadMetric.full, a numeric
    # argmin on the box, and d x d matrices stored in the ledger every round
    return {"preset": "adagrad-da", "params": {"metric": "full"},
            "set": {"kind": "box", "dim": 50},
            "losses": {"kind": "random-linear", "seed": r.randrange(2 ** 31)},
            "T": 40}


def _implicit_quadratic(r: random.Random) -> dict:
    # nonlin-ftrl keeps every loss in the objective, so round t evaluates t
    # losses per solver iteration and a run is O(T^2); T=200 puts most of
    # the per-round cost in the t-dependent part
    return {"preset": "nonlin-ftrl",
            "set": {"kind": "ball", "dim": 10},
            "losses": {"kind": "sine-quadratic",
                       "amplitude": r.uniform(0.3, 0.9),
                       "period": r.uniform(8.0, 24.0)},
            "T": 200}


WORKLOADS = {
    "closed-form": _closed_form,
    "numeric-ball": _numeric_ball,
    "full-matrix": _full_matrix,
    "implicit-quadratic": _implicit_quadratic,
}

# A cell of the default-gamma0 variant of numeric-ball that adaopt cannot
# run: round 1's metric has smallest entry 7.4e-7, so the certificate
# ||u|| <= sigma * 1e-10 that argmin_numeric demands lies below double
# precision and the run exits 3 ("no certificate after 10000 iterations").
# test_perfbench.py keeps this failure visible until adaopt fixes it.
NUMERIC_BALL_DEFECT = {
    "preset": "adagrad-md", "params": {"metric": "diag"},
    "set": {"kind": "ball", "dim": 10},
    "losses": {"kind": "random-linear", "seed": 1734586549},
    "T": 1, "name": "cell", "seeds": [54925]}

# closed-form output is compared byte for byte; the others take a numeric
# argmin route and are compared at the acceptance suite's tolerances
BIT_IDENTICAL = {"closed-form"}


def pool(workload: str, seed: int) -> list:
    """The workload's cell configs for this seed, in run order."""
    make = WORKLOADS[workload]
    r = random.Random(f"{workload}/{seed}")
    cells = []
    for _ in range(POOL_SIZE):
        cfg = make(r)
        cfg["name"] = "cell"
        cfg["seeds"] = [r.randrange(2 ** 16)]
        cells.append(cfg)
    return cells
