"""Correctness of one cell's outputs, and the golden references.

Every cell must exit 0, pass its own CSV replay, close the regret
decomposition within the c01 tolerance and certify the run and every bound.
Cells of the default seed are also compared with the stored references in
``golden/<workload>.json``: closed-form by the SHA-256 of its CSV and JSON,
the numeric-route workloads by iterates, regret, residual and bound values
at the acceptance suite's pinned tolerances.  On other seeds, a repeat of a
pool cell is compared in the same way with its first run in the process.
"""

from __future__ import annotations

import hashlib
import json
import os

from workloads import BIT_IDENTICAL

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

RESIDUAL_TOL = 1e-8      # c01: residual <= 1e-8 * (1 + |regret|)
ITERATE_TOL = 1e-9       # c07: iterates agree to 1e-9
BOUND_RTOL = 1e-6        # c03: bound values to 1e-6 relative
CHECKPOINTS = 4          # iterate rows kept per cell, evenly spaced


def read_outputs(out_dir: str) -> tuple:
    """(json bytes, csv bytes) that `adaopt run` wrote for config name 'cell'."""
    with open(os.path.join(out_dir, "cell.json"), "rb") as fh:
        doc = fh.read()
    csv_name = json.loads(doc)["results"][0]["csv"]
    with open(os.path.join(out_dir, csv_name), "rb") as fh:
        csv = fh.read()
    return doc, csv


def summary(workload: str, doc: bytes, csv: bytes) -> dict:
    """What the golden check compares for this workload."""
    if workload in BIT_IDENTICAL:
        return {"json_sha256": hashlib.sha256(doc).hexdigest(),
                "csv_sha256": hashlib.sha256(csv).hexdigest()}
    res = json.loads(doc)["results"][0]
    lines = csv.decode().strip().split("\n")
    dim = len(res["final_point"])
    T = len(lines) - 1
    rows = sorted({max(1, (T * k) // CHECKPOINTS) for k in range(1, CHECKPOINTS + 1)})
    iterates = [[float(v) for v in lines[t].split(",")[1:1 + dim]] for t in rows]
    return {"rounds": rows, "iterates": iterates,
            "final_point": res["final_point"],
            "regret": res["regret"], "forward_regret": res["forward_regret"],
            "residual": res["residual"],
            "bounds": [b.get("value") for b in res["bounds"]]}


def compare(ref: dict, got: dict) -> list:
    """Mismatches between a reference summary and a cell's summary."""
    if "csv_sha256" in ref:
        return [k for k in ("json_sha256", "csv_sha256") if ref[k] != got[k]]
    bad = []
    if ref["rounds"] != got["rounds"]:
        return ["rounds"]
    for name, a, b in (("iterates", ref["iterates"], got["iterates"]),
                       ("final_point", [ref["final_point"]], [got["final_point"]])):
        worst = max(abs(u - v) for ra, rb in zip(a, b) for u, v in zip(ra, rb))
        if worst > ITERATE_TOL:
            bad.append(f"{name} off by {worst:.3e}")
    scale = 1.0 + abs(ref["regret"])
    for k in ("regret", "forward_regret", "residual"):
        if abs(ref[k] - got[k]) > RESIDUAL_TOL * scale:
            bad.append(k)
    if len(ref["bounds"]) != len(got["bounds"]) or any(
            a is None or b is None or abs(a - b) > BOUND_RTOL * abs(a)
            for a, b in zip(ref["bounds"], got["bounds"])):
        bad.append("bounds")
    return bad


def invariants(doc: bytes) -> list:
    """Failures that hold for any seed: replay, decomposition, certification."""
    res = json.loads(doc)["results"][0]
    bad = []
    if not res["replay"]["ok"]:
        bad.append("replay")
    if res["residual"] > RESIDUAL_TOL * (1.0 + abs(res["regret"])):
        bad.append("residual")
    if not res["certified"]:
        bad.append("uncertified run")
    for b in res["bounds"]:
        if "error" in b or not b["certified"]:
            bad.append(f"uncertified bound {b['case']}")
    return bad


def load_golden(workload: str) -> list:
    with open(os.path.join(GOLDEN_DIR, f"{workload}.json")) as fh:
        return json.load(fh)["cells"]


def write_golden(workload: str, seed: int, cells: list) -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    # one cell per line keeps the file small and its diffs readable
    body = ",\n".join(json.dumps(c) for c in cells)
    with open(os.path.join(GOLDEN_DIR, f"{workload}.json"), "w") as fh:
        fh.write(f'{{"workload": "{workload}", "seed": {seed}, "cells": [\n'
                 f"{body}\n]}}\n")
