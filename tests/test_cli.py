"""Command line harness: config validation, the run/sweep/verify/presets
commands, on-disk artifacts, and cross-process determinism."""

import copy
import hashlib
import json
import math
import os

import pytest

from adaopt import regret
from adaopt.cli import ConfigError, main, validate_run_config
from adaopt.learners import PRESETS


BASE = {
    "name": "demo",
    "preset": "ogd",
    "params": {"eta": 0.2},
    "set": {"kind": "box", "dim": 3, "lo": -1.0, "hi": 1.0},
    "losses": {"kind": "random-linear", "seed": 4},
    "T": 40,
    "seeds": [0, 1, 2],
    "bounds": ["oo-ftrl", "forward"],
}


def cfg_with(**over):
    cfg = copy.deepcopy(BASE)
    cfg.update(over)
    return cfg


# -- config validation ---------------------------------------------------------

def test_validate_fills_defaults():
    cfg = validate_run_config({"preset": "ogd",
                               "set": {"kind": "ball", "dim": 2},
                               "losses": {"kind": "random-linear"}, "T": 5})
    assert cfg["name"] == "run"
    assert cfg["seeds"] == [0]
    assert cfg["comparator"] == {"policy": "offline-best"}
    assert cfg["bounds"] == ["oo-ftrl"]
    assert cfg["variational"] is False
    md = validate_run_config({"preset": "md",
                              "set": {"kind": "ball", "dim": 2},
                              "losses": {"kind": "random-linear"}, "T": 5})
    assert md["bounds"] == ["oo-md"]


@pytest.mark.parametrize("broken", [
    cfg_with(extra_key=1),
    cfg_with(preset="sgd"),
    cfg_with(params={"eta": 0.2, "momentum": 0.9}),
    cfg_with(T=0),
    cfg_with(seeds=[]),
    cfg_with(seeds=[1, 1]),
    cfg_with(seeds=[-1]),
    cfg_with(bounds=["oo-md"]),                       # md case on an ftrl run
    cfg_with(preset="md", params={}, bounds=["oo-ftrl"]),
    cfg_with(bounds=["table-9"]),
    cfg_with(variational=True),                       # needs ao-ftrl-prox
    cfg_with(inputs={"sigma": 1.0}),
    cfg_with(comparator={"policy": "explicit", "point": [5.0, 0.0, 0.0]}),
    cfg_with(comparator={"policy": "median"}),
    cfg_with(set={"kind": "box", "dim": 2, "lo": 1.0, "hi": -1.0}),
    cfg_with(set={"kind": "torus", "dim": 2}),
    cfg_with(losses={"kind": "warm-start"}),
    cfg_with(params={"eta": 0.2, "hints": "custom"}),
    cfg_with(inputs={"lipschitz": 1.0}),              # read by no bound
    cfg_with(inputs={"tau": 0.5}),
])
def test_validate_rejects(broken):
    with pytest.raises(ConfigError):
        validate_run_config(broken)


@pytest.mark.parametrize("key", ["lipschitz", "tau"])
def test_run_names_an_input_no_bound_reads(tmp_path, capsys, key):
    path = write_cfg(tmp_path, cfg_with(inputs={key: 1.0}))
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["where"] == "inputs" and key in err["message"]


def test_validate_accepts_forward_and_ao_on_both_kinds():
    validate_run_config(cfg_with(bounds=["forward"]))
    md = cfg_with(preset="ao-md", params={}, bounds=["forward", "ao", "oo-md"])
    validate_run_config(md)


# -- run command ----------------------------------------------------------------

def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_end_to_end(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--config", write_cfg(tmp_path, BASE),
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "demo" in text and "oo-ftrl" in text

    doc = json.loads((out / "demo.json").read_text())
    assert set(doc) == {"version", "config", "results", "aggregate"}
    assert len(doc["results"]) == 3
    for res in doc["results"]:
        assert res["replay"]["ok"] is True
        assert res["certified"] is True
        assert res["T"] == 40
        cases = {rep["case"] for rep in res["bounds"]}
        assert {"oo-ftrl", "forward-ftrl"} <= cases
        for rep in res["bounds"]:
            assert rep["slack"] >= -1e-8
        csv = (out / res["csv"]).read_text().strip().split("\n")
        assert csv[0] == ",".join(regret.ledger_header(3))
        assert len(csv) == 41
    agg = doc["aggregate"]
    assert agg["seeds"] == 3
    assert agg["cases"]["oo-ftrl"]["min_slack"] >= -1e-8


def test_run_is_deterministic_across_processes(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg_path, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg_path, "--out", str(b),
                 "--jobs", "3"]) == 0
    for name in ["demo.json"] + [f"demo.seed{s}.csv" for s in (0, 1, 2)]:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_exit_codes(tmp_path, capsys):
    # missing file and invalid config come back as exit 2 with a JSON error
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["where"] == "config"

    bad = write_cfg(tmp_path, cfg_with(preset="sgd"), "bad.json")
    assert main(["run", "--config", bad, "--out", str(tmp_path)]) == 2
    capsys.readouterr()

    # validates, then fails at runtime: no offline comparator on an
    # unbounded set with linear losses
    run = cfg_with(set={"kind": "unconstrained", "dim": 3}, seeds=[0])
    path = write_cfg(tmp_path, run, "runtime.json")
    assert main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["where"] == "runtime"


def test_run_outputs_honour_the_umask(tmp_path):
    cfg_path = write_cfg(tmp_path, cfg_with(seeds=[0]))
    for mask, mode in ((0o022, 0o644), (0o027, 0o640)):
        out = tmp_path / f"out{mask:o}"
        old = os.umask(mask)
        try:
            assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        finally:
            os.umask(old)
        for name in ("demo.json", "demo.seed0.csv"):
            assert os.stat(out / name).st_mode & 0o777 == mode, (name, oct(mask))


# Reference outputs of fixed runs, recorded before the per-round path was
# reworked.  The diagonal presets must stay bit for bit the same; the
# full-matrix run takes the numeric argmin and matches at the acceptance
# tolerances (c07: iterates to 1e-9, c01: 1e-8 * (1 + |regret|)).
GUARD = {"name": "guard", "set": {"kind": "box", "dim": 6},
         "losses": {"kind": "random-linear", "seed": 7}, "T": 60,
         "seeds": [3], "bounds": ["oo-ftrl", "forward"]}
GUARD_SHA256 = {
    "ogd": ({"eta": 0.2},
            "087ec6ee4eabe27ebb09e34db897fc5d45feb46941d8bd50dcdf44e886b9ab20",
            "6e67c4563183dc051cf4ce7a2f6e95c4beeb7461f81c7d1761371df5127809dd"),
    "adagrad-da": ({"metric": "diag"},
                   "eba304ad11706fbeb71d10e6f36fb909570da433933e27cebeb1b64ed4525793",
                   "c2a973ca4b6f2a594e28f27cd955a7f268cfbcf9b30515bd6e08caad9f25df7e"),
}
GUARD_FULL = {
    "regret": 20.143480789673188,
    "forward_regret": -5.31797477429992,
    "bounds": [31.265137337354115, 0.7655335184282279],
    "final_point": [-6.412526723284852e-05, 0.06871910784241086, 1.0, -1.0,
                    -0.19539502350380225, 0.8018976123025413,
                    -0.7474423146236362, 1.0],
    "rows": {10: [0.30370394649702676, -0.048428369070827586, 0.03536296827023912,
                  0.45869145770445763, 1.0, 0.39797777222618547,
                  -0.2201222987242286, 1.0],
             20: [-0.41546573999498687, 0.926586980379782, 0.5240469533578929,
                  0.7218704355281393, -0.048578969095302245, 0.7083671173035226,
                  0.18905379952620488, 1.0]},
}


def _guard_run(tmp_path, preset, params, **over):
    cfg = dict(copy.deepcopy(GUARD), preset=preset, params=params, **over)
    out = tmp_path / preset
    assert main(["run", "--config", write_cfg(tmp_path, cfg, f"{preset}.json"),
                 "--out", str(out)]) == 0
    return (out / "guard.json").read_bytes(), (out / "guard.seed3.csv").read_bytes()


@pytest.mark.parametrize("preset", sorted(GUARD_SHA256))
def test_run_outputs_match_recorded_digests(tmp_path, preset):
    params, json_sha, csv_sha = GUARD_SHA256[preset]
    doc, csv = _guard_run(tmp_path, preset, params)
    assert hashlib.sha256(csv).hexdigest() == csv_sha
    assert hashlib.sha256(doc).hexdigest() == json_sha


def test_full_matrix_run_matches_recorded_values(tmp_path):
    doc, csv = _guard_run(tmp_path, "adagrad-da", {"metric": "full"},
                          set={"kind": "box", "dim": 8}, T=30)
    res = json.loads(doc)["results"][0]
    c01 = 1e-8 * (1.0 + abs(GUARD_FULL["regret"]))
    assert abs(res["regret"] - GUARD_FULL["regret"]) <= c01
    assert abs(res["forward_regret"] - GUARD_FULL["forward_regret"]) <= c01
    assert res["residual"] <= c01
    assert [b["value"] for b in res["bounds"]] == pytest.approx(
        GUARD_FULL["bounds"], abs=c01)
    assert res["final_point"] == pytest.approx(GUARD_FULL["final_point"], abs=1e-9)
    lines = csv.decode().strip().split("\n")
    for t, ref in GUARD_FULL["rows"].items():
        row = [float(v) for v in lines[t].split(",")[1:9]]
        assert row == pytest.approx(ref, abs=1e-9), t


# A smooth-loss bound whose metric cannot absorb the smoothness in round 1:
# the report is uncertified and says why, whichever position its label has,
# and the CSV's running bound, which is that report's, reads inf from there.
SMOOTH_MD = {"name": "smooth", "preset": "adagrad-md",
             "set": {"kind": "box", "dim": 3},
             "losses": {"kind": "fixed-quadratic", "center": 0.2, "noise": 0.3},
             "T": 60, "seeds": [0]}


def test_uncertifiable_primary_bound_runs_and_reads_inf(tmp_path):
    def run(bounds, name):
        out = tmp_path / name
        cfg = dict(SMOOTH_MD, bounds=bounds)
        assert main(["run", "--config", write_cfg(tmp_path, cfg, f"{name}.json"),
                     "--out", str(out)]) == 0
        res = json.loads((out / "smooth.json").read_text())["results"][0]
        lines = (out / "smooth.seed0.csv").read_text().strip().split("\n")
        col = lines[0].split(",").index("cum_bound")
        return (next(r for r in res["bounds"] if r["case"] == "smooth-so-md"),
                [float(line.split(",")[col]) for line in lines[1:]])

    rep, cum_bound = run(["smooth-so-md"], "first")
    assert not rep["certified"]
    assert rep["notes"] == ["round 1: metric cannot absorb smoothness 1.0"]
    assert rep["value"] == float("inf")
    assert cum_bound == [float("inf")] * 60
    # listed second, the label gives the same report; the CSV follows oo-md
    rep2, cum_bound2 = run(["oo-md", "smooth-so-md"], "second")
    assert rep2 == rep
    assert all(math.isfinite(v) for v in cum_bound2)


# adagrad-md with its default gamma0 on a ball: round 1's metric has an
# entry of 7.4e-7, where the numeric route's certificate ||u|| <= sigma * tol
# lies below double precision and the run used to exit 3.  The ball route
# solves the round exactly.
BALL_TINY_METRIC = {"name": "cell", "preset": "adagrad-md",
                    "params": {"metric": "diag"},
                    "set": {"kind": "ball", "dim": 10},
                    "losses": {"kind": "random-linear", "seed": 1734586549},
                    "T": 1, "seeds": [54925]}


def test_diagonal_metric_with_a_tiny_entry_on_a_ball_certifies(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, BALL_TINY_METRIC),
                 "--out", str(out)]) == 0
    res = json.loads((out / "cell.json").read_text())["results"][0]
    assert res["certified"] is True
    assert res["replay"]["ok"] is True
    assert all(rep["certified"] for rep in res["bounds"])


# -- sweep ------------------------------------------------------------------------

def test_sweep_two_cells(tmp_path, capsys):
    base = cfg_with(seeds=[0, 1])
    base.pop("name")
    sweep = {"name": "sw", "base": base,
             "cells": [{"params": {"eta": 0.05}},
                       {"preset": "adagrad-da"}]}
    out = tmp_path / "out"
    rc = main(["sweep", "--config", write_cfg(tmp_path, sweep),
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "sw.json").read_text())
    assert [c["name"] for c in summary["cells"]] == ["sw-000", "sw-001"]
    for cell in summary["cells"]:
        assert cell["aggregate"]["seeds"] == 2
        assert (out / f"{cell['name']}.json").exists()
    # the preset-changing cell dropped the base params and bound labels,
    # falling back to the new preset's defaults
    cell1 = json.loads((out / "sw-001.json").read_text())
    assert cell1["config"]["preset"] == "adagrad-da"
    assert cell1["config"]["params"] == {}
    assert cell1["config"]["bounds"] == ["oo-ftrl"]


# -- verify and presets -------------------------------------------------------------

def test_verify_fast_json(capsys):
    rc = main(["verify", "--fast", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"bregman", "solvers", "decomposition", "bounds",
                        "nonconvex", "lemmas"}
    for res in doc.values():
        assert all(entry["pass"] for entry in res.values())


def test_verify_unknown_suite(capsys):
    assert main(["verify", "bogus"]) == 2


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == set(PRESETS)
    assert doc["ogd"] == {"eta": 0.1}
