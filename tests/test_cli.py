"""Command line harness: config validation, the run/sweep/verify/presets
commands, on-disk artifacts, and cross-process determinism."""

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adaopt import cli, losses, regret, regularizers, solvers
from adaopt.cli import ConfigError, main, validate_run_config
from adaopt.learners import PRESET_TABLE, PRESETS


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


# (config, the key its error names): integer fields given a bool or a
# fraction.  Each used to validate; a fractional seed ran truncated.
INTEGER_FIELDS = [
    (cfg_with(losses={"kind": "random-linear", "seed": 1.7}), "losses.seed"),
    (cfg_with(losses={"kind": "random-linear", "seed": True}), "losses.seed"),
    (cfg_with(losses={"kind": "drift-then-constant", "base": 1.0,
                      "flips": 2.5}), "losses.flips"),
    (cfg_with(losses={"kind": "drift-then-constant", "base": 1.0,
                      "flips": True}), "losses.flips"),
    (cfg_with(T=True), "T"),
    (cfg_with(set={"kind": "box", "dim": True}), "set.dim"),
    (cfg_with(seeds=[True]), "seeds"),
]


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
    # scalars and vectors of the set and the losses: numbers, finite, and
    # positive where a size or a period is meant
    cfg_with(losses={"kind": "sine-quadratic", "period": 0}),
    cfg_with(losses={"kind": "sine-quadratic", "weight": -1.0}),
    cfg_with(losses={"kind": "sine-quadratic", "amplitude": math.inf}),
    cfg_with(losses={"kind": "fixed-quadratic", "weight": math.nan}),
    cfg_with(losses={"kind": "fixed-quadratic", "noise": math.nan}),
    cfg_with(losses={"kind": "random-linear", "seed": math.inf}),
    cfg_with(losses={"kind": "random-linear", "scale": "big"}),
    cfg_with(set={"kind": "ball", "dim": 3, "radius": math.nan}),
    cfg_with(set={"kind": "ball", "dim": 3, "radius": math.inf}),
    cfg_with(set={"kind": "ball", "dim": 3, "radius": "big"}),
    cfg_with(set={"kind": "simplex", "dim": 3, "scale": 0}),
    cfg_with(set={"kind": "simplex", "dim": 3, "scale": math.nan}),
    cfg_with(set={"kind": "box", "dim": 3, "lo": [-1.0, math.nan, -1.0]}),
    cfg_with(set={"kind": "box", "dim": 3, "hi": 10 ** 400}),
    # the preset's own parameter parse
    cfg_with(params={"eta": math.nan}),
    cfg_with(params={"eta": None}),
    cfg_with(preset="ao-md", params={"hints": "bogus"}, bounds=["oo-md"]),
    cfg_with(preset="md", params={"composite_alpha": 0.1,
                                  "composite_setting": "bogus"},
             bounds=["oo-md"]),
    cfg_with(preset="ao-ftrl-prox", params={"eta_schedule": "bogus"}),
    cfg_with(preset="adagrad-da", params={"metric": "bogus"}),
    cfg_with(preset="ao-ftrl-prox", params={"eta_schedule": "final-attack"},
             set={"kind": "unconstrained", "dim": 3}),
    cfg_with(losses={"kind": "random-linear", "seed": -1}),
    # integer fields take a JSON int: no bool, no fraction
    *(cfg for cfg, _ in INTEGER_FIELDS),
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


@pytest.mark.parametrize("cfg, where", INTEGER_FIELDS)
def test_integer_fields_name_their_key(tmp_path, capsys, cfg, where):
    assert main(["run", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["where"] == where


def test_negative_stream_seed_is_a_config_error(tmp_path, capsys):
    # it used to exit 3 with numpy's "expected non-negative integer"
    cfg = cfg_with(losses={"kind": "random-linear", "seed": -1})
    assert main(["run", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["where"] == "losses.seed"


@pytest.mark.parametrize("preset", ["ao-ftrl-prox", "ftrl-prox"])
def test_known_before_composite_without_curvature_is_a_config_error(
        tmp_path, capsys, preset):
    # known-before makes x_1 the minimizer of q~_0 + psi; with no curvature in
    # q~_0 (ao-ftrl-prox always, ftrl-prox at its default gamma0 = 0) it has
    # none, which used to surface as exit 3 before round 1
    cfg = cfg_with(preset=preset, set={"kind": "box", "dim": 5}, seeds=[0],
                   params={"composite_alpha": 0.1,
                           "composite_setting": "known-before"})
    assert main(["run", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["where"] == "params"
    assert preset in err["message"] and "known-before" in err["message"]


@pytest.mark.parametrize("set_cfg", [{"kind": "box", "dim": 8},
                                     {"kind": "ball", "dim": 3}])
def test_full_metric_mirror_descent_above_dim_one_is_a_config_error(
        tmp_path, capsys, set_cfg):
    # adagrad-md's round-1 metric under metric full is rank one, and an md
    # round has no other curvature; the run used to exit 3 in round 1
    cfg = cfg_with(preset="adagrad-md", params={"metric": "full"},
                   set=set_cfg, losses={"kind": "random-linear", "seed": 7},
                   seeds=[0], bounds=["oo-md"])
    assert main(["run", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["where"] == "params"
    assert "adagrad-md" in err["message"] and "full" in err["message"]


@pytest.mark.parametrize("dim", [2, 4])
def test_full_metric_ftrl_prox_at_gamma0_zero_is_a_config_error(
        tmp_path, capsys, dim):
    # at its default gamma0 = 0, ftrl-prox's round-1 metric under metric full
    # is (g_1 g_1')^{1/2} / eta, rank one above dim 1; the run used to exit 3
    # in round 1 with an ill-posed argmin, or to go on when the rounding of
    # the zero eigenvalues happened to leave them positive
    cfg = cfg_with(preset="ftrl-prox", params={"metric": "full"},
                   set={"kind": "box", "dim": dim},
                   losses={"kind": "random-linear", "seed": 3}, seeds=[0])
    assert main(["run", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["where"] == "params"
    assert "ftrl-prox" in err["message"] and "gamma0" in err["message"]


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


def test_importing_the_cli_leaves_the_suites_and_the_process_pool_out():
    # `adaopt run --jobs 1` needs neither: `verify` imports the suites and a
    # run with jobs > 1 the process pool, when they start
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys, adaopt.cli; print(sorted(m for m in ('adaopt.suites', "
            "'concurrent.futures.process') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


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


def test_runtime_error_names_its_round_and_layer(tmp_path, capsys):
    # g * g overflows in adagrad-da's accumulator in round 1; the error
    # JSON names the round and the layer next to its message
    run = cfg_with(preset="adagrad-da", params={},
                   losses={"kind": "random-linear", "seed": 4, "scale": 1e160},
                   seeds=[0])
    path = write_cfg(tmp_path, run, "overflow.json")
    with np.errstate(over="ignore"):
        assert main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert list(err) == ["where", "message", "round", "layer"]
    assert err["where"] == "runtime"
    assert err["message"].startswith("round 1: schedule: diagonal metric weight")
    assert err["round"] == 1 and err["layer"] == "schedule"


def test_infinite_curvature_is_an_ill_posed_round(tmp_path, capsys):
    # md's r_{1:2} = 1e308 + 2 * 5e307 overflows to inf, so round 2's
    # certificate would take a step of 0; it raised ZeroDivisionError with a
    # traceback, and now names the round and the layer, exit code 3
    run = cfg_with(preset="md", params={"q0_scale": 1e308, "sigma_r": 5e307},
                   set={"kind": "box", "dim": 3}, T=4, seeds=[0],
                   bounds=["oo-md", "forward"])
    path = write_cfg(tmp_path, run, "inf.json")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["round"], err["layer"]) == (2, "step")
    assert err["message"] == ("round 2: step: ill-posed argmin: quadratic part "
                              "has max curvature inf")


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


# Reference outputs of fixed runs: ogd and adagrad-da were recorded before
# the per-round path was reworked for speed, the others before every preset
# went through one round path, and the four off the box or on a stochastic
# stream (the ball's secular route, a folded quadratic loss projected onto a
# ball, the free set, noisy gradients) before the separable round was made
# lean.  The four on a noisy fixed-quadratic stream (da with a growing
# alpha_t, composite md, diagonal adagrad-md, ogd) play round by round, as
# a stochastic stream is played, and were recorded before the per-round
# schedule became row 0 of the column scan: column play reaches these
# schedules too, but a test that compares the two paths cannot see a bit
# change in the scan they share.  Each entry is (preset, params, config
# overrides, JSON SHA-256, CSV SHA-256); every run takes an exact route, so
# the outputs must stay bit for bit the same.  The full-matrix
# run's values were recorded from the numeric argmin; it now takes the
# active-set route and matches at the acceptance tolerances (c07: iterates
# to 1e-9, c01: 1e-8 * (1 + |regret|)).
GUARD = {"name": "guard", "set": {"kind": "box", "dim": 6},
         "losses": {"kind": "random-linear", "seed": 7}, "T": 60,
         "seeds": [3], "bounds": ["oo-ftrl", "forward"]}
_MD = {"bounds": ["oo-md", "forward"]}
_SINE = {"losses": {"kind": "sine-quadratic", "amplitude": 0.5, "period": 8}}
_NOISY = {"losses": {"kind": "fixed-quadratic", "center": 0.3, "noise": 0.5}}
GUARD_SHA256 = {
    "ogd": ("ogd", {"eta": 0.2}, {},
            "087ec6ee4eabe27ebb09e34db897fc5d45feb46941d8bd50dcdf44e886b9ab20",
            "6e67c4563183dc051cf4ce7a2f6e95c4beeb7461f81c7d1761371df5127809dd"),
    "adagrad-da": ("adagrad-da", {"metric": "diag"}, {},
                   "eba304ad11706fbeb71d10e6f36fb909570da433933e27cebeb1b64ed4525793",
                   "c2a973ca4b6f2a594e28f27cd955a7f268cfbcf9b30515bd6e08caad9f25df7e"),
    "da": ("da", {"alpha_growth": 1.0}, {},
           "8c9482729b469134df1c8694b433d7f35f0d84c830d83c6353dc1b141bae40c7",
           "ac39070c326d9fc586f5625ca7feab2ac0d0d71f3962759423c8d886bb980bd6"),
    "ftrl-prox-revealed-after": (
        "ftrl-prox", {"composite_alpha": 0.1}, {},
        "7a73cdb1ea0f3a657e2aef5f46ad6884c39044d51b819728d34d56ec62f335d3",
        "0ab50cec231375b5adc6cbe1e78a0eb3f5e7d1aa5529e5c38ed87a3e3bc0d32c"),
    "ftrl-prox-known-before": (
        "ftrl-prox", {"composite_alpha": 0.1, "gamma0": 0.5,
                      "composite_setting": "known-before"}, {},
        "884a5cdd415f3c155eb33f1a6711e969493b6b714acde761ad2f22ccb5021611",
        "b3c2cbb3d2e684e0d5d77b84cf67a269993c7dd07acb18bb5b9f414b3649bf2c"),
    "adagrad-md": ("adagrad-md", {}, _MD,
                   "a722f40369d36fedc704e19ebe3e77b607894e657888381fc87e135869fe8946",
                   "07875d20130829b48f043a392ccf1107e0d35b84eb0afe45d11260427cf1aaad"),
    "md": ("md", {"composite_alpha": 0.05}, _MD,
           "c5f43b68d1eda974474da1fc5d8967186f09991e102e5afa3ee8b0dd107baaca",
           "e3289c3a2f58a917104a113e9d1cf3239e857265912c9abc8f22d3e607af0b91"),
    "ao-ftrl-prox": ("ao-ftrl-prox", {"hints": "prev-gradient"}, {},
                     "a452d84d365f908f5abc937d34f1251b2877a3b00fadd0adc3cf3de7578d66df",
                     "8fa2d78c4a6ec87fb9cd70f005c75cfaa9b7245b2a2e690f38c9bc117e37c161"),
    "ao-md": ("ao-md", {}, _MD,
              "8c267acd72b13bfefafbeaad320967695f3b7a80c8805909d6e77e233c3a7076",
              "d8b773721d95cfef0554a5a4648b758e936a6ea2621237bf764af214891e09ed"),
    "implicit-md": ("implicit-md", {}, dict(_MD, **_SINE),
                    "93a93d9064b5cd3d8d0406fc78e831d692af554b2a49e9f29f450cac3fede25f",
                    "938b228179abb0f0b5ba5458ae43fb5f9d1c894004c4229bee3b994f59b5ee47"),
    "nonlin-ftrl": ("nonlin-ftrl", {}, _SINE,
                    "088b3ec7ff7c9c2df371f17f249a1fa8830a90a8813ac4e42d418ba8148958c5",
                    "09cea945a5a2bb81deb4d23e2d2d18fd11481de8223a5a94630f8b6c38967eaa"),
    "adagrad-md-ball": (
        "adagrad-md", {"metric": "diag", "gamma0": 0.0},
        dict(_MD, set={"kind": "ball", "dim": 6}),
        "89fd16cf692e24cf8d116a3d35f4328153df766dc3b69ac5a2f6afd064752f85",
        "a8670858406ee0381414e74f5345a7fd556a2f4e867e0d1c4ba2044e2703adcf"),
    "nonlin-ftrl-ball": (
        "nonlin-ftrl", {}, dict(_SINE, set={"kind": "ball", "dim": 6, "radius": 0.3}),
        "aafc8a3692341d49e1947fc93c5e6382fca9e452cc529d488f553de1e2d29ae9",
        "d5bbdf558999b25bdc22c01e9eaff379fb48e59fbbd5d784e2af170e47765229"),
    "ogd-unconstrained": (
        "ogd", {"eta": 0.2},
        {"set": {"kind": "unconstrained", "dim": 6},
         "comparator": {"policy": "explicit",
                        "point": [0.5, -0.5, 0.25, 0.0, 0.1, -0.2]}},
        "af8ea7913a073333a5f23a314bffdc8b838e0c7c937a5db63da24b2db63fbb79",
        "fedcb4b0417750c6e63fb954ae83f4461e1d20e75e245071ffba9f66864d22dd"),
    "adagrad-da-stochastic": (
        "adagrad-da", {"metric": "diag"},
        {"losses": {"kind": "fixed-quadratic", "center": 0.3, "noise": 0.5}},
        "bce0d6d3ce2693bca8989e2692c7350b05072ccb84316d7b471952bfaab1f059",
        "4c59d77214958f97999aee2fe8ce5cf47ed8710faf20d511a0bb5dfc163b195b"),
    "da-stochastic": (
        "da", {"alpha_growth": 1.0}, _NOISY,
        "cd793bf5a7947fd036b166bbbd07af37af456dbc0df9c81ceee58963eb97ae12",
        "9e4357805338fb9dc0e59bae84cd01c148969a130b14cc84580de288d4d20bdb"),
    "md-stochastic": (
        # the offline comparator of a composite run needs linear losses
        "md", {"composite_alpha": 0.05},
        dict(_MD, **_NOISY, comparator={"policy": "explicit",
                                        "point": [0.3, 0.3, 0.25, 0.0, 0.1, -0.2]}),
        "a3c3be9c85c0f59d9e6a824378f194e3f6f494750341b28bbfd7643e4800e3f6",
        "4252cba4f80e5053f899bea694ea906ed5cc294d5cc586f5ae29d258da0c4648"),
    "adagrad-md-stochastic": (
        "adagrad-md", {"metric": "diag"}, dict(_MD, **_NOISY),
        "611aa10a8e8e034ee47a692475d0d15bf09c4471aa4744ad6c676be02d52bf39",
        "f3fd01dbadddc55db69fc6a96f9f2a383189a54c36e78b5a17142fa1c61e1c05"),
    "ogd-stochastic": (
        "ogd", {"eta": 0.2}, _NOISY,
        "88af259384239240a1303245137beb173736f3d084258ae5a2778253d9b0162a",
        "a738a09d7b4cc3861dc2481f33bf724c5beeb18448810a302d68c9d7ee9073e9"),
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


@pytest.mark.parametrize("case", sorted(GUARD_SHA256))
def test_run_outputs_match_recorded_digests(tmp_path, case):
    preset, params, over, json_sha, csv_sha = GUARD_SHA256[case]
    doc, csv = _guard_run(tmp_path, preset, params, **over)
    assert hashlib.sha256(csv).hexdigest() == csv_sha
    assert hashlib.sha256(doc).hexdigest() == json_sha


@pytest.mark.parametrize("case", ["md", "ftrl-prox-revealed-after",
                                  "adagrad-da"])
def test_reported_regret_is_the_last_cum_regret(tmp_path, case):
    # one running sum feeds both outputs, composite terms included
    preset, params, over, _, _ = GUARD_SHA256[case]
    doc, csv = _guard_run(tmp_path, preset, params, **over)
    lines = csv.decode().strip().split("\n")
    col = lines[0].split(",").index("cum_regret")
    last = float(lines[-1].split(",")[col])
    assert json.loads(doc)["results"][0]["regret"] == last


def test_explicit_comparator_given_as_one_number_runs(tmp_path):
    # a number is every coordinate of the point, as in the set's bounds
    doc, _ = _guard_run(tmp_path, "ogd", {"eta": 0.2},
                        comparator={"policy": "explicit", "point": 0.5})
    res = json.loads(doc)["results"][0]
    assert res["comparator"] == [0.5] * 6
    assert res["replay"]["ok"] is True


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


def test_full_matrix_run_from_the_gram_matches_recorded_values(tmp_path, monkeypatch):
    # the same run with its rounds t < 5d/6 (1..6 of d = 8) rooted from the
    # Gram, the dimension floor lifted, holds the values recorded when every
    # round took the eigh of G_t
    monkeypatch.setattr(regularizers, "GRAM_MIN_DIM", 0)
    test_full_matrix_run_matches_recorded_values(tmp_path)


# nonlin-ftrl and implicit-md on a random-linear stream, recorded when each
# round folded its linear loss as a handle and took the numeric argmin.
# B_f is 0 for a linear f: a round folds nothing and takes an exact route,
# and the values hold at the acceptance tolerances (c07: iterates to 1e-9,
# c01: 1e-8 * (1 + |regret|)).  Rows are x_t of rounds 10 and 30.
GUARD_LINEAR_LOSS = {
    "nonlin-ftrl": ({}, {
        "regret": 26.122399311329758, "forward_regret": -19.167488515515686,
        "bounds": [61.796345894268185, -17.570969810367853],
        "final_point": [1.0, -1.0, 1.0, -1.0, 1.0, 1.0],
        "rows": {10: [0.2211497157221025, -0.312759965450512, 0.04321954541053463,
                      0.9953234252199017, 1.0, 0.9904328962642099],
                 30: [0.8481890489733679, 0.4769132975888779, 1.0, -1.0,
                      -0.3446434972682082, 1.0]}}),
    "implicit-md": (_MD, {
        "regret": 26.51444226922486, "forward_regret": 18.052803604021822,
        "bounds": [220.65987910044822, 212.19824043524517],
        "final_point": [-0.21188592033321083, 0.586123659377091, 0.7612237995736759,
                        0.3359186539890885, 0.5624612066915957, 0.326259772102551],
        "rows": {10: [-0.3097906752965227, 0.5677652925998972, 0.3224381590278459,
                      0.4912887570615285, 0.7085407197318973, 0.15707199972225905],
                 30: [-0.27676869542766575, 0.6357448096360784, 0.588838207386646,
                      0.3067238122439333, 0.5289666663220065, 0.2894136652836854]}}),
}


@pytest.mark.parametrize("preset", sorted(GUARD_LINEAR_LOSS))
def test_a_linear_loss_folds_nothing_and_keeps_its_values(tmp_path, preset):
    over, ref = GUARD_LINEAR_LOSS[preset]
    with mock.patch.object(solvers, "argmin_numeric",
                           wraps=solvers.argmin_numeric) as numeric:
        doc, csv = _guard_run(tmp_path, preset, {}, **over)
    assert numeric.call_count == 0
    res = json.loads(doc)["results"][0]
    c01 = 1e-8 * (1.0 + abs(ref["regret"]))
    assert abs(res["regret"] - ref["regret"]) <= c01
    assert abs(res["forward_regret"] - ref["forward_regret"]) <= c01
    assert [b["value"] for b in res["bounds"]] == pytest.approx(ref["bounds"], abs=c01)
    assert res["final_point"] == pytest.approx(ref["final_point"], abs=1e-9)
    lines = csv.decode().strip().split("\n")
    for t, row in ref["rows"].items():
        assert [float(v) for v in lines[t].split(",")[1:7]] == pytest.approx(
            row, abs=1e-9), t


_RANDOM_STREAM = losses.random_stream


def _round_by_round_stream(dim, seed, scale=1.0):
    """``random_stream``'s vectors as an unchecked ``LinearStream``, which
    play reads round by round."""
    checked = _RANDOM_STREAM(dim, seed, scale)
    return losses.LinearStream(checked.vector_fn, dim, checked.kind)


def _run_keeping_the_ledger(cfg, stream):
    """``adaopt run`` on ``cfg`` with ``stream`` as its random-linear
    stream: (exit code, its ledger or None, its driver, the JSON and CSV
    bytes or None, the stderr text, each warning's category, message and
    place, in order)."""
    kept = []

    def play(driver, *args, **kw):
        kept.append(driver)
        kept.append(real(driver, *args, **kw))
        return kept[-1]

    real = cli.run_rounds
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(losses, "random_stream", stream), \
            mock.patch.object(cli, "run_rounds", play):
        warnings.simplefilter("always")
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        rc = main(["run", "--config", path, "--out", os.path.join(tmp, "out")])
        outputs = []
        for name in ("cell.json", "cell.seed0.csv"):
            out = os.path.join(tmp, "out", name)
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    outputs.append(fh.read())
            else:
                outputs.append(None)
    led = kept[1] if len(kept) > 1 else None
    warned = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    return rc, led, kept[0], *outputs, err.getvalue(), warned


def _ledger_arrays(led):
    cols = {k: getattr(led, k) for k in ("x", "g", "loss_value", "hint", "eta")}
    for name in ("prox", "q_metric", "r_metric"):
        m = getattr(led, name)
        cols.update({f"{name}.{k}": getattr(m, k)
                     for k in ("kind", "gamma", "wide", "evals")})
    cols["losses"] = np.array([f.vector for f in led.losses])
    return cols


def _driver_state(driver):
    """What a driver holds after play: its iterate and counts, the
    schedule's sums, r's running metric and the running ftrl objective."""
    r, obj, sched = driver._r_metric, driver._obj, driver._sched
    return {"x": driver.x, "t": driver.t, "solver_calls": driver.solver_calls,
            "hint": driver.hint, "accum_sq": sched.accum_sq,
            "prev_root": sched._prev_root, "r.kind": r.kind, "r.gamma": r.gamma,
            "r.weights": r.weights, "r.matrix": r.matrix, "r.dim": r.dim,
            **{f"obj.{k}": getattr(obj, k) for k in (
                "lin", "gamma", "diag", "full", "const", "l1_alpha", "init")}}


def _assert_same(a, b):
    for k, v in a.items():
        w = b[k]
        assert (v is None) == (w is None), k
        if isinstance(v, np.ndarray):
            assert v.dtype == w.dtype and np.array_equal(v, w), k
        elif v is not None:
            assert type(v) is type(w) and v == w, k


# the presets that column play serves, each with its parameters drawn; md
# draws an l1 weight on the box and the free set, where a composite run is
# accepted
COLUMN_PARAMS = {
    "ogd": st.fixed_dictionaries({"eta": st.floats(0.01, 10.0)}),
    "da": st.fixed_dictionaries({"alpha0": st.floats(0.1, 5.0),
                                 "alpha_growth": st.floats(1e-3, 5.0)}),
    "adagrad-da": st.fixed_dictionaries({
        "eta": st.floats(0.05, 5.0),
        "gamma0": st.sampled_from([1e-300, 1e-12, 0.5, 1.0, 4.0])}),
    "adagrad-md": st.fixed_dictionaries({
        "eta": st.floats(0.05, 5.0), "gamma0": st.sampled_from([0.0, 1e-12, 1.0])}),
    "md": st.fixed_dictionaries(
        {"q0_scale": st.floats(0.0, 5.0), "sigma_r": st.floats(0.0, 5.0)},
        optional={"composite_alpha": st.floats(0.01, 2.0),
                  "composite_setting": st.sampled_from(["revealed-after",
                                                        "known-before"])}),
}


@given(preset=st.sampled_from(PRESETS),
       kind=st.sampled_from(["box", "ball", "unconstrained", "simplex"]),
       d=st.one_of(st.integers(1, 12), st.just(256)),
       T=st.sampled_from([1, 63, 64, 65, 127, 128, 129, 200]),
       seed=st.integers(0, 2 ** 70), scale=st.just(1.0), data=st.data(),
       params=st.none(), fails=st.none())
@example(preset="adagrad-da", kind="box", d=3, T=40, seed=4, scale=1e160,
         data=None, params={}, fails=(1, "schedule"))
@example(preset="adagrad-da", kind="box", d=3, T=40, seed=4, scale=1e154,
         data=None, params={}, fails=(4, "schedule"))
@example(preset="adagrad-md", kind="box", d=3, T=40, seed=4, scale=1e160,
         data=None, params={}, fails=(1, "schedule"))
@example(preset="adagrad-md", kind="simplex", d=3, T=40, seed=4, scale=1.0,
         data=None, params={"eta": 1e-308, "gamma0": 0.0}, fails=(7, "step"))
@example(preset="md", kind="box", d=3, T=40, seed=4, scale=1.0, data=None,
         params={"q0_scale": 1e308, "sigma_r": 5e307, "composite_alpha": 0.01},
         fails=(2, "step"))
@example(preset="ogd", kind="ball", d=2, T=40, seed=4, scale=1e150, data=None,
         params={"eta": 1e200}, fails=(1, "step"))
@example(preset="ogd", kind="unconstrained", d=2, T=40, seed=4, scale=1e150,
         data=None, params={"eta": 1e60}, fails=None)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_column_play_matches_round_by_round_play(preset, kind, d, T, seed,
                                                 scale, data, params, fails):
    # a random stream's play reads g_t from its column of rounds 1..T (at
    # d = 256, drawn 64 rounds a kernel call), and an ogd, da, diagonal
    # adagrad-da, diagonal adagrad-md or md run plays it as prefix scans in
    # chunks of 2**14 // d rounds (64 at d = 256); an unchecked stream of
    # the same vectors is played round by round.  The ledgers, the drivers'
    # end states and the run's output bytes are the same.  A run that fails
    # fails alike, with the same exit code, error JSON and warnings:
    # - at scale 1e160, g * g overflows in round 1's schedule;
    # - at 1e154, adagrad-da's sums overflow in round 4, after column play
    #   has solved rounds 1 to 3;
    # - adagrad-md's r_{1:t} at eta = 1e-308 overflows in round 7, whose
    #   numeric argmin (on the simplex) finds no finite smoothness;
    # - md's r_{1:2} = 1e308 + 2 * 5e307 overflows, and the l1 argmin
    #   rejects round 2's infinite curvature;
    # - ogd's round-1 argmin on the ball warns of an overflow and of an
    #   invalid value, and fails;
    # - ogd's f_t = <g_t, x_t> on the free set overflows from round 2 on,
    #   once a round, and the accounting then fails.
    # Column play's scans warn of no overflow that per-round play does not
    # warn of, and a round that would warn (its fold, argmin or f_t) is
    # played by Driver.round, so each warning comes once, in order
    if params is None:
        params = data.draw(COLUMN_PARAMS[preset]) if preset in COLUMN_PARAMS else {}
    if kind in ("ball", "simplex"):
        params.pop("composite_alpha", None)
    cfg = {"name": "cell", "preset": preset, "params": params,
           "set": {"kind": kind, "dim": d},
           "losses": {"kind": "random-linear", "seed": seed, "scale": scale},
           "T": T, "seeds": [0],
           "bounds": [f"oo-{PRESET_TABLE[preset][0]}", "forward"]}
    if kind == "unconstrained":
        cfg["comparator"] = {"policy": "explicit", "point": 0.0}
    rc, led, driver, doc, csv, err, warned = _run_keeping_the_ledger(
        cfg, losses.random_stream)
    rc_rows, led_rows, driver_rows, doc_rows, csv_rows, err_rows, warned_rows = \
        _run_keeping_the_ledger(cfg, _round_by_round_stream)
    assert rc == rc_rows and err == err_rows and warned == warned_rows
    _assert_same(_driver_state(driver), _driver_state(driver_rows))
    if fails is not None:
        e = json.loads(err)["error"]
        assert rc == 3 and (e["round"], e["layer"]) == fails, e
    if rc:
        # adagrad-md on the simplex at d = 256 also fails, in round 1: its
        # numeric argmin reaches no certificate
        return
    assert err == ""
    assert not led.g.flags.writeable and led_rows.g.flags.writeable
    _assert_same(_ledger_arrays(led), _ledger_arrays(led_rows))
    assert doc == doc_rows and csv == csv_rows


@pytest.mark.parametrize("preset,params", [
    ("adagrad-da", {"metric": "full"}),
    ("ftrl-prox", {"metric": "full", "gamma0": 0.5})])
def test_full_matrix_run_decomposes_one_matrix_per_round(
        tmp_path, monkeypatch, preset, params):
    # the schedule's one eigh a round is the only eigendecomposition of a
    # whole run (play, bounds, CSV and replay): of the t x t Gram of the
    # gradients while t < 5d/6 (the Gram's dimension floor is lifted for
    # d = 6), of G_t in every later round.  A Cholesky factorisation checks
    # the increment, and the argmin and the dual norms read the eigenpairs
    # that the running metric carries.  The argmin's active set inverts
    # nothing and solves only systems on its working set, smaller than d x d
    monkeypatch.setattr(regularizers, "GRAM_MIN_DIM", 0)
    cfg = dict(copy.deepcopy(GUARD), preset=preset, params=params, T=20)
    d = cfg["set"]["dim"]
    calls = dict.fromkeys(("eigh", "eigvalsh", "solve", "inv"), 0)
    eigh_shapes = []
    for name in calls:
        def counted(a, *args, _real=getattr(np.linalg, name), _name=name, **kw):
            if _name != "solve" or np.shape(a) == (d, d):
                calls[_name] += 1
            if _name == "eigh":
                eigh_shapes.append(np.shape(a))
            return _real(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    assert main(["run", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert calls == {"eigh": 20, "eigvalsh": 0, "solve": 0, "inv": 0}
    assert eigh_shapes == [(t if t <= regularizers.gram_rounds(d) else d,) * 2
                           for t in range(1, 21)]


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
