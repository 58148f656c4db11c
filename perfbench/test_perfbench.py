"""Tests of the benchmark itself.

Run from the checkout root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import timing  # noqa: E402
from workloads import DEFAULT_SEED, NUMERIC_BALL_DEFECT, WORKLOADS, pool  # noqa: E402

cli = run.import_cli(SRC)


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    value, pct, n = timing.tail([float(v) for v in range(100, 0, -1)])
    assert (value, pct, n) == (90.0, 90.0, 100)
    value, pct, n = timing.tail(list(range(11)))
    assert value == 0 and n == 11 and pct == pytest.approx(100.0 / 11)
    with pytest.raises(ValueError):
        timing.tail(list(range(10)))


def _tree(rec, spans_):
    """spans_: (name, start, end, parent) in opening order."""
    for name, s, e, p in spans_:
        rec.name.append(rec.nid(name))
        rec.start.append(s)
        rec.end.append(e)
        rec.parent.append(p)
        rec.cell.append(0)
        outer = all(rec.names[rec.name[a]] != name for a in _ancestors(rec, p))
        rec.outer.append(outer)


def _ancestors(rec, p):
    while p >= 0:
        yield p
        p = rec.parent[p]


def test_self_time_is_duration_minus_direct_children():
    rec = spans.Recorder()
    _tree(rec, [
        (spans.ROOT, 0.0, 10.0, -1),
        ("solvers.minimize", 1.0, 6.0, 0),
        ("solvers.argmin_quadratic", 2.0, 5.0, 1),
        ("solvers.argmin_numeric", 3.0, 4.5, 2),
        ("solvers.objective", 7.0, 9.0, 0),
        ("solvers.objective", 7.5, 8.0, 4),      # nested in its own layer
    ])
    assert spans.self_times(rec) == pytest.approx([3.0, 2.0, 1.5, 1.5, 1.5, 0.5])
    self_s, incl_s = spans.layer_totals(rec)
    assert self_s[spans.ROOT] == pytest.approx(3.0)
    assert self_s["solvers.objective"] == pytest.approx(2.0)
    assert incl_s["solvers.objective"] == pytest.approx(2.0)   # counted once
    assert incl_s["solvers.minimize"] == pytest.approx(5.0)
    assert sum(self_s.values()) == pytest.approx(incl_s[spans.ROOT])
    scaled, _ = spans.layer_totals(rec, {0: 0.5})
    assert scaled["solvers.minimize"] == pytest.approx(1.0)


def test_a_different_seed_changes_the_inputs():
    for name in WORKLOADS:
        assert pool(name, 7) == pool(name, 7)
        assert pool(name, 7) != pool(name, 8)


def _outputs(cells, i):
    cells.run(i)
    return checks.read_outputs(cells.out)


def test_golden_check_rejects_a_one_ulp_change(tmp_path):
    cells = run.Cells(cli, "closed-form", DEFAULT_SEED, str(tmp_path),
                      checks.load_golden("closed-form"))
    doc, csv = _outputs(cells, 0)
    assert cells.failed == 0
    ref = cells.golden[0]
    assert checks.compare(ref, checks.summary("closed-form", doc, csv)) == []

    header, row, rest = csv.decode().split("\n", 2)
    parts = row.split(",")
    parts[1] = cli._fmt(np.nextafter(float(parts[1]), np.inf))
    bumped = "\n".join([header, ",".join(parts), rest]).encode()
    assert bumped != csv
    assert checks.compare(ref, checks.summary("closed-form", doc, bumped)) == \
        ["csv_sha256"]


def test_numeric_check_holds_tolerance_and_catches_a_real_change(tmp_path):
    cells = run.Cells(cli, "numeric-ball", DEFAULT_SEED, str(tmp_path),
                      checks.load_golden("numeric-ball"))
    doc, csv = _outputs(cells, 1)
    assert cells.failed == 0
    got = checks.summary("numeric-ball", doc, csv)
    near = json.loads(json.dumps(got))
    near["iterates"][0][0] += 1e-12
    assert checks.compare(got, near) == []
    near["iterates"][0][0] += 1e-6
    assert checks.compare(got, near) == ["iterates off by 1.000e-06"]


def test_wrappers_leave_run_output_byte_identical(tmp_path):
    cells = run.Cells(cli, "closed-form", 3, str(tmp_path))
    before = _outputs(cells, 2)
    originals = {m: dict(vars(__import__(f"adaopt.{m}", fromlist=["x"])))
                 for m in spans.MODULES}
    methods = {}
    for targets in spans.SPANS.values():
        for target in targets:
            _, attr, cls = spans._resolve(target)
            if cls is not None:
                methods[cls, attr] = cls.__dict__[attr]
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        assert cli.run_rounds is not originals["cli"]["run_rounds"]
        traced = _outputs(cells, 2)
    finally:
        uninstall()
    after = _outputs(cells, 2)
    assert before == traced == after
    assert cells.failed == 0
    assert len(rec.name) > 0 and rec.counts["regret.decomposition_terms"] == 2
    for m, attrs in originals.items():
        mod = __import__(f"adaopt.{m}", fromlist=["x"])
        assert all(getattr(mod, k) is v for k, v in attrs.items())
    assert all(cls.__dict__[attr] is v for (cls, attr), v in methods.items())


@pytest.mark.xfail(strict=True, reason="argmin_numeric demands ||u|| <= "
                   "sigma * 1e-10, below double precision when sigma ~ 1e-7")
def test_numeric_ball_with_default_gamma0_runs(tmp_path):
    # why numeric-ball sets gamma0=0; once adaopt runs this cell, this test
    # fails as an unexpected pass and the workload can take the default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(NUMERIC_BALL_DEFECT))
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
            "--jobs", "1"]
    assert cli.main(argv) == 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", "closed-form", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
