"""Tooling: every entry point the benchmark's span recorder wraps exists,
and the accounting keeps to one path.

``perfbench/spans.py`` wraps the adaopt functions and methods named in its
``SPANS`` table when a traced benchmark run starts; a name that no longer
resolves would crash that run.  These tests name the missing entry instead.
"""

import ast
import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS_PY = os.path.join(ROOT, "perfbench", "spans.py")
REGRET_PY = os.path.join(ROOT, "src", "adaopt", "regret.py")


def _span_targets() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return sorted({t for targets in spans.SPANS.values() for t in targets})


@pytest.mark.parametrize("target", _span_targets())
def test_span_target_resolves(target):
    mod_name, _, path = target.partition(":")
    mod = importlib.import_module(f"adaopt.{mod_name}")
    if "." in path:
        # the recorder patches the class's own attribute, not an inherited one
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(mod, cls_name)), target
    else:
        assert callable(getattr(mod, path, None)), target


# the ledger's handle views: its rounds and q_0, q~_0
_VIEWS = {("Ledger", "records"), ("Ledger", "q0"), ("Ledger", "q0_tilde")}


def _accounting_functions(tree):
    """Every function and method of regret.py but the ``RoundRecord`` view
    and the ledger's handle views."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and node.name != "RoundRecord":
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and (node.name, f.name) not in _VIEWS:
                    yield f"{node.name}.{f.name}", f


def test_no_accounting_function_walks_the_records():
    # the bound terms and B_r are column expressions over the ledger, q_0
    # their row 0; a loop over per-round handles, or q_0's handle, would be
    # a second accounting path
    with open(REGRET_PY) as fh:
        tree = ast.parse(fh.read())
    found = []
    for name, fn in _accounting_functions(tree):
        for n in ast.walk(fn):
            if isinstance(n, ast.Attribute) and n.attr in ("records", "q0", "q0_tilde"):
                found.append(f"{name} reads .{n.attr}")
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) \
                    and n.func.id == "RoundRecord":
                found.append(f"{name} builds a RoundRecord")
    assert not found, found
