"""Tooling: every entry point the benchmark's span recorder wraps exists.

``perfbench/spans.py`` wraps the adaopt functions and methods named in its
``SPANS`` table when a traced benchmark run starts; a name that no longer
resolves would crash that run.  These tests name the missing entry instead.
"""

import importlib
import importlib.util
import os

import pytest

SPANS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "spans.py")


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
