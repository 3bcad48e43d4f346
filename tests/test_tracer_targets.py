"""The names the benchmark tracer patches by string still exist in the package.

``bench/tracing.py`` wraps ``scan._nm_minimize`` (reported as scan.refine_s)
and ``FormalSeries`` methods (series.mul_calls) by name.  A rename inside
``src/`` would leave those counters silently at 0, so this test resolves
every such name the tracer holds.  The tracer's constants are read from its
source, so the benchmark code is neither run nor compiled here.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    """The tracer's constants that name patch targets."""
    names = ("LAYERS", "_METHODS", "_REFINE")
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names}


def test_refine_target_resolves(tracing):
    module, attr, _ = tracing["_REFINE"]
    assert callable(getattr(importlib.import_module(f"sixport.{module}"), attr))


def test_method_targets_resolve(tracing):
    assert tracing["_METHODS"]
    for module, cls_name, method, _ in tracing["_METHODS"]:
        cls = getattr(importlib.import_module(f"sixport.{module}"), cls_name)
        assert method in cls.__dict__, f"{module}.{cls_name}.{method}"


def test_layers_resolve(tracing):
    for layer in tracing["LAYERS"]:
        importlib.import_module(f"sixport.{layer}")
