"""The names the benchmark tracer patches by string still exist in the package.

``bench/tracing.py`` wraps ``scan._nm_minimize`` (reported as scan.refine_s)
and ``FormalSeries`` methods (series.mul_calls) by name.  A rename inside
``src/`` would leave those counters silently at 0, so this test resolves
every such name the tracer holds.  Its oracle.box_cells hooks bind the
arguments of ``herald_state`` and ``herald_distribution`` by name, and it
wraps every public oracle function, so those names and the privacy of the
raising loop's helpers are pinned too.  The tracer's constants and hooks are
read from its source, so the benchmark code is neither run nor compiled here.
"""

import ast
import importlib
import inspect
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


# -- what the tracer reads from the oracle ---------------------------------------

def _hook_keys(hook):
    """The argument names the tracer's ``hook`` reads from a bound call."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == hook)
    keys = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            keys.add(node.slice.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get"):
            keys.update(arg.value for arg in node.args if isinstance(arg, ast.Constant))
    return keys


@pytest.mark.parametrize("hook, function", [
    ("herald_state_cells", "herald_state"),
    ("distribution_cells", "herald_distribution"),
])
def test_box_cells_hooks_bind_oracle_parameters(hook, function):
    # oracle.box_cells binds each call's arguments by name
    oracle = importlib.import_module("sixport.oracle")
    params = set(inspect.signature(getattr(oracle, function)).parameters)
    keys = _hook_keys(hook)
    assert keys and keys <= params, keys - params


def test_oracle_public_functions_are_the_entry_points():
    # the tracer wraps every public function of a layer; a public per-step
    # helper of the raising loop would record one span per photon-number plane
    oracle = importlib.import_module("sixport.oracle")
    public = {name for name, value in vars(oracle).items()
              if not name.startswith("_") and inspect.isfunction(value)
              and value.__module__ == oracle.__name__}
    assert public == {"default_cutoff", "default_herald_max", "herald_state",
                      "fix_global_phase", "expectation", "herald_distribution"}
    for helper in ("_planes", "_column", "_plane_sum", "_raise_plane", "_plane_tables"):
        assert callable(getattr(oracle, helper))
