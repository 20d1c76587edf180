"""The benchmark's tracer patches library entry points by name, so a traced
run breaks when one of them is renamed or deleted.  This reads the names from
benchmarks/tracing.py without running it."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _literal(name: str):
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {TRACING}")


SPAN_POINTS = [(layer, point) for layer, points in _literal("SPAN_POINTS").items()
               for point in points]


@pytest.mark.parametrize("layer, point", SPAN_POINTS,
                         ids=[f"{layer}.{point}" for layer, point in SPAN_POINTS])
def test_span_point_resolves(layer, point):
    module = importlib.import_module(f"affmod.{layer}")
    if "." in point:
        owner, attr = point.split(".")
        assert callable(vars(getattr(module, owner))[attr])
    else:
        assert callable(getattr(module, point))


@pytest.mark.parametrize("filename, func", list(_literal("KERNELS")))
def test_kernel_exists(filename, func):
    """Each profiled kernel is a function or method defined in its module."""
    module = importlib.import_module(f"affmod.{Path(filename).stem}")
    owners = [module] + [c for c in vars(module).values()
                         if inspect.isclass(c) and c.__module__ == module.__name__]
    assert any(inspect.isfunction(vars(o).get(func)) for o in owners)
