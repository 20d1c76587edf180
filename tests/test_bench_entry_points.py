"""The benchmark's tracer patches library entry points by name, so a traced
run breaks when one of them is renamed or deleted.  This reads the names from
benchmarks/tracing.py without running it, then runs its tracer once to check
that a Groebner completion still shows the work the traced run gates on."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from affmod import GREVLEX, parse_poly, ring

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


CYCLIC4 = ["a + b + c + d", "a*b + b*c + c*d + d*a",
           "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"]


def test_tracer_sees_buchberger_work():
    """The traced groebner-std run fails unless it counts S-polynomials, zero
    reductions and divisions; the tracer counts them by patching
    s_polynomial, reduce_mod and divide_multi, and counts only reductions
    called directly from buchberger_gb."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    ideals = importlib.import_module("affmod.ideals")
    r = ring("a", "b", "c", "d")
    gens = [parse_poly(text, r) for text in CYCLIC4]
    tracer = tracing.SpanTracer()
    tracer.install()
    try:
        gb = ideals.buchberger_gb(gens, GREVLEX)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert len(gb) == 7
    for counter in ("ideals.spolys", "ideals.reductions", "ideals.zero_reductions"):
        assert summary["counters"].get(counter, 0) > 0, counter
    assert summary["calls"].get("poly.divide_multi", 0) > 0
