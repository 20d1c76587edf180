"""The benchmark's tracer patches library entry points by name, so a traced
run breaks when one of them is renamed or deleted.  This reads the names from
benchmarks/tracing.py without running it, then runs its tracer once to check
that the Groebner, probe and fiber work the traced runs gate on still shows."""

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


def _traced(fn):
    """Run fn under the benchmark's SpanTracer; its result and the summary."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.SpanTracer()
    tracer.install()
    try:
        result = fn()
    finally:
        tracer.uninstall()
    return result, tracer.summary()


def test_tracer_sees_buchberger_work():
    """The traced groebner-std run fails unless it counts S-polynomials, zero
    reductions and divisions; the tracer counts them by patching
    s_polynomial, reduce_mod and divide_multi, and counts only reductions
    called directly from buchberger_gb."""
    ideals = importlib.import_module("affmod.ideals")
    r = ring("a", "b", "c", "d")
    gens = [parse_poly(text, r) for text in CYCLIC4]
    gb, summary = _traced(lambda: ideals.buchberger_gb(gens, GREVLEX))
    assert len(gb) == 7
    for counter in ("ideals.spolys", "ideals.reductions", "ideals.zero_reductions"):
        assert summary["counters"].get(counter, 0) > 0, counter
    assert summary["calls"].get("poly.divide_multi", 0) > 0


def test_tracer_sees_degree_probe_work():
    """The traced scaled-params run fails unless probe_nonnegativity,
    probe_elements and valuation_degree all record work.  The probe runs a
    whole box of weights at a time: per n, one element build, one probe and
    one degree column per probe element."""
    verifier = importlib.import_module("affmod.verifier")
    rep, summary = _traced(lambda: verifier.cmd_degree_probe(n_max=2, box=2))
    assert rep.status == "verified"
    calls = summary["calls"]
    assert calls.get("degrees.probe_nonnegativity") == 2
    assert calls.get("degrees.probe_elements") == 2
    assert calls.get("degrees.valuation_degree") == 2 * 4
    for span in ("degrees.probe_nonnegativity", "degrees.probe_elements",
                 "degrees.valuation_degree"):
        assert summary["seconds"].get(span, 0) > 0, span


def test_tracer_sees_fiber_work():
    """The traced scaled-params run fails unless the univariate gcd, the
    fiber classification and Samuel's check all record work."""
    verifier = importlib.import_module("affmod.verifier")
    reports, summary = _traced(lambda: (verifier.cmd_fibers(30), verifier.cmd_samuel(30)))
    assert [r.status for r in reports] == ["verified", "verified"]
    calls = summary["calls"]
    for span in ("poly.gcd_univariate", "fibers.classify_curve", "fibers.fiber_poly",
                 "rings.samuel_check", "ideals.colength"):
        assert calls.get(span, 0) > 0, span
