"""Per-layer tracing for the benchmark, from the benchmark's own files.

Two instruments, used in separate passes so neither distorts the other:

* ``SpanTracer`` replaces the public entry points of each library module with
  a wrapper that records a span (name, start, end, parent).  A function is
  replaced in every ``affmod`` module that imported it, so internal calls
  through another module's namespace are seen too.  A few wrappers also
  observe arguments and results to count Buchberger work.
* ``profile_summary`` rolls a cProfile run up by module, giving call counts
  and self time for hot kernels that get no spans (``MultiPoly.__mul__``,
  ``leading``, ``MonomialOrder.key``, the field operations).  Time spent in
  ``fractions.py`` is attributed to ``scalars``.

Both produce a plain-dict summary so that summaries from child processes can
be merged with ``merge_summaries``.
"""

from __future__ import annotations

import functools
import importlib
import json
import pstats
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

LAYERS = ("scalars", "poly", "parse", "ideals", "rings", "fibers", "degrees",
          "verifier", "cli", "report")

# Public entry points that get spans, per module; "Class.method" patches a class.
SPAN_POINTS = {
    "scalars": ["field_from_spec", "scalar_from_rational"],
    "poly": ["divide_multi", "reduce_mod", "exact_div", "gcd_univariate",
             "squarefree_part", "linear_decompose"],
    "parse": ["parse_poly", "parse_fraction", "format_poly"],
    "ideals": ["buchberger_gb", "s_polynomial", "reduce_groebner_basis",
               "normal_form", "ideals_equal", "colength", "is_point_ideal",
               "Ideal.contains"],
    "rings": ["build_Bn", "build_C1", "build_C2", "samuel_check",
              "certify_irreducible", "verify_ring_map", "PresentedRing.equal"],
    "fibers": ["classify_curve", "fiber_poly", "fiber_table"],
    "degrees": ["probe_elements", "probe_nonnegativity", "valuation_degree",
                "exhaustive_probe"],
    "verifier": ["cmd_fibers", "cmd_takanori", "cmd_takanori_repaired",
                 "cmd_samuel", "cmd_localization", "cmd_main_identities",
                 "cmd_degree_probe", "run_all"],
    "cli": ["run"],
    "report": ["write_json_lines", "summarize"],
}

# (file name, function name) -> kernel counter, read from the cProfile run
KERNELS = {
    ("poly.py", "__mul__"): "poly.mul_calls",
    ("poly.py", "__pow__"): "poly.pow_calls",
    ("poly.py", "leading"): "poly.leading_calls",
    ("poly.py", "key"): "poly.order_key_calls",
    ("scalars.py", "add"): "scalars.add_calls",
    ("scalars.py", "mul"): "scalars.mul_calls",
    ("scalars.py", "inv"): "scalars.inv_calls",
}


def _coef_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(c).bit_length()


def _poly_bits(p) -> int:
    return max((_coef_bits(c) for c in p.terms.values()), default=0)


class SpanTracer:
    """Spans around the library's entry points, kept in memory until dumped."""

    def __init__(self):
        self.names = []  # span index -> name
        self.spans = []  # [start, end, parent index, outermost of its name]
        self.counters = Counter()
        self._stack = []
        self._depth = Counter()
        self._patches = []

    # -- observers of arguments and results ---------------------------------

    def _parent_name(self, parent: int):
        return self.names[parent] if parent >= 0 else None

    def _on_reduce(self, args, result, parent):
        if self._parent_name(parent) != "ideals.buchberger_gb":
            return
        c = self.counters
        c["ideals.reductions"] += 1
        if result.is_zero:
            c["ideals.zero_reductions"] += 1
        size = len(args[1]) + (0 if result.is_zero else 1)
        c["ideals.basis_size_max"] = max(c["ideals.basis_size_max"], size)

    def _on_poly(self, args, result, parent):
        bits = _poly_bits(result)
        if bits > self.counters["scalars.coef_bits_max"]:
            self.counters["scalars.coef_bits_max"] = bits

    def _on_divide(self, args, result, parent):
        self._on_poly(args, result[1], parent)

    def _on_basis(self, args, result, parent):
        for g in result:
            self._on_poly(args, g, parent)

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        names, spans, stack, depth = self.names, self.spans, self._stack, self._depth
        clock = time.perf_counter
        observe = {
            "poly.reduce_mod": self._on_reduce,
            "poly.divide_multi": self._on_divide,
            "ideals.s_polynomial": self._on_poly,
            "ideals.normal_form": self._on_poly,
            "ideals.buchberger_gb": self._on_basis,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [0.0, 0.0, stack[-1] if stack else -1, depth[name] == 0]
            names.append(name)
            spans.append(record)
            stack.append(idx)
            depth[name] += 1
            record[0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[1] = clock()
                depth[name] -= 1
                stack.pop()
            if observe is not None:
                observe(args, result, record[2])
            return result

        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "affmod" or k.startswith("affmod.")]
        for layer, points in SPAN_POINTS.items():
            module = importlib.import_module(f"affmod.{layer}")
            for point in points:
                name = f"{layer}.{point}"
                if "." in point:
                    owner_name, attr = point.split(".")
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original))
                    continue
                original = getattr(module, point)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        calls, seconds = Counter(), Counter()
        for name, (start, end, _, outer) in zip(self.names, self.spans):
            calls[name] += 1
            if outer:  # nested spans of the same name are not counted twice
                seconds[name] += end - start
        counters = dict(self.counters)
        counters["ideals.spolys"] = calls["ideals.s_polynomial"]
        return {"calls": dict(calls), "seconds": dict(seconds), "counters": counters}

    def dump(self, path: Path):
        """Write every span: [name, start, end, parent] (times in seconds)."""
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": [[n, s[0], s[1], s[2]]
                                 for n, s in zip(self.names, self.spans)]}, fh)


def _layer_of(filename: str):
    """Module name for library files, 'scalars' for fractions.py, None for
    built-ins, 'other' for everything else (stdlib, the benchmark)."""
    if filename == "~":
        return None
    path = Path(filename)
    if path.parent.name == "affmod" and path.stem in LAYERS:
        return path.stem
    if path.name == "fractions.py":
        return "scalars"
    return "other"


def profile_summary(profiler) -> dict:
    """Roll a cProfile run up by module: self time per layer (built-ins are
    charged to the layer that called them) and the kernel call counts."""
    self_s, kernels = Counter(), Counter()
    for (filename, _, func), (_, nc, tt, _, callers) in pstats.Stats(
            profiler).stats.items():
        layer = _layer_of(filename)
        if layer is None:
            for (cfile, _, _), edge in callers.items():
                self_s[_layer_of(cfile) or "other"] += edge[2]
        else:
            self_s[layer] += tt
        kernel = KERNELS.get((Path(filename).name, func))
        if kernel and layer in ("poly", "scalars"):
            kernels[kernel] += nc
    return {"self_s": dict(self_s), "kernels": dict(kernels)}


def merge_summaries(into: dict, other: dict):
    """Add the counts and times of ``other`` into ``into`` (maxima for *_max)."""
    for section, values in other.items():
        target = into.setdefault(section, {})
        for key, value in values.items():
            if key.endswith("_max"):
                target[key] = max(target.get(key, 0), value)
            else:
                target[key] = target.get(key, 0) + value
