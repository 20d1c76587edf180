"""Weighted degree functions, their fraction-field valuations, and the
exhaustive weight-family non-negativity probe.

A weight is a tuple of integers, one per base-ring variable; the degree of
a polynomial is the maximal weight over its monomials (-inf for 0), which is
multiplicative and extends to fractions by deg(p/q) = deg p - deg q.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from .poly import MultiPoly, Ring, ZeroPolynomialError

NEG_INF = float("-inf")


def weight_degree(p: MultiPoly, w: tuple):
    """Max weight over the monomials of p; -inf for the zero polynomial."""
    if len(w) != len(p.ring.variables):
        raise ValueError("weight vector length does not match ring")
    if not p.terms:
        return NEG_INF
    return max([sum(map(mul, w, m)) for m in p.terms])


@dataclass(frozen=True)
class LocalizedFraction:
    """numerator / product of inverted elements.

    Models elements of a localization like A_t; an element listed k times in
    ``inverted`` is inverted to the k-th power.
    """

    numerator: MultiPoly
    inverted: tuple = ()  # MultiPolys

    def __post_init__(self):
        if any(elt.is_zero for elt in self.inverted):
            raise ZeroPolynomialError("inverted element is zero")


def fraction(numerator: MultiPoly, *inverted) -> LocalizedFraction:
    return LocalizedFraction(numerator, inverted)


def valuation_degree(f: LocalizedFraction, w: tuple):
    """deg(num) - the sum of deg over the inverted elements."""
    d = weight_degree(f.numerator, w)
    if d == NEG_INF:
        return NEG_INF
    for elt in f.inverted:
        d -= weight_degree(elt, w)
    return d


# -- the non-negativity probe ----------------------------------------------


DEFAULT_PROBE = ("x", "y", "u", "v")


def probe_elements(n: int, names=DEFAULT_PROBE) -> dict:
    """The probe set on B_n: x, y, and the adjoined fractions
    u = (x-1)/(x^n*y-1) and v = (y-1)/(x^n*y-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ring = Ring(("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    t = x**n * y - 1
    available = {
        "x": fraction(x),
        "y": fraction(y),
        "u": fraction(x - 1, t),
        "v": fraction(y - 1, t),
    }
    return {name: available[name] for name in names}


def probe_nonnegativity(elements: dict, w: tuple) -> dict:
    """Find a probe element of negative degree under w, if any, trying the
    elements built by probe_elements in order.

    Returns {"verdict", "witness", "degree"}, the verdict one of
    "trivial-ok" (w = 0), "witness" and "no-witness".  Every nonzero weight
    admits a witness (the finitary face of the degree-rigidity statement);
    the restricted probe without v misses the weight (1, 0) at n = 1, which
    is why "no-witness" is representable.
    """
    if not any(w):
        return {"verdict": "trivial-ok", "witness": "", "degree": None}
    for name, elt in elements.items():
        d = valuation_degree(elt, w)
        if d < 0:
            return {"verdict": "witness", "witness": name, "degree": d}
    return {"verdict": "no-witness", "witness": "", "degree": None}


def exhaustive_probe(n_values, box: int, names=DEFAULT_PROBE) -> list:
    """Run the probe over every nonzero weight pair in [-box, box]^2.

    Returns a list of dicts {n, weight, verdict, witness, degree}.
    """
    results = []
    for n in n_values:
        elements = probe_elements(n, names)
        for w in product(range(-box, box + 1), repeat=2):
            if w != (0, 0):
                results.append({"n": n, "weight": list(w)}
                               | probe_nonnegativity(elements, w))
    return results
