"""Weighted degree functions, their fraction-field valuations, and the
exhaustive weight-family non-negativity probe.

A weight is a tuple of integers, one per base-ring variable; the degree of
a polynomial is the maximal weight over its monomials (-inf for 0), which is
multiplicative and extends to fractions by deg(p/q) = deg p - deg q.

Degrees are evaluated a column at a time: each function takes a list of
weights and returns one value, or one probe witness, per weight.
"""

from __future__ import annotations

from itertools import product
from operator import add, itemgetter, sub

from .poly import MultiPoly, Ring, ZeroPolynomialError

NEG_INF = float("-inf")


def _coordinates(weights: list, nvars: int) -> list:
    """The coordinate columns of a list of weights, one per variable."""
    if set(map(len, weights)) - {nvars}:
        raise ValueError("weight vector length does not match ring")
    return [list(map(itemgetter(i), weights)) for i in range(nvars)]


def _degree_column(p: MultiPoly, coords: list, size: int) -> list:
    """deg p at each of size weights given by their coordinate columns: each
    monomial m gives the column of m . w, and an elementwise max folds them."""
    if not p.terms:
        return [NEG_INF] * size
    out = None
    for m in p.terms:
        col = None
        for e, c in zip(m, coords):
            if e:
                term = c if e == 1 else [e * a for a in c]
                col = term if col is None else list(map(add, col, term))
        if col is None:
            col = [0] * size
        out = col if out is None else [a if a > b else b for a, b in zip(out, col)]
    return out


def fraction(numerator: MultiPoly, *inverted) -> tuple:
    """numerator / product of inverted elements, as the pair (numerator,
    inverted): an element of a localization like A_t, where an element
    listed k times is inverted to the k-th power."""
    if any(elt.is_zero for elt in inverted):
        raise ZeroPolynomialError("inverted element is zero")
    return numerator, inverted


def valuation_degree(f: tuple, weights: list) -> list:
    """deg(num) - the sum of deg over the inverted elements, one per weight."""
    numerator, inverted = f
    coords = _coordinates(weights, numerator.ring.nvars)
    d = _degree_column(numerator, coords, len(weights))
    for elt in inverted:
        d = list(map(sub, d, _degree_column(elt, coords, len(weights))))
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


def probe_nonnegativity(elements: dict, weights: list) -> list:
    """For each weight, the first probe element, in the order probe_elements
    built them, of negative degree under it: one (name, degree) per weight,
    or None where no element has one.

    Every nonzero weight admits a witness (the finitary face of the
    degree-rigidity statement); the restricted probe without v misses the
    weight (1, 0) at n = 1, which is why None is representable.
    """
    hits = [None] * len(weights)
    for name, elt in elements.items():
        hits = [(name, d) if hit is None and d < 0 else hit
                for hit, d in zip(hits, valuation_degree(elt, weights))]
    return hits


def exhaustive_probe(n_values, box: int, names=DEFAULT_PROBE) -> list:
    """Run the probe over every nonzero weight pair in [-box, box]^2.

    Returns a list of dicts {n, weight, verdict, witness, degree}, the
    verdict "witness" or "no-witness".
    """
    weights = [w for w in product(range(-box, box + 1), repeat=2) if any(w)]
    results = []
    for n in n_values:
        hits = probe_nonnegativity(probe_elements(n, names), weights)
        results += [{"n": n, "weight": list(w), "verdict": "witness" if hit else "no-witness",
                     "witness": name, "degree": degree}
                    for w, hit in zip(weights, hits) for name, degree in [hit or ("", None)]]
    return results
