"""Weighted degree functions, their fraction-field valuations, and the
exhaustive weight-family non-negativity probe.

A weight is a tuple of integers, one per base-ring variable; the degree of
a polynomial is the maximal weight over its monomials (-inf for 0), which is
multiplicative and extends to fractions by deg(p/q) = deg p - deg q.

Degrees are evaluated a column at a time: each function takes a list of
weights and returns one value, or one probe row, per weight.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def valuation_degree(f: LocalizedFraction, weights: list) -> list:
    """deg(num) - the sum of deg over the inverted elements, one per weight."""
    coords = _coordinates(weights, f.numerator.ring.nvars)
    d = _degree_column(f.numerator, coords, len(weights))
    for elt in f.inverted:
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
    """For each weight, find a probe element of negative degree under it, if
    any: the first one in the order probe_elements built them.

    Returns one {"verdict", "witness", "degree"} row per weight, the verdict
    one of "trivial-ok" (w = 0), "witness" and "no-witness".  Every nonzero
    weight admits a witness (the finitary face of the degree-rigidity
    statement); the restricted probe without v misses the weight (1, 0) at
    n = 1, which is why "no-witness" is representable.
    """
    rows = [None if any(w) else {"verdict": "trivial-ok", "witness": "", "degree": None}
            for w in weights]
    for name, elt in elements.items():
        rows = [{"verdict": "witness", "witness": name, "degree": d}
                if row is None and d < 0 else row
                for row, d in zip(rows, valuation_degree(elt, weights))]
    return [{"verdict": "no-witness", "witness": "", "degree": None} if row is None else row
            for row in rows]


def exhaustive_probe(n_values, box: int, names=DEFAULT_PROBE) -> list:
    """Run the probe over every nonzero weight pair in [-box, box]^2.

    Returns a list of dicts {n, weight, verdict, witness, degree}.
    """
    weights = [w for w in product(range(-box, box + 1), repeat=2) if any(w)]
    results = []
    for n in n_values:
        rows = probe_nonnegativity(probe_elements(n, names), weights)
        results += [{"n": n, "weight": list(w), **row} for w, row in zip(weights, rows)]
    return results
