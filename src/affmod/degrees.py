"""Weighted degree functions, their fraction-field valuations, and the
exhaustive weight-family non-negativity probe.

A weight vector assigns an integer to each base-ring variable; the degree of
a polynomial is the maximal weight over its monomials (-inf for 0), which is
multiplicative and extends to fractions by deg(p/q) = deg p - deg q.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from .poly import MultiPoly, Ring, ZeroPolynomialError

NEG_INF = float("-inf")


@dataclass(frozen=True)
class WeightDegree:
    """Integer weight per variable of the base ring."""

    weights: tuple


def weight_degree(p: MultiPoly, w: WeightDegree):
    """Max weight over the monomials of p; -inf for the zero polynomial."""
    weights = w.weights
    if len(weights) != len(p.ring.variables):
        raise ValueError("weight vector length does not match ring")
    if not p.terms:
        return NEG_INF
    return max([sum(map(mul, weights, m)) for m in p.terms])


@dataclass(frozen=True)
class LocalizedFraction:
    """numerator / product of inverted elements (with multiplicities).

    Models elements of a localization like A_t; the denominator is a monomial
    in the declared inverted elements, stored as (element, multiplicity)
    pairs.
    """

    numerator: MultiPoly
    inverted: tuple = ()  # pairs (MultiPoly, positive int)

    def __post_init__(self):
        for elt, mult in self.inverted:
            if elt.is_zero:
                raise ZeroPolynomialError("inverted element is zero")
            if mult < 1:
                raise ValueError("multiplicity must be positive")


def fraction(numerator: MultiPoly, *inverted) -> LocalizedFraction:
    return LocalizedFraction(numerator, tuple((e, 1) for e in inverted))


def valuation_degree(f: LocalizedFraction, w: WeightDegree):
    """deg(num) - sum of deg(inverted) with multiplicity."""
    d = weight_degree(f.numerator, w)
    if d == NEG_INF:
        return NEG_INF
    for elt, mult in f.inverted:
        d -= mult * weight_degree(elt, w)
    return d


# -- the non-negativity probe ----------------------------------------------


@dataclass(frozen=True)
class ProbeResult:
    verdict: str  # "trivial-ok" | "witness" | "no-witness"
    witness: str = ""
    degree: object = None


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


def probe_nonnegativity(elements: dict, w: WeightDegree) -> ProbeResult:
    """Find a probe element of negative degree under w, if any, trying the
    elements built by probe_elements in order.

    Every nonzero weight admits a witness (the finitary face of the
    degree-rigidity statement); the restricted probe without v misses the
    weight (1, 0) at n = 1, which is why "no-witness" is representable.
    """
    if not any(w.weights):
        return ProbeResult("trivial-ok")
    for name, elt in elements.items():
        d = valuation_degree(elt, w)
        if d < 0:
            return ProbeResult("witness", witness=name, degree=d)
    return ProbeResult("no-witness")


def exhaustive_probe(n_values, box: int, names=DEFAULT_PROBE) -> list:
    """Run the probe over every nonzero weight pair in [-box, box]^2.

    Returns a list of dicts {n, weight, verdict, witness, degree}.
    """
    results = []
    for n in n_values:
        elements = probe_elements(n, names)
        for a, b in product(range(-box, box + 1), repeat=2):
            if (a, b) == (0, 0):
                continue
            r = probe_nonnegativity(elements, WeightDegree((a, b)))
            results.append(
                {
                    "n": n,
                    "weight": [a, b],
                    "verdict": r.verdict,
                    "witness": r.witness,
                    "degree": r.degree,
                }
            )
    return results
