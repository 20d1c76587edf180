import random

import pytest
from hypothesis import strategies as st

from affmod import GREVLEX, LEX, QQ, PrimeField, Ring, ring
from affmod.poly import MultiPoly


@pytest.fixture
def rxy() -> Ring:
    return ring("x", "y")


@pytest.fixture
def rxyu() -> Ring:
    return ring("x", "y", "u")


def in_ring(p: MultiPoly, target: Ring) -> MultiPoly:
    """p re-expressed in another ring, matching variable names."""
    return p.substitute({}, target=target)


def random_poly(rng: random.Random, r: Ring, max_terms=4, max_exp=3, max_coef=4):
    """Small random polynomial with integer coefficients (possibly zero)."""
    p = r.zero()
    for _ in range(rng.randint(0, max_terms)):
        c = rng.randint(-max_coef, max_coef)
        mono = r.one()
        for name in r.variables:
            mono = mono * r.var(name) ** rng.randint(0, max_exp)
        p = p + mono.scale(c)
    return p


def poly_strategy(r: Ring, max_terms=5, max_exp=4, max_coef=6):
    """Hypothesis strategy for integer-coefficient polynomials in r."""
    term = st.tuples(
        st.integers(min_value=-max_coef, max_value=max_coef),
        st.tuples(*(st.integers(min_value=0, max_value=max_exp) for _ in r.variables)),
    )

    def build(terms):
        out = {}
        fld = r.field
        for c, mono in terms:
            if c:
                cur = out.get(mono, fld.zero)
                out[mono] = fld.add(cur, fld.from_int(c))
        return MultiPoly(r, out)

    return st.lists(term, max_size=max_terms).map(build)


FIELDS = (QQ, PrimeField(7), PrimeField(101))
ORDERS = (GREVLEX, LEX)


def _bounded_poly(draw, r: Ring, max_terms: int, max_degree: int, max_coef=5):
    """Integer-coefficient polynomial with at most max_terms terms, each of
    total degree at most max_degree."""
    out = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = [0] * r.nvars
        for i in draw(st.lists(st.integers(0, r.nvars - 1), max_size=max_degree)):
            e[i] += 1
        c = r.field.from_int(draw(st.integers(-max_coef, max_coef)))
        out[tuple(e)] = r.field.add(out.get(tuple(e), r.field.zero), c)
    return MultiPoly(r, out)


@st.composite
def polys_over_fields(draw, counts=(1, 3), max_terms=3, max_degree=3, nvars=(2, 4),
                      fields=FIELDS):
    """(ring, order, polys): a random field among fields, a random order among
    ORDERS, and counts[0]..counts[1] bounded polynomials in nvars[0]..nvars[1]
    variables."""
    n = draw(st.integers(*nvars))
    r = Ring(tuple("xyzw"[:n]), draw(st.sampled_from(fields)))
    order = draw(st.sampled_from(ORDERS))
    polys = [_bounded_poly(draw, r, max_terms, max_degree)
             for _ in range(draw(st.integers(*counts)))]
    return r, order, polys
