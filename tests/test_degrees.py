import hashlib
import json
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmod import (
    fraction,
    probe_nonnegativity,
    ring,
    valuation_degree,
)
from affmod import degrees
from affmod.degrees import DEFAULT_PROBE, NEG_INF, exhaustive_probe, probe_elements
from affmod.poly import ZeroPolynomialError
from affmod.verifier import cmd_degree_probe

from conftest import poly_strategy

RXY = ring("x", "y")
weight_vec = st.tuples(
    st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4)
)


class TestWeightDegree:
    def test_examples(self):
        x, y = RXY.gens()
        w = (1, -2)
        assert valuation_degree(fraction(x**2 * y - 1), [w]) == [0]
        assert valuation_degree(fraction(x**3 * y - 1), [w]) == [1]
        assert valuation_degree(fraction(y), [w]) == [-2]
        assert valuation_degree(fraction(RXY.zero()), [w]) == [NEG_INF]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            valuation_degree(fraction(RXY.var("x")), [(1,)])
        with pytest.raises(ValueError):
            valuation_degree(fraction(RXY.var("x")), [(1, 2), (1, 2, 3)])

    @given(p=poly_strategy(RXY), q=poly_strategy(RXY), w=weight_vec)
    @settings(max_examples=150)
    def test_multiplicative_and_ultrametric(self, p, q, w):
        (dp,), (dq,) = (valuation_degree(fraction(f), [w]) for f in (p, q))
        # exact fields have no coefficient cancellation across monomial weights:
        # the top-weight parts multiply to something nonzero
        assert valuation_degree(fraction(p * q), [w]) == [dp + dq]
        assert valuation_degree(fraction(p + q), [w])[0] <= max(dp, dq)


class TestValuationDegree:
    def test_adjoined_generator(self):
        x, y = RXY.gens()
        for n in (1, 2, 3, 5):
            u = fraction(x - 1, x**n * y - 1)
            w = (1, -n)
            # deg(x-1) = 1, deg(x^n*y - 1) = 0
            assert valuation_degree(u, [w]) == [1]
            assert valuation_degree(u, [(1, 0)]) == [1 - n]

    def test_multiplicity(self):
        x, y = RXY.gens()
        t = x * y - 1
        f = fraction(x**3, t, t)
        assert valuation_degree(f, [(1, 1)]) == [3 - 2 * 2]

    def test_zero_numerator(self):
        assert valuation_degree(fraction(RXY.zero(), RXY.var("x")), [(1, 1)]) == [NEG_INF]

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            fraction(RXY.var("x"), RXY.zero())


class TestProbe:
    def test_simple_witnesses(self):
        assert probe_nonnegativity(probe_elements(2), [(-1, 0)]) == [("x", -1)]
        (witness, _degree), = probe_nonnegativity(probe_elements(2), [(0, -3)])
        assert witness == "y"

    def test_u_witness(self):
        # weights (1, 0): deg u = 1 - n < 0 once n >= 2
        assert probe_nonnegativity(probe_elements(3), [(1, 0)]) == [("u", -2)]

    def test_n1_needs_v(self):
        w = (1, 0)
        (witness, _degree), = probe_nonnegativity(probe_elements(1), [w])
        assert witness == "v"
        assert probe_nonnegativity(probe_elements(1, ("x", "y", "u")), [w]) == [None]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            probe_elements(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exhaustive_box(self, n):
        results = exhaustive_probe([n], 5)
        assert len(results) == 11 * 11 - 1
        for r in results:
            assert r["verdict"] in ("witness",), r
            assert r["degree"] < 0

    @pytest.mark.parametrize("names", [DEFAULT_PROBE, ("x", "y", "u")])
    def test_elements_built_once_per_n(self, monkeypatch, names):
        built = []

        def counting(n, names=DEFAULT_PROBE):
            built.append(n)
            return probe_elements(n, names)

        monkeypatch.setattr(degrees, "probe_elements", counting)
        results = exhaustive_probe(range(1, 5), 4, names)
        assert built == [1, 2, 3, 4]
        # oracle: the elements rebuilt for every weight
        oracle = []
        for n, a, b in product(range(1, 5), range(-4, 5), range(-4, 5)):
            if (a, b) != (0, 0):
                hit, = probe_nonnegativity(probe_elements(n, names), [(a, b)])
                witness, degree = hit or ("", None)
                oracle.append({"n": n, "weight": [a, b],
                               "verdict": "witness" if hit else "no-witness",
                               "witness": witness, "degree": degree})
        assert results == oracle

    def test_restricted_probe_gap_is_exactly_n1_positive_axis(self):
        results = exhaustive_probe([1, 2, 3], 3, names=("x", "y", "u"))
        gaps = [(r["n"], tuple(r["weight"])) for r in results if r["verdict"] == "no-witness"]
        assert gaps == [(1, (a, 0)) for a in range(1, 4)]


def _definition_rows(n: int, names, box: int) -> list:
    """Probe rows straight from the definitions: a weight-degree is the max
    over the monomials of the dot product, one weight and element at a time."""
    def deg(p, w):
        if not p.terms:
            return NEG_INF
        return max(sum(a * e for a, e in zip(w, m)) for m in p.terms)

    rows = []
    for w in product(range(-box, box + 1), repeat=2):
        if w == (0, 0):
            continue
        row = {"n": n, "weight": list(w), "verdict": "no-witness", "witness": "",
               "degree": None}
        for name, (numerator, inverted) in probe_elements(n, names).items():
            d = deg(numerator, w) - sum(deg(e, w) for e in inverted)
            if d < 0:
                row |= {"verdict": "witness", "witness": name, "degree": d}
                break
        rows.append(row)
    return rows


PROBE_SUBSETS = [s for k in range(1, 5) for s in combinations(DEFAULT_PROBE, k)]


@pytest.mark.parametrize("names", PROBE_SUBSETS, ids="".join)
def test_probe_matches_definition(names):
    """The column evaluation agrees with the definition row by row on every
    nonempty probe subset, the gaps of the subsets included (no-witness rows,
    such as n = 1, w = (1, 0) without v)."""
    rows = exhaustive_probe(range(1, 7), 6, names)
    assert rows == [r for n in range(1, 7) for r in _definition_rows(n, names, 6)]
    assert any(r["verdict"] == "no-witness" for r in rows) == (names != DEFAULT_PROBE)


def test_probe_payload_golden():
    """The n <= 20, box 20 payload, byte for byte as the JSON report carries it."""
    payload = json.dumps(cmd_degree_probe(20, 20).payload).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "8d44702e662ae8e02aa371dfcae0d8222723b88489757de26f1d4a0b7ff1f9c0")
