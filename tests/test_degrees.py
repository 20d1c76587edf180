import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmod import (
    LocalizedFraction,
    WeightDegree,
    fraction,
    probe_nonnegativity,
    ring,
    valuation_degree,
    weight_degree,
)
from affmod.degrees import DEFAULT_PROBE, NEG_INF, exhaustive_probe
from affmod.poly import ZeroPolynomialError

from conftest import poly_strategy

RXY = ring("x", "y")
weight_vec = st.tuples(
    st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4)
)


class TestWeightDegree:
    def test_examples(self):
        x, y = RXY.gens()
        w = WeightDegree((1, -2))
        assert weight_degree(x**2 * y - 1, w) == 0
        assert weight_degree(x**3 * y - 1, w) == 1
        assert weight_degree(y, w) == -2
        assert weight_degree(RXY.zero(), w) == NEG_INF

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weight_degree(RXY.var("x"), WeightDegree((1,)))

    @given(p=poly_strategy(RXY), q=poly_strategy(RXY), w=weight_vec)
    @settings(max_examples=150)
    def test_multiplicative_and_ultrametric(self, p, q, w):
        wd = WeightDegree(w)
        dp, dq = weight_degree(p, wd), weight_degree(q, wd)
        # exact fields have no coefficient cancellation across monomial weights:
        # the top-weight parts multiply to something nonzero
        assert weight_degree(p * q, wd) == dp + dq
        assert weight_degree(p + q, wd) <= max(dp, dq)


class TestValuationDegree:
    def test_adjoined_generator(self):
        x, y = RXY.gens()
        for n in (1, 2, 3, 5):
            u = fraction(x - 1, x**n * y - 1)
            w = WeightDegree((1, -n))
            # deg(x-1) = 1, deg(x^n*y - 1) = 0
            assert valuation_degree(u, w) == 1
            assert valuation_degree(u, WeightDegree((1, 0))) == 1 - n

    def test_multiplicity(self):
        x, y = RXY.gens()
        t = x * y - 1
        f = LocalizedFraction(x**3, ((t, 2),))
        assert valuation_degree(f, WeightDegree((1, 1))) == 3 - 2 * 2

    def test_zero_numerator(self):
        assert valuation_degree(fraction(RXY.zero(), RXY.var("x")), WeightDegree((1, 1))) == NEG_INF

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            fraction(RXY.var("x"), RXY.zero())


class TestProbe:
    def test_trivial_weight(self):
        assert probe_nonnegativity(2, WeightDegree((0, 0))).verdict == "trivial-ok"

    def test_simple_witnesses(self):
        r = probe_nonnegativity(2, WeightDegree((-1, 0)))
        assert r.verdict == "witness" and r.witness == "x" and r.degree == -1
        r = probe_nonnegativity(2, WeightDegree((0, -3)))
        assert r.verdict == "witness" and r.witness == "y"

    def test_u_witness(self):
        # weights (1, 0): deg u = 1 - n < 0 once n >= 2
        r = probe_nonnegativity(3, WeightDegree((1, 0)))
        assert r.verdict == "witness" and r.witness == "u" and r.degree == -2

    def test_n1_needs_v(self):
        w = WeightDegree((1, 0))
        full = probe_nonnegativity(1, w)
        assert full.verdict == "witness" and full.witness == "v"
        restricted = probe_nonnegativity(1, w, names=("x", "y", "u"))
        assert restricted.verdict == "no-witness"

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            probe_nonnegativity(0, WeightDegree((1, 1)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exhaustive_box(self, n):
        results = exhaustive_probe([n], 5)
        assert len(results) == 11 * 11 - 1
        for r in results:
            assert r["verdict"] in ("witness",), r
            assert r["degree"] < 0

    def test_restricted_probe_gap_is_exactly_n1_positive_axis(self):
        results = exhaustive_probe([1, 2, 3], 3, names=("x", "y", "u"))
        gaps = [(r["n"], tuple(r["weight"])) for r in results if r["verdict"] == "no-witness"]
        assert gaps == [(1, (a, 0)) for a in range(1, 4)]
