import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from affmod import (
    GREVLEX,
    LEX,
    INFINITE,
    Ideal,
    buchberger_gb,
    colength,
    ideals,
    ideals_equal,
    is_point_ideal,
    normal_form,
    parse_poly,
    poly,
    ring,
)
from affmod.ideals import s_polynomial
from affmod.poly import RingMismatchError, ZeroPolynomialError, mono_divides, reduce_mod
from affmod.scalars import QQ, PrimeField

from conftest import ORDERS, poly_strategy, polys_over_fields, random_poly
from naive_gb import ORDER_KEYS, naive_buchberger
from naive_gb import s_polynomial as naive_s_polynomial

RXY = ring("x", "y")
RXYU = ring("x", "y", "u")
KATSURA4 = ["x0 + 2*x1 + 2*x2 + 2*x3 + 2*x4 - 1",
            "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 + 2*x4^2 - x0",
            "2*x0*x1 + 2*x1*x2 + 2*x2*x3 + 2*x3*x4 - x1",
            "x1^2 + 2*x0*x2 + 2*x1*x3 + 2*x2*x4 - x2",
            "2*x1*x2 + 2*x0*x3 + 2*x1*x4 - x3"]
CYCLIC4 = ["a + b + c + d", "a*b + b*c + c*d + d*a",
           "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"]
# generator sets in x, y that are not minimal bases, under lex and grevlex
NON_MINIMAL = {
    "same-lm": ["x^2 + y", "x^2 - y + 1"],
    "scalar-multiple": ["x*y - 1", "y^2 - x", "3*x*y - 3"],
    "lm-divides-later": ["x - y", "x^2 + y"],
    "reduces-to-zero": ["x^2 - y", "x*y - 1", "x^3 - x*y"],
    "duplicate": ["x^2 + y^2 - 1", "x - y", "x^2 + y^2 - 1"],
}
FIELDS = (QQ, PrimeField(7))
# The pairs, as (lm f, lm g), that buchberger_gb hands to s_polynomial on
# unscaled inputs, in order.  Pairs with equal lcms occur (katsura-4), so a
# different tie-break among them changes the sequence.
PAIR_SEQUENCES = {
    "cyclic4-lex": (CYCLIC4, "abcd", QQ, LEX, """
        b*c^2,b*c*d^2 b*c*d^2,c^3*d^2 b*c*d^2,b*c b*c,b*d^7 b*c^2,b*c
        b^2,b*d^7 b*d^7,b*d^4 c^3*d^2,c^2*d^10 b*c,b*d^4 b*d^4,c^2*d^10
        b^2,b*d^4 b^2,b*c c^2*d^10,c^2*d^9 c^2*d^9,c^2*d^6 c^3*d^2,c^2*d^6
        b*d^4,c^2*d^6"""),
    "cyclic4-grevlex": (CYCLIC4, "abcd", QQ, GREVLEX, """
        b^2,b*c^2 b*c^2,b*c*d^2 b^2,b*c*d^2 b*c*d^2,b*d^4 b^2,b*d^4
        b*c*d^2,c^3*d^2 c^3*d^2,c^2*d^4 b*d^4,c^2*d^4"""),
    "katsura4-grevlex-QQ": (KATSURA4, [f"x{i}" for i in range(5)], QQ, GREVLEX, """
        x2^2,x2*x3 x1*x2,x2*x3 x1*x2,x2^2 x1^2,x1*x2 x3^3,x3^2*x4
        x2*x3,x3^2*x4 x1*x3^2,x1*x3*x4 x1*x3*x4,x3^2*x4 x2*x3,x1*x3*x4
        x1^2,x1*x3*x4 x2*x3,x3^3 x1*x3^2,x3^3 x2*x3,x1*x3^2 x1^2,x1*x3^2
        x3^2*x4,x3*x4^3 x2*x3,x3*x4^3 x3*x4^3,x2*x4^3 x1*x3*x4,x3*x4^3
        x3*x4^3,x1*x4^3 x2^2,x2*x4^3 x1*x2,x2*x4^3 x2*x4^3,x1*x4^3
        x1^2,x1*x4^3 x3*x4^3,x4^5 x2*x4^3,x4^5 x1*x4^3,x4^5"""),
    "katsura4-grevlex-GF7": (KATSURA4, [f"x{i}" for i in range(5)], PrimeField(7),
                             GREVLEX, """
        x2*x3,x2^2 x1*x2,x2*x3 x1*x2,x2^2 x1^2,x1*x2 x3^3,x3^2*x4
        x2*x3,x3^2*x4 x1*x3^2,x1*x3*x4 x1*x3*x4,x3^2*x4 x2*x3,x1*x3*x4
        x1^2,x1*x3*x4 x2*x3,x3^3 x1*x3^2,x3^3 x2*x3,x1*x3^2 x1^2,x1*x3^2
        x3^2*x4,x3*x4^3 x3*x4^3,x4^4 x2*x4^3,x4^4 x1*x4^3,x4^4 x2*x3,x3*x4^3
        x3*x4^3,x2*x4^3 x1*x3*x4,x3*x4^3 x3*x4^3,x1*x4^3 x2^2,x2*x4^3
        x1*x2,x2*x4^3 x2*x4^3,x1*x4^3 x1^2,x1*x4^3"""),
}


class TestBuchberger:
    def test_unit_fiber_basis(self, rxy):
        x, y = rxy.gens()
        gb = buchberger_gb([x**2 * y - 1, x - 1], LEX)
        assert gb == [x - 1, y - 1]

    def test_already_groebner(self, rxy):
        x, y = rxy.gens()
        gb = buchberger_gb([x**2, y**3], GREVLEX)
        assert gb == [y**3, x**2] or gb == [x**2, y**3]
        for g in gb:
            assert g in (x**2, y**3)

    def test_single_generator_monic(self, rxy):
        x, _ = rxy.gens()
        assert buchberger_gb([3 * x - 6], GREVLEX) == [x - 2]

    def test_whole_ring(self, rxy):
        x, y = rxy.gens()
        gb = buchberger_gb([x, x - 1], GREVLEX)
        assert gb == [rxy.one()]

    def test_zero_ideal(self, rxy):
        assert buchberger_gb([rxy.zero()], GREVLEX) == []

    @given(p=poly_strategy(RXY, max_terms=3, max_exp=3), q=poly_strategy(RXY, max_terms=3, max_exp=3))
    @settings(max_examples=60, deadline=None)
    def test_spolys_reduce_to_zero(self, p, q):
        gens = [g for g in (p, q) if not g.is_zero]
        gb = buchberger_gb(gens, GREVLEX)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                s = s_polynomial(gb[i], gb[j], GREVLEX)
                assert reduce_mod(s, gb, GREVLEX).is_zero

    def test_matches_naive_oracle(self):
        rng = random.Random(20240)
        checked = 0
        while checked < 25:
            gens = [random_poly(rng, RXY, max_terms=3, max_exp=3) for _ in range(rng.randint(1, 3))]
            if all(g.is_zero for g in gens):
                continue
            fast = buchberger_gb(gens, GREVLEX)
            slow = naive_buchberger(gens, GREVLEX)
            assert fast == slow
            checked += 1

    def test_matches_naive_oracle_three_vars(self):
        rng = random.Random(7)
        for _ in range(8):
            gens = [random_poly(rng, RXYU, max_terms=2, max_exp=2) for _ in range(2)]
            if all(g.is_zero for g in gens):
                continue
            assert buchberger_gb(gens, GREVLEX) == naive_buchberger(gens, GREVLEX)

    @pytest.mark.parametrize("texts, names, order, size", [
        (KATSURA4, [f"x{i}" for i in range(5)], GREVLEX, 13),
        (CYCLIC4, list("abcd"), LEX, 6),
    ], ids=["katsura4-grevlex", "cyclic4-lex"])
    def test_divisors_packed_once(self, monkeypatch, texts, names, order, size):
        """The division kernel packs each basis element once per order, and
        later reductions by the finished basis reuse that form."""
        r = ring(*names)
        packs, packed = Counter(), []
        real = poly._pack_divisor

        def counted(g, order, width):
            packed.append(g)  # alive until the end, so its id stays unique
            packs[id(g), order.kind] += 1
            return real(g, order, width)

        monkeypatch.setattr(poly, "_pack_divisor", counted)
        gb = buchberger_gb([parse_poly(t, r) for t in texts], order)
        assert len(gb) == size
        for _ in range(2):
            for g in gb:
                assert reduce_mod(g * g + r.one(), gb, order) == r.one()
        assert packs and max(packs.values()) == 1
        assert all(packs[id(g), order.kind] == 1 for g in gb)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.kind)
    @pytest.mark.parametrize("name", NON_MINIMAL)
    def test_non_minimal_generators(self, name, order, field):
        r = ring("x", "y", field=field)
        gens = [parse_poly(t, r) for t in NON_MINIMAL[name]]
        assert buchberger_gb(gens, order) == naive_buchberger(gens, order)

    @pytest.mark.parametrize("texts, names, field, order", [
        *(pytest.param(texts, "xy", field, order, id=f"{name}-{order.kind}-{field!r}")
          for name, texts in NON_MINIMAL.items()
          for field in FIELDS for order in ORDERS),
        pytest.param(CYCLIC4, "abcd", QQ, LEX, id="cyclic4-lex"),
        pytest.param(KATSURA4, [f"x{i}" for i in range(5)], QQ, GREVLEX,
                     id="katsura4-grevlex"),
    ])
    def test_active_basis_minimal(self, monkeypatch, texts, names, field, order):
        """The basis handed to the last step is monic and minimal: no
        leading monomial divides another's."""
        r = ring(*names, field=field)
        seen, real = [], ideals.reduce_groebner_basis

        def checked(basis, order):
            lms = [g.leading(order)[0] for g in basis]
            assert all(g.leading(order)[1] == field.one for g in basis)
            assert not any(i != j and mono_divides(a, b)
                           for i, a in enumerate(lms) for j, b in enumerate(lms))
            seen.append(basis)
            return real(basis, order)

        monkeypatch.setattr(ideals, "reduce_groebner_basis", checked)
        buchberger_gb([parse_poly(t, r) for t in texts], order)
        assert len(seen) == 1

    def test_prime_field(self):
        r5 = ring("x", "y", field=PrimeField(5))
        x, y = r5.gens()
        gb = buchberger_gb([x**2 * y - 1, x - 1], LEX)
        assert gb == [x - 1, y - 1]

    @pytest.mark.parametrize("name", PAIR_SEQUENCES)
    def test_pair_sequence(self, monkeypatch, name):
        """The normal strategy picks the least lcm first and, of equal lcms,
        the pair made first: the pinned sequence of S-polynomials."""
        texts, names, field, order, expected = PAIR_SEQUENCES[name]
        r = ring(*names, field=field)
        seen, real = [], ideals.s_polynomial

        def text(m):
            return "*".join(v if e == 1 else f"{v}^{e}"
                            for v, e in zip(names, m) if e) or "1"

        def recorded(f, g, order):
            seen.append(f"{text(f.leading(order)[0])},{text(g.leading(order)[0])}")
            return real(f, g, order)

        monkeypatch.setattr(ideals, "s_polynomial", recorded)
        buchberger_gb([parse_poly(t, r) for t in texts], order)
        assert seen == expected.split()


class TestSPolynomial:
    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7)], ids=repr)
    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.kind)
    def test_matches_dict_oracle(self, order, field):
        """Non-monic pairs, with equal, dividing and coprime leading
        monomials among them, against the plain-dict S-polynomial."""
        rng = random.Random(29)
        r = ring("x", "y", "z", field=field)
        key = ORDER_KEYS[order.kind]
        checked = 0
        while checked < 60:
            f, g = (random_poly(rng, r, max_terms=4, max_exp=3, max_coef=9)
                    for _ in range(2))
            if f.is_zero or g.is_zero:
                continue
            if not field.char:
                f = f.scale(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            expected = naive_s_polynomial(dict(f.terms), dict(g.terms), key, field.char)
            assert s_polynomial(f, g, order).terms == expected
            assert s_polynomial(f, f, order).is_zero
            checked += 1

    def test_mixed_rings_rejected(self):
        x = ring("x", "y").var("x")
        for other in (ring("x", "y", field=PrimeField(7)).var("x"), ring("x", "z").var("x")):
            with pytest.raises(RingMismatchError):
                s_polynomial(x, other, GREVLEX)
            with pytest.raises(RingMismatchError):
                s_polynomial(other, x, LEX)

    def test_zero_rejected(self, rxy):
        x, y = rxy.gens()
        with pytest.raises(ZeroPolynomialError):
            s_polynomial(x * y - 1, rxy.zero(), GREVLEX)
        with pytest.raises(ZeroPolynomialError):
            s_polynomial(rxy.zero(), x, LEX)


def _monic_terms(terms: dict, order, p: int) -> frozenset:
    lead = terms[min(terms, key=order.key)]
    inv = pow(lead, -1, p) if p else 1 / lead
    return frozenset((m, c * inv % p if p else c * inv) for m, c in terms.items())


def _sympy_basis(sympy, r, order, gens) -> set:
    """sympy's reduced basis of gens, as monic term sets."""
    syms = sympy.symbols(r.variables)
    p = r.field.char
    exprs = []
    for g in gens:
        terms = ((m, Fraction(c)) for m, c in g.terms.items())
        exprs.append(sum(sympy.Rational(c.numerator, c.denominator)
                         * sympy.prod([v**e for v, e in zip(syms, m)])
                         for m, c in terms))
    kwargs = {"modulus": p} if p else {"domain": sympy.QQ}
    basis = set()
    for poly in sympy.groebner(exprs, *syms, order=order.kind, **kwargs).polys:
        terms = {}
        for m, c in poly.as_dict().items():
            c = sympy.Rational(c)
            terms[m] = int(c) % p if p else Fraction(int(c.p), int(c.q))
        basis.add(_monic_terms(terms, order, p))
    return basis


class TestEngineDifferential:
    """buchberger_gb against engines that share no code with it: random
    ideals in 2-4 variables over QQ, GF(7) and GF(101), grevlex and lex."""

    @given(case=polys_over_fields(max_terms=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_oracle(self, case):
        _, order, gens = case
        assert buchberger_gb(gens, order) == naive_buchberger(gens, order)

    def test_lex_four_variables(self):
        """An input drawn by test_matches_dict_oracle on which degree-first
        pair selection took twenty seconds under lex."""
        r = ring("x", "y", "z", "w", field=PrimeField(7))
        x, y, z, w = r.gens()
        gens = [5 * x * y * z + 5 * x * y + 2 * x + 5, 6 * x * y * z + 5 * y**2 * w + 5,
                5 * x**2 * y + 3 * x * w + 6 * w]
        assert buchberger_gb(gens, LEX) == naive_buchberger(gens, LEX)

    @given(case=polys_over_fields())
    @settings(max_examples=100, deadline=None)
    def test_matches_sympy(self, case):
        sympy = pytest.importorskip("sympy")
        r, order, gens = case
        gens = [g for g in gens if not g.is_zero]
        assume(gens)
        gb = buchberger_gb(gens, order)
        assert {frozenset(g.terms.items()) for g in gb} == _sympy_basis(
            sympy, r, order, gens)


class TestIdeal:
    def test_membership(self, rxyu):
        x, y, u = rxyu.gens()
        ideal = Ideal([u * x - (y - 1), u * y - (x - 1)])
        assert ideal.contains(u * (x + y) - (x + y - 2))
        assert not ideal.contains(x - y)

    def test_normal_form_is_canonical(self, rxy):
        x, y = rxy.gens()
        ideal = Ideal([x * y - 1])
        a = normal_form(x**2 * y, ideal)
        b = normal_form(x + x * y - 1, ideal)
        assert a == b == x

    def test_mixed_rings_rejected(self, rxy, rxyu):
        with pytest.raises(RingMismatchError):
            Ideal([rxy.var("x"), rxyu.var("u")])

    def test_is_proper(self, rxy):
        x, y = rxy.gens()
        one = rxy.one()
        assert not Ideal([x * y - 1]).contains(one)
        assert Ideal([x, y, x - y + 1]).contains(one)


class TestIdealsEqual:
    def test_generator_shuffle(self, rxy):
        x, y = rxy.gens()
        a = Ideal([x**2 - y, x * y - 1])
        b = Ideal([x * y - 1, x**2 - y])
        assert ideals_equal(a, b)

    def test_scaled_generators(self, rxy):
        x, y = rxy.gens()
        a = Ideal([x - 1, y - 2])
        b = Ideal([(x - 1).scale(Fraction(3, 7)), (y - 2).scale(-5)])
        assert ideals_equal(a, b)

    def test_same_order_completes_each_once(self, monkeypatch, rxy):
        x, y = rxy.gens()
        calls, real = [], ideals.buchberger_gb

        def counted(gens, order):
            calls.append(gens)
            return real(gens, order)

        monkeypatch.setattr(ideals, "buchberger_gb", counted)
        a = Ideal([x**2 - y, x * y - 1], LEX)
        b = Ideal([x * y - 1, x**2 - y], LEX)
        assert ideals_equal(a, b) and ideals_equal(b, a)
        assert calls == [a.generators, b.generators]

    def test_cross_order(self, rxy):
        x, y = rxy.gens()
        a = Ideal([x**2 * y - 1, x - 1], LEX)
        b = Ideal([x - 1, y - 1], GREVLEX)
        assert ideals_equal(a, b)

    def test_cross_order_bases_differ(self, rxy):
        # the reduced bases are x - y^2 under lex and y^2 - x under grevlex
        x, y = rxy.gens()
        a = Ideal([x - y**2], LEX)
        b = Ideal([3 * (y**2 - x)], GREVLEX)
        assert a.groebner_basis != b.groebner_basis
        assert ideals_equal(a, b) and ideals_equal(b, a)
        assert not ideals_equal(a, Ideal([x - y**3], GREVLEX))

    def test_distinct_ideals(self, rxy):
        x, y = rxy.gens()
        assert not ideals_equal(Ideal([x]), Ideal([y]))
        assert not ideals_equal(Ideal([x * y - 1]), Ideal([x * y]))

    def test_containment_is_not_equality(self, rxy):
        x, y = rxy.gens()
        big = Ideal([x, y])
        small = Ideal([x])
        assert all(big.contains(g) for g in small.generators)
        assert not ideals_equal(big, small)


class TestColength:
    def test_unit_fiber_point(self, rxy):
        x, y = rxy.gens()
        assert colength(Ideal([x**2 * y - 1, x - 1])) == 1

    def test_fat_point(self, rxy):
        x, y = rxy.gens()
        assert colength(Ideal([x**2, y**3])) == 6

    def test_monomial_staircase(self, rxy):
        x, y = rxy.gens()
        # staircase x^3, x*y, y^2 -> standard monomials 1, x, x^2, y
        assert colength(Ideal([x**3, x * y, y**2])) == 4

    def test_positive_dimensional(self, rxy):
        x, y = rxy.gens()
        assert colength(Ideal([x * y - 1])) == INFINITE

    def test_whole_ring(self, rxy):
        x, _ = rxy.gens()
        assert colength(Ideal([x, x - 1])) == 0

    def test_zero_ideal(self, rxy):
        # k[]/(0) = k has dimension 1; k[x, y]/(0) is infinite-dimensional
        assert colength(Ideal([ring().zero()])) == 1
        assert colength(Ideal([rxy.zero()])) == INFINITE

    def test_order_independence(self, rxy):
        x, y = rxy.gens()
        gens = [x**2 + y**2 - 1, x - y]
        assert colength(Ideal(gens, GREVLEX)) == colength(Ideal(gens, LEX)) == 2


class TestPointIdeal:
    def test_unit_fiber(self, rxy):
        x, y = rxy.gens()
        assert is_point_ideal(Ideal([x**2 * y - 1, x - 1])) == (1, 1)

    @pytest.mark.parametrize("order", ORDERS)
    def test_rational_point(self, rxy, order):
        x, y = rxy.gens()
        pt = is_point_ideal(Ideal([2 * x - 1, 3 * y + 2], order))
        assert pt == (Fraction(1, 2), Fraction(-2, 3))

    def test_non_split_point(self, rxy):
        x, y = rxy.gens()
        assert is_point_ideal(Ideal([x**2 + 1, y])) is None

    def test_positive_dimensional(self, rxy):
        x, y = rxy.gens()
        assert is_point_ideal(Ideal([x * y - 1])) is None

    def test_fat_point_rejected(self, rxy):
        x, y = rxy.gens()
        assert is_point_ideal(Ideal([x**2, y])) is None

    def test_wrong_arity_rejected(self, rxyu):
        with pytest.raises(ValueError):
            is_point_ideal(Ideal([rxyu.var("x")]))

    @given(polys_over_fields(counts=(1, 3), max_terms=3, max_degree=2, nvars=(2, 2),
                             fields=(QQ, PrimeField(7))))
    @settings(max_examples=300, deadline=None)
    def test_point_exactly_at_colength_one(self, case):
        r, order, gens = case
        ideal = Ideal(gens, order)
        point = is_point_ideal(ideal)
        assert (point is not None) == (colength(ideal) == 1)
        if point is not None:
            at = dict(zip(r.variables, point))
            assert all(g.substitute(at).is_zero for g in gens)
