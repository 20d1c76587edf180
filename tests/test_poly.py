import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import affmod as am
from affmod import (
    GREVLEX,
    LEX,
    distinct_root_count,
    divide_multi,
    gcd_univariate,
    linear_decompose,
    ring,
    squarefree_part,
)
from affmod.poly import (
    MultiPoly,
    Ring,
    RingMismatchError,
    ZeroPolynomialError,
    mono_divides,
    reduce_mod,
)
from affmod.scalars import QQ, PrimeField

from conftest import FIELDS, in_ring, poly_strategy, polys_over_fields
from naive_gb import ORDER_KEYS, divide

RXY = ring("x", "y")
RXYU = ring("x", "y", "u")


class TestArithmetic:
    def test_add(self, rxy):
        x = rxy.var("x")
        assert (x + 1) + (x - 1) == 2 * x

    def test_add_identity(self, rxy):
        x, y = rxy.gens()
        p = x**2 * y - 1
        assert p + rxy.zero() == p

    def test_add_inverse(self, rxy):
        x, y = rxy.gens()
        p = x**2 * y - 1
        assert p + (1 - x**2 * y) == rxy.zero()

    def test_mul(self, rxy):
        x = rxy.var("x")
        assert (x - 1) * (x + 1) == x**2 - 1

    def test_mul_identity(self, rxy):
        x, y = rxy.gens()
        p = 3 * x * y**2 - x + 7
        assert p * rxy.one() == p

    def test_mul_expansion_into_cyclotomic_factor(self, rxyu):
        # (x-1) * (u*(x^2+x+1) - 1) = u*(x^3-1) - (x-1)
        x, y, u = rxyu.gens()
        lhs = (x - 1) * (u * (x**2 + x + 1) - 1)
        rhs = u * (x**3 - 1) - (x - 1)
        assert lhs == rhs

    def test_ring_mismatch(self, rxy, rxyu):
        with pytest.raises(RingMismatchError):
            rxy.var("x") + rxyu.var("x")

    def test_field_mismatch_names_fields(self):
        x = ring("x", "y").var("x")
        y = ring("x", "y", field=PrimeField(7)).var("y")
        with pytest.raises(RingMismatchError, match=r"over QQ vs .* over GF\(7\)"):
            x + y

    def test_equality_with_a_fraction_undefined_in_the_field(self):
        """1/7 has no value in GF(7), so no polynomial over GF(7) equals it;
        a fraction that has one compares by that value."""
        r = ring("x", "y", field=PrimeField(7))
        x, _ = r.gens()
        for p in (x, r.zero(), r.one(), r.const(5)):
            assert not p == Fraction(1, 7) and p != Fraction(1, 7)
            assert not Fraction(1, 7) == p and Fraction(1, 7) != p
            assert not p == Fraction(3, 49)
        assert r.const(4) == Fraction(1, 2)  # 2 * 4 = 1 in GF(7)

    @given(p=poly_strategy(RXY), q=poly_strategy(RXY), r=poly_strategy(RXY))
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + (-p) == RXY.zero()



class TestZeroCoefficients:
    """No stored coefficient is zero, so structural equality is equality."""

    @given(data=st.data(), field=st.sampled_from(FIELDS), cancel=st.integers(0, 5))
    @settings(max_examples=150)
    def test_cancelling_arithmetic_stores_no_zero(self, data, field, cancel):
        r = Ring(("x", "y"), field)
        p, q = data.draw(poly_strategy(r)), data.draw(poly_strategy(r))
        # q minus some of p's terms, so that p + q cancels them
        q = q - MultiPoly(r, dict(list(p.terms.items())[:cancel]))
        results = {
            "p + q": p + q, "p - q": p - q, "p * q": p * q,
            "(p + q) - q": (p + q) - q, "p - p": p - p,
            "p.scale(0)": p.scale(0), "(p + q) * (p - q)": (p + q) * (p - q),
            "p * p - q * q": p * p - q * q,
        }
        for name, res in results.items():
            assert all(c != field.zero for c in res.terms.values()), name
        zero = r.zero()
        for lhs, rhs in (("(p + q) - q", p), ("p - p", zero), ("p.scale(0)", zero),
                         ("(p + q) * (p - q)", results["p * p - q * q"])):
            assert results[lhs] == rhs and hash(results[lhs]) == hash(rhs), lhs


class TestSubstitute:
    def test_fiber_substitution(self, rxyu):
        x, y, u = rxyu.gens()
        rel = u * (x**2 * y - 1) - (x - 1)
        assert rel.substitute({"x": 2}) == u * (4 * y - 1) - 1

    def test_zero_substitution(self, rxyu):
        x, y, u = rxyu.gens()
        rel = u * (x**3 * y - 1) - (x - 1)
        assert rel.substitute({"x": 0}) == -u + 1

    def test_empty_bindings(self, rxyu):
        p = rxyu.var("x") * rxyu.var("u") - 2
        assert p.substitute({}) == p

    def test_unknown_variable(self, rxy):
        with pytest.raises(KeyError):
            rxy.var("x").substitute({"z": 1})

    def test_cross_ring_binding_needs_target(self, rxy, rxyu):
        # the result lands in the polynomial's own ring unless told otherwise
        p = rxy.var("x") * rxy.var("y")
        with pytest.raises(RingMismatchError):
            p.substitute({"x": rxyu.var("u")})
        assert p.substitute({"x": rxyu.var("u")}, target=rxyu) == (
            rxyu.var("u") * rxyu.var("y"))


class TestLeadingTerm:
    def test_grevlex(self, rxy):
        x, y = rxy.gens()
        mono, coef = (x**2 * y - 1).leading(GREVLEX)
        assert mono == (2, 1) and coef == 1

    def test_lex(self, rxy):
        x, y = rxy.gens()
        mono, _ = (x + y).leading(LEX)
        assert mono == (1, 0)

    def test_zero_rejected(self, rxy):
        with pytest.raises(ZeroPolynomialError):
            rxy.zero().leading(GREVLEX)


@st.composite
def sparse_polys(draw):
    """A polynomial over QQ, GF(2) or GF(7) in 1 to 8 variables whose terms
    involve few of them, so that zero, constants and absent variables occur."""
    n = draw(st.integers(1, 8))
    r = Ring(tuple(f"x{i}" for i in range(n)),
             draw(st.sampled_from((QQ, PrimeField(2), PrimeField(7)))))
    mono = st.lists(st.sampled_from((0, 0, 0, 1, 3)), min_size=n, max_size=n).map(tuple)
    terms = draw(st.dictionaries(mono, st.integers(-3, 3), max_size=4))
    return MultiPoly(r, {m: r.field.from_int(c) for m, c in terms.items()})


class TestStructureQueries:
    """The column-wise structure queries and the per-polynomial cache,
    against per-exponent loops and fresh copies."""

    @given(p=sparse_polys())
    @settings(max_examples=300)
    def test_match_a_loop_over_exponents(self, p):
        present = tuple(v for i, v in enumerate(p.ring.variables)
                        if any(m[i] != 0 for m in p.terms))
        assert p.variables_present() == present
        assert p.is_constant() == all(e == 0 for m in p.terms for e in m)

    @given(p=sparse_polys())
    @settings(max_examples=100)
    def test_cache_entries_do_not_mix(self, p):
        assume(not p.is_zero)
        calls = (lambda q: q.leading(LEX), lambda q: q.packed(GREVLEX, 8),
                 lambda q: q.packed(GREVLEX, 16), lambda q: q.leading(GREVLEX))
        for call in calls:
            assert call(p) == call(MultiPoly(p.ring, p.terms))


class TestDivision:
    def test_hand_reduction(self, rxy):
        x, y = rxy.gens()
        qs, r = divide_multi(x**2 * y, [x * y - 1], GREVLEX)
        assert qs == [x] and r == x

    def test_zero_dividend(self, rxy):
        x, y = rxy.gens()
        qs, r = divide_multi(rxy.zero(), [x * y - 1], GREVLEX)
        assert qs == [rxy.zero()] and r.is_zero

    def test_self_division(self, rxy):
        x, y = rxy.gens()
        g = x**2 + y - 3
        qs, r = divide_multi(g, [g], GREVLEX)
        assert qs == [rxy.one()] and r.is_zero

    @given(case=polys_over_fields(counts=(2, 4), max_terms=6, max_degree=4))
    @settings(max_examples=200, deadline=None)
    def test_reconstruction(self, case):
        """p = sum q_i g_i + r with no term of r divisible by a leading
        monomial, over QQ and GF(p) in lex and grevlex; and the quotients and
        remainder are term for term those of the plain-dict division that
        uses the same first-divisor rule."""
        r, order, (p, *divisors) = case
        divisors = [d for d in divisors if not d.is_zero]
        assume(divisors)
        qs, rem = _assert_matches_naive(p, divisors, order)
        lead_monos = [d.leading(order)[0] for d in divisors]
        assert not any(mono_divides(lm, m) for lm in lead_monos for m in rem.terms)

    # the kernel packs 8-bit exponent fields at first, then 16, 32, 64, 128
    @pytest.mark.parametrize("e", [2**31 - 1, 2**31, 2**32 + 1, 2**64])
    @pytest.mark.parametrize("order", [LEX, GREVLEX], ids=["lex", "grevlex"])
    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
    def test_wide_exponents(self, e, order, field):
        r = ring("x", "y", "z", field=field)
        x, y, z = r.gens()
        p = 3 * x**e * y**2 - x ** (e - 1) * y * z**e + 5 * z ** (e + 1) - 2
        # few division steps under both orders, and exponents past 2**e
        _assert_matches_naive(p, [x**e - y**3, y * z - 1], order)
        _assert_matches_naive(p, [x ** (e - 1) * y * z - 1, z**e - y], order)
        # a divisor wider than the dividend widens the fields too
        _assert_matches_naive(x * y * z + y**2, [x**e * y - 1, y * z + 1], order)

    @pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["QQ", "GF101"])
    def test_lex_exponents_outgrow_the_input(self, field):
        """Under lex, x^2 by x - y^200 leaves y^400, past the 8-bit fields
        that the inputs fit in; the kernel widens and stays exact."""
        r = ring("x", "y", field=field)
        x, y = r.gens()
        _, rem = _assert_matches_naive(x**2 + x * y, [x - y**200], LEX)
        assert rem == y**400 + y**201
        # y^508 appears, then y^761, which y^3 - 1 brings back down
        _assert_matches_naive(x**3 * y**2 - 7, [x * y**2 - y**255, y**3 - 1], LEX)

    @pytest.mark.parametrize("order", [LEX, GREVLEX], ids=["lex", "grevlex"])
    def test_rationals_divide_exactly(self, order):
        """Over QQ the kernel divides on integers: dividend and divisors
        with non-unit content, negative leading coefficients and large
        denominators still give the exact quotients and remainder."""
        rng = random.Random(26)
        r = ring("x", "y", "z")
        monos = [(a, b, c) for a in range(4) for b in range(4) for c in range(3)]

        def rand_poly(terms):
            big = 10**rng.randint(1, 30)
            return MultiPoly(r, {m: Fraction(rng.randint(-big, big), rng.randint(1, big))
                                 for m in rng.sample(monos, terms)})

        for _ in range(40):
            p = rand_poly(rng.randint(1, 8))
            divisors = [rand_poly(rng.randint(1, 4)).scale(
                Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**12), rng.randint(1, 10**9)))
                for _ in range(rng.randint(1, 3))]
            _assert_matches_naive(p, [d for d in divisors if not d.is_zero] or [r.one()],
                                  order)


def _assert_matches_naive(p, divisors, order):
    """divide_multi against the plain-dict division: equal quotients and
    remainder, term for term, and p = sum(q_i * g_i) + r.  The
    remainder-only path (reduce_mod) gives the same remainder."""
    qs, rem = divide_multi(p, divisors, order)
    ref_qs, ref_rem = divide(dict(p.terms), [dict(d.terms) for d in divisors],
                             ORDER_KEYS[order.kind], p.ring.field.char)
    assert [q.terms for q in qs] == ref_qs
    assert rem.terms == ref_rem
    assert sum((q * d for q, d in zip(qs, divisors)), rem) == p
    assert reduce_mod(p, divisors, order) == rem
    assert divide_multi(p, divisors, order, quotients=False) == (None, rem)
    return qs, rem


class TestPower:
    @pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(101)])
    def test_matches_repeated_multiplication(self, field):
        r = ring("x", "y", field=field)
        x, y = r.gens()
        for p in (2 * x * y - x + 3, x, r.zero(), r.const(5), (x**2 * y).scale(Fraction(-2, 3))):
            expected = r.one()
            for k in range(13):
                assert p**k == expected
                expected = expected * p

    def test_negative_exponent_rejected(self, rxy):
        with pytest.raises(ValueError):
            rxy.var("x") ** -1


# univariate coefficients (numerator, denominator), lowest degree first;
# no denominator is a multiple of 7 or 101
_UPOLY = st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 6)), max_size=6)


def _upoly(r, coeffs):
    x = r.var("x")
    return sum((r.const(Fraction(a, d)) * x**i for i, (a, d) in enumerate(coeffs)), r.zero())


def _dense_coeffs(f) -> list:
    """Coefficients of f in x, highest degree first; [] for zero."""
    assert set(f.variables_present()) <= {"x"}, f"not univariate in x: {f}"
    return [f.terms.get((i,) + (0,) * (f.ring.nvars - 1), f.ring.field.zero)
            for i in range(f.degree_in("x"), -1, -1)]


def _euclid_gcd(p, q):
    """The monic gcd by Euclid over the field, one LEX remainder per step."""
    while not q.is_zero:
        p, q = q, reduce_mod(p, [q], LEX)
    return p.monic(LEX)


def _assert_gcd_matches(p, q, v):
    g = gcd_univariate(p, q, v)
    assert g == _euclid_gcd(p, q)
    return g


class TestUnivariateGcd:
    def test_dense_coeffs_rejects_other_variables(self, rxy):
        x, y = rxy.gens()
        assert _dense_coeffs(2 * x - 1) == [2, -1]
        with pytest.raises(AssertionError):
            _dense_coeffs(x - 1 + y)

    def test_euclid(self, rxy):
        x, _ = rxy.gens()
        assert gcd_univariate(x**3 - 1, x - 1, "x") == x - 1

    def test_power(self, rxy):
        x, _ = rxy.gens()
        assert gcd_univariate(x**4, x, "x") == x

    def test_coprime_fiber_coefficients(self, rxy):
        # gcd(lam^n*y - 1, 1 - lam) = 1 for lam not in {0, 1}
        _, y = rxy.gens()
        lam = rxy.const(3)
        assert gcd_univariate(lam**2 * y - 1, 1 - lam, "y") == rxy.one()

    def test_both_zero_rejected(self, rxy):
        with pytest.raises(ZeroPolynomialError):
            gcd_univariate(rxy.zero(), rxy.zero(), "x")
        r7 = ring("x", "y", field=PrimeField(7))
        with pytest.raises(ZeroPolynomialError):
            gcd_univariate(r7.zero(), r7.zero(), "x")

    def test_not_univariate_rejected(self, rxy):
        x, y = rxy.gens()
        with pytest.raises(ValueError):
            gcd_univariate(x * y - 1, x - 1, "x")

    @pytest.mark.parametrize("field", FIELDS)
    def test_linear_divisors(self, field):
        r = ring("x", "y", field=field)
        x, _ = r.gens()
        for lam in (Fraction(2, 3), Fraction(-5), Fraction(1, 5), Fraction(3, 2)):
            c = r.const(lam)
            for n in (1, 2, 7, 60):
                for p, q in [(c * x**n, 1 - c - x), (c * x**n - 1, 1 - x),
                             (x**n - 1, 3 * x - 3), (c * x**n - 1, c * x - 1),
                             ((x - c) * (x + 2) ** n, 2 * x - 2 * c)]:
                    _assert_gcd_matches(p, q, "x")
                    _assert_gcd_matches(q, p, "x")

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n, m", [(6, 4), (60, 45), (97, 3), (500, 300), (500, 499)])
    def test_sparse_high_degree(self, field, n, m):
        """x^n - c^n against x^m - c^m and x - c; over QQ the gcd is
        x^gcd(n, m) - c^gcd(n, m)."""
        r = ring("x", "y", field=field)
        x, _ = r.gens()
        for c in (Fraction(2, 3), Fraction(-7, 5), Fraction(1)):
            cn, cm = r.const(c**n), r.const(c**m)
            g = _assert_gcd_matches(x**n - cn, x**m - cm, "x")
            _assert_gcd_matches(x**n - cn, x - r.const(c), "x")
            _assert_gcd_matches(x**m - cm, n * x ** (n - 1), "x")
            if field == QQ:
                k = math.gcd(n, m)
                assert g == x**k - r.const(c**k)

    @pytest.mark.parametrize("field", FIELDS)
    def test_constants_and_zero_operand(self, field):
        r = ring("x", "y", field=field)
        x, _ = r.gens()
        p = r.const(Fraction(3, 5)) * x**3 - r.const(Fraction(9, 4)) * x + 2
        for a, b in [(r.const(Fraction(3, 2)), p), (p, r.const(5)), (r.zero(), p),
                     (p, r.zero()), (r.zero(), r.const(Fraction(-2, 3))),
                     (r.const(4), r.const(6)), (r.zero(), 2 * x - 3)]:
            g = _assert_gcd_matches(a, b, "x")
            assert g.ring == r
        assert gcd_univariate(r.zero(), p, "x") == p.monic(LEX)
        assert gcd_univariate(r.const(4), r.zero(), "x") == r.one()

    def test_rational_result_is_monic_fraction(self, rxy):
        x, _ = rxy.gens()
        g = gcd_univariate((3 * x - 2) * (x**2 + 1) * Fraction(5, 7),
                           (6 * x - 4) * (x + 4).scale(Fraction(1, 3)), "x")
        assert g == x - rxy.const(Fraction(2, 3))
        assert all(type(c) is Fraction for c in g.terms.values())

    @given(field=st.sampled_from(FIELDS), common=_UPOLY, a=_UPOLY, b=_UPOLY)
    @settings(max_examples=200, deadline=None)
    def test_matches_euclid_over_the_field(self, field, common, a, b):
        """Products with a shared factor, non-monic rational coefficients
        included, against Euclid over the field itself."""
        r = ring("x", "y", field=field)
        p, q = (_upoly(r, common) * _upoly(r, c) for c in (a, b))
        assume(not p.is_zero or not q.is_zero)
        _assert_gcd_matches(p, q, "x")

    @given(field=st.sampled_from(FIELDS), common=_UPOLY, a=_UPOLY, b=_UPOLY)
    @settings(max_examples=100, deadline=None)
    def test_matches_sympy(self, field, common, a, b):
        sympy = pytest.importorskip("sympy")
        r = ring("x", "y", field=field)
        p, q = (_upoly(r, common) * _upoly(r, c) for c in (a, b))
        assume(not p.is_zero or not q.is_zero)
        domain = {"domain": "QQ"} if field == QQ else {"modulus": field.p}
        sp, sq = (sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                              for c in _dense_coeffs(f)] or [0],
                             sympy.Symbol("x"), **domain) for f in (p, q))
        expected = [Fraction(int(c.p), int(c.q)) if field == QQ else int(c) % field.p
                    for c in sp.gcd(sq).monic().all_coeffs()]
        assert _dense_coeffs(gcd_univariate(p, q, "x")) == expected


class TestSquarefree:
    def test_pure_power(self, rxy):
        x, _ = rxy.gens()
        assert squarefree_part(x**3, "x") == x

    def test_mixed_multiplicity(self, rxy):
        x, _ = rxy.gens()
        p = (x - 1) ** 2 * (x + 1)
        assert squarefree_part(p, "x") == x**2 - 1

    def test_already_squarefree(self, rxy):
        x, _ = rxy.gens()
        p = 3 * x**4 - 1
        assert squarefree_part(p, "x") == p.scale(am.QQ.inv(3))

    def test_root_counts(self, rxy):
        x, _ = rxy.gens()
        assert distinct_root_count(5 * x**3 - 1, "x") == 3
        assert distinct_root_count(rxy.const(7), "x") == 0
        assert distinct_root_count(x**5, "x") == 1

    def test_additivity_on_coprime_factors(self, rxy):
        x, _ = rxy.gens()
        p = x**2 * (x - 1)
        q = (x + 1) ** 3
        assert distinct_root_count(p * q, "x") == distinct_root_count(
            p, "x"
        ) + distinct_root_count(q, "x")

    def test_char_p_decides_high_degree(self):
        r5 = ring("x", "y", field=PrimeField(5))
        x, _ = r5.gens()
        assert distinct_root_count(x**5 - x, "x") == 5
        assert distinct_root_count(x**5, "x") == 1
        assert distinct_root_count(x**5 * (x - 1) ** 7, "x") == 2

    def test_char_p_zero_derivative(self):
        # x^6 + 2 = (x^2 - 1)^3 over GF(3): f' = 0, so rad f = rad(x^2 - 1)
        r3 = ring("x", "y", field=PrimeField(3))
        x, _ = r3.gens()
        f = x**6 + 2
        assert squarefree_part(f, "x") == x**2 - 1
        assert squarefree_part(x**9, "x") == x

    def test_char_p_mixed_multiplicities(self):
        r5 = ring("x", "y", field=PrimeField(5))
        x, _ = r5.gens()
        f = x * (x - 1) ** 2 * (x - 2) ** 3 * (x**2 + 2) ** 4
        assert squarefree_part(f, "x") == x * (x - 1) * (x - 2) * (x**2 + 2)

    def test_char_p_multiplicity_divisible_by_p(self):
        # (x-1)^3 has zero derivative in GF(3) and hides from f / gcd(f, f')
        r3 = ring("x", "y", field=PrimeField(3))
        x, _ = r3.gens()
        f = (x - 1) ** 3 * (x + 1)
        assert squarefree_part(f, "x") == x**2 - 1
        f = (x - 1) ** 6 * x**2 * (x + 1) ** 9
        assert squarefree_part(f, "x") == x * (x**2 - 1)

    @given(
        char=st.sampled_from([0, 2, 3, 5, 7]),
        factors=st.lists(
            st.tuples(st.lists(st.integers(0, 6), min_size=1, max_size=4),
                      st.integers(1, 10)),
            min_size=1, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_char_p_matches_sympy(self, char, factors):
        """Products of powers of random polynomials against sympy's
        squarefree decomposition over GF(p), and over QQ (char 0)."""
        sympy = pytest.importorskip("sympy")
        r = ring("x", "y", field=PrimeField(char) if char else QQ)
        x, _ = r.gens()
        f = r.one()
        for coeffs, e in factors:
            f = f * sum((c * x**i for i, c in enumerate(coeffs)), r.zero()) ** e
        assume(not f.is_zero)
        dense = _dense_coeffs(f)
        domain = {"modulus": char} if char else {"domain": "QQ"}
        _, parts = sympy.Poly(dense, sympy.Symbol("x"), **domain).sqf_list()
        assert distinct_root_count(f, "x") == sum(g.degree() for g, _ in parts)

    def test_char_p_low_degree_ok(self):
        r5 = ring("x", "y", field=PrimeField(5))
        x, _ = r5.gens()
        assert distinct_root_count(x**2, "x") == 1


class TestLinearDecompose:
    def test_common_factor_x(self, rxy):
        x, y = rxy.gens()
        assert linear_decompose(x**3 * y - x, "y") == (x, x**2, -rxy.one())

    def test_reducible_unit_fiber(self, rxyu):
        x, y, u = rxyu.gens()
        common, c_prime, d_prime = linear_decompose(u * (x**3 - 1) - (x - 1), "u")
        assert common == x - 1
        assert c_prime == x**2 + x + 1
        assert d_prime == -rxyu.one()

    def test_zero_constant_part(self, rxyu):
        x, y, u = rxyu.gens()
        common, c_prime, d_prime = linear_decompose(u * (y - 1), "u")
        assert common == y - 1 and c_prime == rxyu.one() and d_prime.is_zero

    def test_not_linear_rejected(self, rxy):
        x, y = rxy.gens()
        with pytest.raises(ValueError):
            linear_decompose(x**2 * y**2 - 1, "y")

    def test_non_univariate_coefficients_rejected(self):
        r = ring("x", "y", "u")
        x, y, u = r.gens()
        with pytest.raises(ValueError):
            linear_decompose(u * (x * y - 1) - x, "u")

    @pytest.mark.parametrize("field", FIELDS)
    def test_reconstruction_and_coprimality(self, field):
        """Non-integer rational scales and a shared factor, so that c/g and
        d/g must be rescaled to the leading coefficients of c and d."""
        rng = random.Random(7)
        from conftest import random_poly

        small, r = ring("x", field=field), ring("x", "y", field=field)
        x, y = r.gens()
        for _ in range(50):
            shared = (x - Fraction(1, 3)) ** rng.randint(0, 2)
            c, d = (in_ring(random_poly(rng, small, max_terms=3, max_exp=3), r)
                    .scale(s) * shared for s in (Fraction(3, 5), Fraction(-2, 9)))
            if c.is_zero:
                continue
            p = c * y + d
            common, c_prime, d_prime = linear_decompose(p, "y")
            assert common * (c_prime * y + d_prime) == p
            if not (c_prime.is_constant() and d_prime.is_constant()):
                g = gcd_univariate(c_prime, d_prime, "x")
                assert g == r.one()


    @given(field=st.sampled_from([QQ, PrimeField(7)]),
           abcd=st.lists(st.fractions(-3, 3, max_denominator=3), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_linear_variable_does_not_change_the_verdict(self, field, abcd):
        """p = a*x*y + b*x + c*y + d has a nonconstant common factor in both
        decompositions exactly when ad = bc, so linear_form's choice of
        variable cannot change a verdict; both c' have one degree, so its
        first variable is also the one of least c' degree."""
        r = ring("x", "y", field=field)
        x, y = r.gens()
        a, b, c, d = (r.const(e) for e in abcd)
        p = a * x * y + b * x + c * y + d
        assume(p.degree_in("x") == 1 and p.degree_in("y") == 1)
        (common_x, c_x, _), (common_y, c_y, _) = (linear_decompose(p, v) for v in "xy")
        assert common_x.is_constant() == common_y.is_constant() == (a * d != b * c)
        assert max(map(sum, c_x.terms)) == max(map(sum, c_y.terms))


class TestNegativeWeightMonomials:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_negative_weight_forces_y_factor(self, m):
        # any monomial x^i*y^j with i - m*j < 0 must have j >= 1
        for i in range(13):
            for j in range(13):
                if i - m * j < 0:
                    assert j >= 1
