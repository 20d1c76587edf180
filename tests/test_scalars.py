import time
from fractions import Fraction

import pytest

from affmod import QQ, ring
from affmod.fibers import expected_fiber_class
from affmod.scalars import PRIME_LIMIT, PrimeField, field_from_spec, is_prime
from affmod.verifier import cmd_fibers

GF7 = PrimeField(7)


class TestPrimeField:
    def test_mersenne_61_builds_fast(self):
        t0 = time.perf_counter()
        assert PrimeField(2**61 - 1).p == 2**61 - 1
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("n", [
        3825123056546413051,  # 149491*747451*34233211, strong pseudoprime to bases 2..23
        2147483647 * 1073741789,
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        561, 4, 1, 0, -7,
    ])
    def test_composite_rejected(self, n):
        with pytest.raises(ValueError, match="not a prime"):
            PrimeField(n)

    def test_agrees_with_trial_division(self):
        for n in range(3000):
            assert is_prime(n) == (n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))), n

    def test_beyond_deterministic_range_rejected(self):
        with pytest.raises(ValueError, match="only decided below"):
            PrimeField(PRIME_LIMIT + 2)

    def test_field_spec(self):
        assert field_from_spec("rational") == QQ
        assert field_from_spec("fp:101") == PrimeField(101)
        for spec in ("fp:4", "fp:abc", "foo"):
            with pytest.raises(ValueError):
                field_from_spec(spec)


def test_field_constants_are_shared():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert QQ.zero == Fraction(0) and QQ.one == Fraction(1)
    assert (GF7.zero, GF7.one) == (0, 1)

class TestScalarCoercion:
    """int and Fraction scalars take one path into the coefficient field."""

    COERCIONS = {
        "add": (lambda x, c: x + c, (0,)),
        "mul": (lambda x, c: x * c, (1,)),
        "scale": (lambda x, c: x.scale(c), (1,)),
        "const": (lambda x, c: x.ring.const(c), (0,)),
    }

    @pytest.mark.parametrize("how", COERCIONS)
    def test_fraction_reduced_mod_p(self, how):
        make, mono = self.COERCIONS[how]
        x = ring("x", field=GF7).var("x")
        assert make(x, Fraction(1, 2)).terms[mono] == 4
        with pytest.raises(ZeroDivisionError):
            make(x, Fraction(1, 7))

    @pytest.mark.parametrize("how", COERCIONS)
    def test_rationals_unchanged(self, how):
        make, mono = self.COERCIONS[how]
        x = ring("x").var("x")
        assert make(x, Fraction(1, 2)).terms[mono] == Fraction(1, 2)
        assert make(x, Fraction(1, 7)).terms[mono] == Fraction(1, 7)

    @pytest.mark.parametrize("field", [QQ, GF7], ids=["QQ", "GF7"])
    @pytest.mark.parametrize("value", [0.5, "1", 1j], ids=["float", "str", "complex"])
    def test_inexact_scalar_is_type_error(self, field, value):
        with pytest.raises(TypeError, match=f"not an exact scalar: {type(value).__name__}"):
            ring("x", "y", field=field).const(value)

    @pytest.mark.parametrize("field", [QQ, GF7], ids=["QQ", "GF7"])
    def test_float_lambda_is_type_error(self, field):
        with pytest.raises(TypeError, match="not an exact scalar: float"):
            cmd_fibers(2, lambdas=[0.5], field=field)

    def test_expected_fiber_class_reduces_lambda(self):
        # 9/2 is 1 in GF(7), so the reducible x = 1 row applies
        assert expected_fiber_class(2, "x", Fraction(9, 2), GF7) == (
            expected_fiber_class(2, "x", 1, GF7)
        )
