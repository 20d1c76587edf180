"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Rational coefficients are plain ``fractions.Fraction`` values (always reduced
to lowest terms), prime field elements are ints in ``range(p)``.  A field
object bundles the arithmetic so polynomial code stays field-agnostic.
"""

from __future__ import annotations

from argparse import ArgumentTypeError
from dataclasses import dataclass
from fractions import Fraction

# Miller-Rabin with the first 13 primes as bases is deterministic below
# PRIME_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < PRIME_LIMIT."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality is only decided below {PRIME_LIMIT}: {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rationals, characteristic 0."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def pow(self, a, n: int):
        return a**n

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime p; elements are ints reduced mod p."""

    p: int
    zero = 0
    one = 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"not a prime: {self.p}")

    @property
    def char(self) -> int:
        return self.p

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def pow(self, a, n: int):
        return pow(a, n, self.p)

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def scalar_from_rational(field, value):
    """Coerce an int or Fraction into the given field; anything else is a TypeError."""
    if isinstance(value, int):
        return field.from_int(value)
    if isinstance(value, Fraction):
        if isinstance(field, RationalField):
            return value
        return field.mul(
            field.from_int(value.numerator), field.inv(field.from_int(value.denominator))
        )
    raise TypeError(f"not an exact scalar: {type(value).__name__} {value!r}")


class FieldSpecError(ValueError, ArgumentTypeError):
    """A field spec naming no supported field.  As an ArgumentTypeError,
    argparse reports it as a usage error and keeps its message."""


def field_from_spec(spec: str):
    """Parse a field spec string: "rational" or "fp:P" for a prime P.  It is
    the argparse type of --field."""
    if spec == "rational":
        return QQ
    if spec.startswith("fp:"):
        try:
            return PrimeField(int(spec[3:]))
        except ValueError as e:
            raise FieldSpecError(f"bad field spec {spec!r}: {e}") from None
    raise FieldSpecError(f"unrecognized field spec: {spec!r}")
