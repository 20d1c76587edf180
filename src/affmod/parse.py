"""Text format for polynomials and fractions.

Grammar (whitespace-insensitive, '#' starts a comment in fixture files):

    fraction := poly ('/' poly)?             ('/' only at the top level)
    poly     := term (('+' | '-') term)*
    term     := unary ('*' unary)*
    unary    := '-' unary | power
    power    := atom ('^' INT)?
    atom     := INT | IDENT | '(' poly ')'

Multiplication is always explicit ("x*y", never "xy") and exponents are
non-negative integer literals.  Coefficients are integers of any length in
the surface syntax; rational coefficients only arise from arithmetic and are
printed, not re-parseable.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction

from .poly import GREVLEX, MultiPoly, Ring

_DIGITS = "0123456789"
_SYMBOLS = ("+", "-", "*", "/", "^", "(", ")")


class ParseError(ValueError):
    """Syntax or semantic error, carrying the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# int() and str() refuse more decimal digits than sys.get_int_max_str_digits(),
# a process-wide limit of at least 640; decimal converts any length exactly.
# 2000 bits are at most 603 digits.
def _read_int(digits: str) -> int:
    return int(digits) if len(digits) <= 640 else int(Decimal(digits))


def _int_text(n: int) -> str:
    """The decimal digits of n, in time subquadratic in their number.

    str(Decimal(n)) is quadratic.  Past 2000 bits n is split at a power of
    two, and the halves are joined as Decimals, n = lo + hi * 2**k, whose
    products are subquadratic (the method of CPython 3.12's
    _pylong.int_to_decimal).  Each power 2**k is built once."""
    if n.bit_length() <= 2000:
        return str(n)
    powers = {}

    def two_to(k: int) -> Decimal:
        if k not in powers:
            powers[k] = (Decimal(2) ** k if k <= 2000
                         else two_to(k // 2) * two_to(k - k // 2))
        return powers[k]

    def to_decimal(m: int, bits: int) -> Decimal:  # 0 <= m < 2**bits
        if bits <= 2000:
            return Decimal(m)
        k = bits // 2
        hi = m >> k
        return to_decimal(m - (hi << k), k) + to_decimal(hi, bits - k) * two_to(k)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True
        text = str(to_decimal(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def tokenize(text: str) -> list:
    """(text, position) pairs, ending in ("", len(text))."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "#":
            break
        # ASCII digits only: isdigit also takes superscripts, which int()
        # rejects, and other scripts' digits, which int() reads as ASCII ones
        elif ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append((text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((text[i:j], i))
            i = j
        elif ch in _SYMBOLS:
            tokens.append((ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list, ring: Ring):
        self.tokens = tokens
        self.ring = ring
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def next(self) -> tuple:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_end(self):
        text, pos = self.tokens[self.i]
        if text == "/":
            raise ParseError("'/' is only allowed once, at the top of a fraction", pos)
        if text:
            raise ParseError(f"unexpected {text!r}", pos)

    def poly(self) -> MultiPoly:
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> MultiPoly:
        out = self.unary()
        while self.peek() == "*":
            self.i += 1
            out = out * self.unary()
        return out

    def unary(self) -> MultiPoly:
        if self.peek() == "-":
            self.i += 1
            return -self.unary()
        return self.power()

    def power(self) -> MultiPoly:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.i += 1
        text, pos = self.next()
        if text == "-":
            raise ParseError("negative exponent", pos)
        if not text.isdigit():
            raise ParseError("exponent must be an integer literal", pos)
        return base ** _read_int(text)

    def atom(self) -> MultiPoly:
        text, pos = self.next()
        if text.isdigit():
            return self.ring.const(_read_int(text))
        if text in self.ring.variables:
            return self.ring.var(text)
        if text == "(":
            inner = self.poly()
            close, at = self.next()
            if close != ")":
                raise ParseError("expected ')'", at)
            return inner
        if text in _SYMBOLS or not text:
            raise ParseError(f"unexpected {text or 'end of input'!r}", pos)
        raise ParseError(f"unknown variable {text!r}", pos)


def _parse(text: str, ring: Ring, fraction: bool):
    """Numerator, then '/' and a denominator if fraction is set and one
    follows, then end of input.  Returns (numerator, slash position or None,
    denominator or None)."""
    parser = _Parser(tokenize(text), ring)
    try:
        num = parser.poly()
        slash = den = None
        if fraction and parser.peek() == "/":
            slash = parser.next()[1]
            den = parser.poly()
        parser.expect_end()
    except RecursionError:
        at = parser.tokens[min(parser.i, len(parser.tokens) - 1)][1]
        raise ParseError("expression nested too deeply", at) from None
    return num, slash, den


def parse_poly(text: str, ring: Ring) -> MultiPoly:
    """Parse a polynomial expression in the grammar above."""
    return _parse(text, ring, fraction=False)[0]


def parse_fraction(text: str, ring: Ring) -> tuple:
    """Parse "P" or "P/Q" into (numerator, denominator), stored as written
    (no reduction); the denominator defaults to 1."""
    num, slash, den = _parse(text, ring, fraction=True)
    if slash is None:
        return num, ring.one()
    if den.is_zero:
        raise ParseError("zero denominator", slash)
    return num, den


# -- printing ---------------------------------------------------------------


def _format_scalar(c) -> str:
    if not isinstance(c, Fraction):
        return _int_text(c)
    if c.denominator == 1:
        return _int_text(c.numerator)
    return f"{_int_text(c.numerator)}/{_int_text(c.denominator)}"


def _format_mono(ring: Ring, mono) -> str:
    parts = []
    for name, e in zip(ring.variables, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{_int_text(e)}")
    return "*".join(parts)


def format_poly(p: MultiPoly) -> str:
    """Deterministic rendering; inverse of parse_poly on integer coefficients."""
    if p.is_zero:
        return "0"
    pieces = []
    for m in sorted(p.terms, key=GREVLEX.key):
        mono_str = _format_mono(p.ring, m)
        mag = _format_scalar(p.terms[m])
        negative = mag.startswith("-")
        if negative:
            mag = mag[1:]
        if mono_str and mag == "1":
            body = mono_str
        elif mono_str:
            body = f"{mag}*{mono_str}"
        else:
            body = mag
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
