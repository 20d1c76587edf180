"""Text format for polynomials and fractions.

Grammar (whitespace-insensitive, '#' starts a comment in fixture files):

    fraction := poly ('/' poly)?             ('/' only at the top level)
    poly     := term (('+' | '-') term)*
    term     := unary ('*' unary)*
    unary    := '-' unary | power
    power    := atom ('^' INT)?
    atom     := INT | IDENT | '(' poly ')'

Multiplication is always explicit ("x*y", never "xy") and exponents are
non-negative integer literals.  Coefficients are integers in the surface
syntax; rational coefficients only arise from arithmetic and are printed,
not re-parseable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import GREVLEX, MultiPoly, Ring


class ParseError(ValueError):
    """Syntax or semantic error, carrying the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "ident" | "op" | "lparen" | "rparen" | "end"
    text: str
    pos: int


@dataclass(frozen=True)
class FractionExpr:
    """A polynomial fraction, stored as written (no automatic reduction)."""

    numerator: MultiPoly
    denominator: MultiPoly

    def __post_init__(self):
        if self.denominator.is_zero:
            raise ParseError("zero denominator", 0)


def tokenize(text: str) -> list:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            break
        # isdigit alone takes superscripts, which int() rejects, and other
        # scripts' digits, which int() reads as ASCII ones
        if ch.isascii() and ch.isdigit():
            j = i
            while j < n and text[j].isascii() and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token("rparen", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list, ring: Ring):
        self.tokens = tokens
        self.ring = ring
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_end(self):
        t = self.peek()
        if t.kind == "op" and t.text == "/":
            raise ParseError("'/' is only allowed once, at the top of a fraction", t.pos)
        if t.kind != "end":
            raise ParseError(f"unexpected {t.text!r}", t.pos)

    def poly(self) -> MultiPoly:
        out = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next()
            rhs = self.term()
            out = out + rhs if op.text == "+" else out - rhs
        return out

    def term(self) -> MultiPoly:
        out = self.unary()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.next()
            out = out * self.unary()
        return out

    def unary(self) -> MultiPoly:
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self) -> MultiPoly:
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.next()
            e = self.peek()
            if e.kind == "op" and e.text == "-":
                raise ParseError("negative exponent", e.pos)
            if e.kind != "int":
                raise ParseError("exponent must be an integer literal", e.pos)
            self.next()
            return base ** int(e.text)
        return base

    def atom(self) -> MultiPoly:
        t = self.next()
        if t.kind == "int":
            return self.ring.const(int(t.text))
        if t.kind == "ident":
            if t.text not in self.ring.variables:
                raise ParseError(f"unknown variable {t.text!r}", t.pos)
            return self.ring.var(t.text)
        if t.kind == "lparen":
            inner = self.poly()
            close = self.next()
            if close.kind != "rparen":
                raise ParseError("expected ')'", close.pos)
            return inner
        raise ParseError(f"unexpected {t.text or 'end of input'!r}", t.pos)


def _parse(text: str, ring: Ring, fraction: bool):
    """Numerator, then '/' and a denominator if fraction is set and one
    follows, then end of input.  Returns (numerator, slash token or None,
    denominator or None)."""
    parser = _Parser(tokenize(text), ring)
    try:
        num = parser.poly()
        slash = den = None
        t = parser.peek()
        if fraction and t.kind == "op" and t.text == "/":
            slash = parser.next()
            den = parser.poly()
        parser.expect_end()
    except RecursionError:
        at = parser.tokens[min(parser.i, len(parser.tokens) - 1)].pos
        raise ParseError("expression nested too deeply", at) from None
    return num, slash, den


def parse_poly(text: str, ring: Ring) -> MultiPoly:
    """Parse a polynomial expression in the grammar above."""
    return _parse(text, ring, fraction=False)[0]


def parse_fraction(text: str, ring: Ring) -> FractionExpr:
    """Parse "P" or "P/Q"; the denominator defaults to 1."""
    num, slash, den = _parse(text, ring, fraction=True)
    if slash is None:
        return FractionExpr(num, ring.one())
    if den.is_zero:
        raise ParseError("zero denominator", slash.pos)
    return FractionExpr(num, den)


# -- printing ---------------------------------------------------------------


def _format_scalar(c) -> str:
    if isinstance(c, Fraction) and c.denominator == 1:
        return str(c.numerator)
    return str(c)


def _format_mono(ring: Ring, mono) -> str:
    parts = []
    for name, e in zip(ring.variables, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(p: MultiPoly) -> str:
    """Deterministic rendering; inverse of parse_poly on integer coefficients."""
    if p.is_zero:
        return "0"
    monos = sorted(p.terms, key=GREVLEX.key)
    pieces = []
    one = p.ring.field.one
    for m in monos:
        c = p.terms[m]
        mono_str = _format_mono(p.ring, m)
        negative = _format_scalar(c).startswith("-")
        mag = _format_scalar(-c if negative else c)
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


def format_fraction(f: FractionExpr) -> str:
    if f.denominator == f.denominator.ring.one():
        return format_poly(f.numerator)
    return f"({format_poly(f.numerator)})/({format_poly(f.denominator)})"
