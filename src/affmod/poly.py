"""Sparse multivariate polynomials over an exact field.

Polynomials are immutable maps from exponent vectors to nonzero coefficients.
Zero coefficients are never stored, so structural equality is semantic
equality.  Monomial orders (lex, grevlex) are key functions on exponent
tuples.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from operator import mul

from .scalars import QQ, scalar_from_rational

Monomial = tuple  # exponent vector, one entry per ring variable


class RingMismatchError(ValueError):
    pass


class ZeroPolynomialError(ValueError):
    pass


@dataclass(frozen=True)
class Ring:
    """An ambient polynomial ring: ordered variable names over a field."""

    variables: tuple
    field: object = dc_field(default_factory=lambda: QQ)

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if len(self.variables) > 8:
            raise ValueError("rings limited to 8 variables")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r} in ring {self.variables}")

    def var(self, name: str) -> "MultiPoly":
        e = [0] * self.nvars
        e[self.index(name)] = 1
        return MultiPoly(self, {tuple(e): self.field.one})

    def const(self, c) -> "MultiPoly":
        c = scalar_from_rational(self.field, c)
        zero_mono = (0,) * self.nvars
        return MultiPoly(self, {zero_mono: c})

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return self.const(1)

    def gens(self):
        return tuple(self.var(v) for v in self.variables)


def ring(*variables, field=QQ) -> Ring:
    return Ring(tuple(variables), field)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative order on monomials; kind is "lex" or "grevlex"."""

    kind: str

    def key(self, mono: Monomial):
        """A flat sort key whose minimum is the order-maximal monomial, so
        ascending keys list monomials largest first."""
        if self.kind == "lex":
            return tuple(-e for e in mono)
        if self.kind == "grevlex":
            return (-sum(mono),) + mono[::-1]
        raise ValueError(f"unknown order kind {self.kind!r}")


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


class MultiPoly:
    """Immutable sparse polynomial; terms map monomials to nonzero scalars.

    ``_lead`` caches the leading (monomial, coefficient) per order kind, so
    each polynomial scans its terms at most once per order, and ``_packed``
    its form as a divisor of ``divide_multi`` per order kind and width.
    """

    __slots__ = ("ring", "terms", "_hash", "_lead", "_packed")

    def __init__(self, ring: Ring, terms: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if c})
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_lead", None)

    # -- basic predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in m) for m in self.terms)

    def variables_present(self) -> tuple:
        present = [False] * self.ring.nvars
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    present[i] = True
        return tuple(v for v, p in zip(self.ring.variables, present) if p)

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"rings differ: {self.ring.variables} over {self.ring.field} "
                f"vs {other.ring.variables} over {other.ring.field}"
            )

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ring(other)
        f = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            old = out.get(m)
            out[m] = c if old is None else f.add(old, c)
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        f = self.ring.field
        return MultiPoly(self.ring, {m: f.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ring(other)
        f = self.ring.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = f.mul(c1, c2)
                old = out.get(m)
                out[m] = c if old is None else f.add(old, c)
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """A single term is raised directly, anything else by repeated
        squaring: about 2 log2(n) multiplications."""
        if n < 0:
            raise ValueError("negative exponent")
        if n and len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            return MultiPoly(self.ring, {tuple([e * n for e in m]): self.ring.field.pow(c, n)})
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return self.ring.one() if out is None else out

    def scale(self, c) -> "MultiPoly":
        f = self.ring.field
        c = scalar_from_rational(f, c)
        return MultiPoly(self.ring, {m: f.mul(cc, c) for m, cc in self.terms.items()})

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.ring, frozenset(self.terms.items())))
            )
        return self._hash

    def __repr__(self):
        from .parse import format_poly

        return f"MultiPoly({format_poly(self)!r})"

    def __str__(self):
        from .parse import format_poly

        return format_poly(self)

    # -- structure ----------------------------------------------------------

    def degree_in(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = self.ring.index(var)
        if self.is_zero:
            return -1
        return max(m[i] for m in self.terms)

    def coefficient_in(self, var: str, power: int) -> "MultiPoly":
        """The coefficient of var**power, as a polynomial in the same ring."""
        i = self.ring.index(var)
        out = {}
        for m, c in self.terms.items():
            if m[i] == power:
                mm = list(m)
                mm[i] = 0
                out[tuple(mm)] = c
        return MultiPoly(self.ring, out)

    def leading(self, order: MonomialOrder):
        """Order-maximal (monomial, coefficient) pair."""
        cache = self._lead
        if cache is None:
            cache = {}
            object.__setattr__(self, "_lead", cache)
        lead = cache.get(order.kind)
        if lead is None:
            if self.is_zero:
                raise ZeroPolynomialError("leading term of zero polynomial")
            m = min(self.terms, key=order.key)
            lead = cache[order.kind] = (m, self.terms[m])
        return lead

    def packed(self, order: MonomialOrder, width: int):
        """This polynomial as a divisor of the division kernel at one field
        width (``_pack_divisor``), built once per order kind and width."""
        cache = getattr(self, "_packed", None)  # set on first use only
        if cache is None:
            cache = {}
            object.__setattr__(self, "_packed", cache)
        key = (order.kind, width)
        if key not in cache:
            cache[key] = _pack_divisor(self, order, width)
        return cache[key]

    def monic(self, order: MonomialOrder = GREVLEX) -> "MultiPoly":
        if self.is_zero:
            return self
        _, c = self.leading(order)
        return self.scale(self.ring.field.inv(c))

    def substitute(self, bindings: dict, target: Ring = None) -> "MultiPoly":
        """Simultaneously substitute polynomials (or scalars) for variables.

        The result lies in target, by default this polynomial's own ring.
        Unbound variables are carried over by name into the target ring.
        """
        for name in bindings:
            self.ring.index(name)  # raises KeyError for unknown variables
        target = target or self.ring
        images = []
        for name in self.ring.variables:
            v = bindings.get(name)
            if v is None:
                images.append(target.var(name))
            elif isinstance(v, MultiPoly):
                if v.ring != target:
                    raise RingMismatchError("binding images in different rings")
                images.append(v)
            else:
                images.append(target.const(v))
        if target.field != self.ring.field:
            raise RingMismatchError("substitution across different fields")
        out = target.zero()
        for m, c in self.terms.items():
            term = target.const(c)
            for img, e in zip(images, m):
                if e:
                    term = term * img**e
            out = out + term
        return out


# -- module-level operations ------------------------------------------------


def divide_multi(p: MultiPoly, divisors, order: MonomialOrder):
    """Multivariate division: p = sum(q_i * g_i) + r, no monomial of r
    divisible by any divisor's leading monomial.

    Each step takes the largest monomial m left and divides by the first
    divisor whose leading monomial divides m; if none does, m goes to the
    remainder.  The working polynomial is a dict, and its monomials sit in
    a heap; a monomial whose coefficient cancels is skipped when popped.
    Monomials and coefficients are plain ints (Monagan and Pearce 2007,
    "Polynomial division using dynamic arrays, heaps, and packed exponent
    vectors"):

    * A monomial is its packed exponent vector P (``_layout``): one field of
      ``width`` bits plus a guard bit per variable, so lm | m is
      ((P_m | G) - P_lm) & G == G for the mask G of guard bits.  Heap and
      dict hold an additive order key instead, so a product of monomials is
      one int addition.
    * ``width`` starts at 8 bits and doubles until it holds the total degree
      of every term of p and of the divisors.  Under grevlex no exponent
      then outgrows it; under lex one can, and a popped monomial that has
      set a guard bit restarts the division at twice the width.  So
      exponents of any size stay exact.
    * Over GF(p) a coefficient is an int reduced mod p when its term is
      popped, and divisor tails are monic and negated.  Over QQ the kernel
      is fraction-free: each divisor is kappa*g' with g' primitive of
      leading coefficient L (``_pack_divisor``), and it keeps
      scale * (p - sum(q_i * g_i) - r) = W for the integer working
      polynomial W.  To divide a coefficient c by L, W and scale are first
      multiplied by L / gcd(c, L).  A remainder term c*m is then
      Fraction(c, scale)*m, and a quotient term c*m is
      Fraction(c, scale)/kappa*m, so quotients and remainder stay exact.

    The packed form of a divisor is cached on it (``MultiPoly.packed``).
    """
    divisors = list(divisors)
    if any(g.is_zero for g in divisors):
        raise ZeroPolynomialError("zero divisor in division")
    for g in divisors:
        p._check_ring(g)
    width = 8
    while max(map(sum, p.terms), default=0) >> width:
        width *= 2
    while (out := _divide_packed(p, divisors, order, width)) is None:
        width *= 2
    return out


def _divide_packed(p: MultiPoly, divisors: list, order: MonomialOrder, width: int):
    """divide_multi with exponent fields of the given width; None if an
    exponent does not fit."""
    heads = [g.packed(order, width) for g in divisors]
    if None in heads:
        return None
    ring_ = p.ring
    offsets, sign, weights = _layout(ring_.nvars, order.kind, width)
    mask = (1 << ring_.nvars * (width + 1)) - 1
    guard = sum([1 << o + width for o in offsets])
    leads = [head[0] for head in heads]
    char = ring_.field.char
    scale, terms = _int_terms(p)
    work = {sum(map(mul, m, weights)): c for m, c in terms.items()}
    heap = list(work)
    heapq.heapify(heap)
    pop, push, gcd = heapq.heappop, heapq.heappush, math.gcd
    # terms (P, c, scale at the step) of each quotient and of the remainder
    quotients = [[] for _ in divisors]
    remainder = []
    while heap:
        h = pop(heap)
        c = work.pop(h)  # products only add smaller keys: one entry per key
        if char:
            c %= char
        if not c:
            continue
        m = sign * h & mask
        if m & guard:
            return None
        m_guarded = m | guard
        for i, lead_m in enumerate(leads):
            if (m_guarded - lead_m) & guard == guard:
                break
        else:
            remainder.append((m, c, scale))
            continue
        _, lead_h, lead_c, tail, _, _ = heads[i]
        if lead_c != 1:
            d = gcd(c, lead_c)
            if d != lead_c:
                a = lead_c // d
                work = {k: a * e for k, e in work.items()}
                scale *= a
            c //= d
        quotients[i].append((m - lead_m, c, scale))
        qh = h - lead_h
        for th, tc in tail:
            nh = qh + th
            old = work.get(nh)
            if old is None:
                work[nh] = c * tc
                push(heap, nh)
            else:
                work[nh] = old + c * tc
    field_mask = (1 << width + 1) - 1

    def terms_of(triples, num, den):
        if char:
            return {tuple([m >> o & field_mask for o in offsets]): c * num % char
                    for m, c, _ in triples}
        return {tuple([m >> o & field_mask for o in offsets]): Fraction(c * num, s * den)
                for m, c, s in triples}

    return ([MultiPoly(ring_, terms_of(q, num, den))
             for q, (*_, num, den) in zip(quotients, heads)],
            MultiPoly(ring_, terms_of(remainder, 1, 1)))


def _layout(nvars: int, kind: str, width: int) -> tuple:
    """How monomials pack at one field width: (offsets, sign, weights).

    The packed exponent vector P of a monomial has one field of width + 1
    bits per variable, at the bit offsets given; the top bit of a field is
    a guard bit, clear while the exponent fits in width bits.  x_1 has the
    highest field under lex and the lowest under grevlex, so that P orders
    like lex, and like grevlex among monomials of one degree.  The key of a
    monomial, the dot product of its exponents with the weights, is -P
    under lex and P - (degree << nvars*(width + 1)) under grevlex.  Keys
    add as monomials multiply, a smaller key is a larger monomial, and P is
    (sign * key) & (2**(nvars*(width + 1)) - 1).
    """
    offsets = [(width + 1) * i for i in range(nvars)]
    if kind == "lex":
        offsets.reverse()
        return offsets, -1, [-1 << o for o in offsets]
    if kind == "grevlex":
        top = 1 << nvars * (width + 1)
        return offsets, 1, [(1 << o) - top for o in offsets]
    raise ValueError(f"unknown order kind {kind!r}")


def _int_terms(f: MultiPoly) -> tuple:
    """(d, the terms of d*f) for the least common denominator d of f's
    coefficients over QQ; (1, f's terms) over GF(p)."""
    if f.ring.field.char:
        return 1, f.terms
    d = math.lcm(*[c.denominator for c in f.terms.values()])
    return d, {m: c.numerator * (d // c.denominator) for m, c in f.terms.items()}


def _pack_divisor(g: MultiPoly, order: MonomialOrder, width: int):
    """g as a divisor of the division kernel: (P and key of its leading
    monomial, leading coefficient L of its integer form, tail, num, den);
    None if the total degree of a term of g needs more than width bits.

    The tail lists (key, -c) for the other terms c*m of the integer form.
    Over GF(p) that form is g/lc, so L = 1; over QQ it is the primitive g'
    with g = kappa*g' and L > 0.  A kernel coefficient c at scale s stands
    for the quotient coefficient c*num / (s*den): num/den is 1/lc over GF(p)
    and 1/kappa over QQ.
    """
    if max(map(sum, g.terms)) >> width:
        return None
    lm, lc = g.leading(order)
    offsets, _, weights = _layout(g.ring.nvars, order.kind, width)
    char = g.ring.field.char
    if char:
        num, den, lead_c = pow(lc, -1, char), 1, 1
        tail = [(sum(map(mul, m, weights)), -c * num % char)
                for m, c in g.terms.items() if m != lm]
    else:
        num, terms = _int_terms(g)
        den = math.gcd(*terms.values()) * (1 if lc > 0 else -1)
        lead_c = terms[lm] // den
        tail = [(sum(map(mul, m, weights)), -c // den)
                for m, c in terms.items() if m != lm]
    return (sum([e << o for e, o in zip(lm, offsets)]), sum(map(mul, lm, weights)),
            lead_c, tail, num, den)


def reduce_mod(p: MultiPoly, divisors, order: MonomialOrder) -> MultiPoly:
    """Remainder of multivariate division (quotients discarded)."""
    return divide_multi(p, divisors, order)[1]


def exact_div(p: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact quotient p/g; raises if g does not divide p."""
    qs, r = divide_multi(p, [g], GREVLEX)
    if not r.is_zero:
        raise ValueError("division is not exact")
    return qs[0]


def _dense(p: MultiPoly, v: str) -> list:
    """Coefficient list of p in v, lowest degree first and without leading
    zeros: reduced ints over GF(char), integers with the denominators cleared
    over QQ.  The univariate layer runs on such lists."""
    extra = [w for w in p.variables_present() if w != v]
    if extra:
        raise ValueError(f"not univariate in {v!r}: also involves {extra}")
    i = p.ring.index(v)
    terms = _int_terms(p)[1]
    coeffs = [0] * (max((m[i] for m in terms), default=-1) + 1)
    for m, c in terms.items():
        coeffs[m[i]] = c
    return coeffs


def _poly(a: list, lc, ring_: Ring, v: str) -> MultiPoly:
    """The polynomial in v with the nonzero coefficient list a, scaled to
    leading coefficient lc."""
    char = ring_.field.char
    terms = [(k, c) for k, c in enumerate(a) if c]
    if char:
        s = lc * pow(a[-1], -1, char) % char
        terms = [(k, c * s % char) for k, c in terms]
    else:  # one normalisation per coefficient
        s = Fraction(lc, a[-1])
        terms = [(k, Fraction(c * s.numerator, s.denominator)) for k, c in terms]
    zero = (0,) * ring_.nvars
    i = ring_.index(v)
    return MultiPoly(ring_, {zero[:i] + (k,) + zero[i + 1:]: c for k, c in terms})


def _normalize(a: list, char: int) -> list:
    """The primitive part of a over ZZ (char 0), its monic multiple over
    GF(char)."""
    if char:
        inv = pow(a[-1], -1, char)
        return [c * inv % char for c in a]
    g = math.gcd(*a)
    return [c // g for c in a]


def _divide(a: list, b: list, char: int):
    """Quotient and remainder (q, r) of a by b: a = q*b + r over GF(char).
    Over ZZ (char 0) s*a = q*b + r for a nonzero integer s, and s = 1 when b
    is primitive and divides a over QQ (Gauss's lemma)."""
    r, db, lb = a[:], len(b) - 1, b[-1]
    q = [0] * max(len(a) - db, 0)
    inv = pow(lb, -1, char) if char else None
    while len(r) > db:
        la = r.pop()
        if not la:
            continue
        shift = len(r) - db
        if char:
            c = q[shift] = la * inv % char
            for k in range(db):
                r[shift + k] = (r[shift + k] - c * b[k]) % char
            continue
        c, rem = divmod(la, lb)
        if rem:  # scale by lb, so that lb divides the leading coefficient
            c = la
            r = [lb * e for e in r]
            q = [lb * e for e in q]
        q[shift] = c
        for k in range(db):
            r[shift + k] -= c * b[k]
    while r and not r[-1]:
        r.pop()
    return q, r


def _mul(a: list, b: list, char: int) -> list:
    """The product of two nonzero lists over GF(char)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, e in enumerate(b):
            out[i + j] += c * e
    return [c % char for c in out]


def _vanishes_at_root(a: list, b: list, char: int) -> bool:
    """Whether the linear b = b1*v + b0 divides a, by the remainder theorem:
    a(-b0/b1) = 0, evaluated from a's nonzero coefficients."""
    (b0, b1), d = b, len(a) - 1
    if char:
        root = -b0 * pow(b1, -1, char)
        return not sum(c * pow(root, k, char) for k, c in enumerate(a) if c) % char
    # b1^d * a(-b0/b1), kept in integers
    return not sum(c * (-b0) ** k * b1 ** (d - k) for k, c in enumerate(a) if c)


def _gcd(a: list, b: list, char: int) -> list:
    """The gcd of two lists, not both zero: primitive over ZZ, monic over
    GF(char), and [1] for coprime lists.

    Euclid over ZZ runs on primitive parts and pseudo-remainders (the
    primitive PRS; Collins 1967, Brown 1971), over GF(p) on monic
    remainders.  A linear divisor ends it by the remainder theorem.
    """
    while b:
        b = _normalize(b, char)
        if len(b) == 1:
            return [1]
        if len(b) == 2:
            return b if _vanishes_at_root(a, b, char) else [1]
        a, b = b, _divide(a, b, char)[1]
    return _normalize(a, char)


def _squarefree(a: list, char: int) -> list:
    """The product of the distinct irreducible factors of a nonzero list,
    primitive over ZZ and monic over GF(char).

    Over GF(q) a factor whose multiplicity q divides has zero derivative, so
    it stays whole in gcd(a, a') and is taken from there; if a' = 0, then
    a = g(v^q) = g(v)^q, since c^q = c on GF(q) (Yun 1976; Knuth, TAOCP
    vol. 2, 4.6.2).
    """
    if len(a) <= 1:
        return [1]
    da = [k * c % char if char else k * c for k, c in enumerate(a)][1:]
    while da and not da[-1]:
        da.pop()
    if not da:
        return _squarefree(a[::char], char)
    g = _gcd(a, da, char)
    part = _normalize(_divide(a, g, char)[0], char)
    if char:
        # strip the factors of part from g, doubling the powers taken each
        # round; what is left is the q-th power of the factors part lacks
        w = _gcd(part, g, char)
        while len(w) > 1:
            g = _divide(g, w, char)[0]
            w = _gcd(_mul(w, w, char), g, char)
        part = _mul(part, _squarefree(g, char), char)
    return part


def gcd_univariate(p: MultiPoly, q: MultiPoly, v: str) -> MultiPoly:
    """Monic gcd of polynomials univariate in v (constants allowed)."""
    if p.is_zero and q.is_zero:
        raise ZeroPolynomialError("gcd(0, 0)")
    p._check_ring(q)
    f = p.ring.field
    return _poly(_gcd(_dense(p, v), _dense(q, v), f.char), f.one, p.ring, v)


def squarefree_part(p: MultiPoly, v: str) -> MultiPoly:
    """Monic product of the distinct irreducible factors of p in k[v]."""
    if p.is_zero:
        raise ZeroPolynomialError("squarefree part of zero")
    f = p.ring.field
    return _poly(_squarefree(_dense(p, v), f.char), f.one, p.ring, v)


def distinct_root_count(p: MultiPoly, v: str) -> int:
    """Number of distinct roots of p in the algebraic closure."""
    if p.is_zero:
        raise ZeroPolynomialError("squarefree part of zero")
    return len(_squarefree(_dense(p, v), p.ring.field.char)) - 1


def linear_decompose(p: MultiPoly, v: str) -> tuple:
    """Split a polynomial linear in v into common factor and primitive part:
    (common, c', d') with p = common * (c' * v + d') and gcd(c', d') = 1.

    Requires both coefficients of v to be univariate in one shared other
    variable (or constant).
    """
    if p.degree_in(v) != 1:
        raise ValueError(f"polynomial is not linear in {v!r}")
    c = p.coefficient_in(v, 1)
    d = p.coefficient_in(v, 0)
    coeff_vars = set(c.variables_present()) | set(d.variables_present())
    if len(coeff_vars) > 1:
        raise ValueError(f"coefficients not univariate: involve {sorted(coeff_vars)}")
    w = next(iter(coeff_vars), v)  # with constant coefficients any variable does
    g = gcd_univariate(c, d, w)
    b, char = _dense(g, w), p.ring.field.char
    # g is monic, so c/g and d/g have the leading coefficients of c and d
    c_prime, d_prime = (e if e.is_zero else _poly(_divide(_dense(e, w), b, char)[0],
                                                   e.leading(LEX)[1], p.ring, w)
                        for e in (c, d))
    return g, c_prime, d_prime


def linear_form(p: MultiPoly):
    """The (common, c', d') of linear_decompose in the first variable of p
    that admits one; None if none does.

    That is also the variable whose c' has the least degree: a bivariate p
    linear in both variables is a*x*y + b*x + c*y + d, and both of its c'
    are constant if ad = bc and of degree 1 (a != 0) or 0 (a = 0) if not.
    """
    for v in p.variables_present():
        try:
            return linear_decompose(p, v)
        except ValueError:
            pass
    return None
