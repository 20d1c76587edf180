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
from operator import le

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


def ring(*variables, field=None) -> Ring:
    return Ring(tuple(variables), field if field is not None else QQ)


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
        if self.kind == "lex":
            return mono
        if self.kind == "grevlex":
            return (sum(mono), tuple(-e for e in reversed(mono)))
        raise ValueError(f"unknown order kind {self.kind!r}")

    def heap_key(self, mono: Monomial):
        """A flat key whose minimum is the order-maximal monomial, for the
        min-heap of ``divide_multi``."""
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
    each polynomial scans its terms at most once per order.
    """

    __slots__ = ("ring", "terms", "_hash", "_lead")

    def __init__(self, ring: Ring, terms: dict):
        zero = ring.field.zero
        object.__setattr__(self, "ring", ring)
        object.__setattr__(
            self, "terms", {m: c for m, c in terms.items() if c != zero}
        )
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_lead", None)

    # -- basic predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in m) for m in self.terms)

    def constant_value(self):
        """The scalar value of a constant polynomial."""
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        if self.is_zero:
            return self.ring.field.zero
        return next(iter(self.terms.values()))

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
                f"rings differ: {self.ring.variables} vs {other.ring.variables}"
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
            out[m] = f.add(out.get(m, f.zero), c)
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
                out[m] = f.add(out.get(m, f.zero), f.mul(c1, c2))
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Repeated squaring: about 2 log2(n) multiplications."""
        if n < 0:
            raise ValueError("negative exponent")
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

    def total_degree(self) -> int:
        if self.is_zero:
            raise ZeroPolynomialError("degree of zero polynomial")
        return max(sum(m) for m in self.terms)

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
            m = max(self.terms, key=order.key)
            lead = cache[order.kind] = (m, self.terms[m])
        return lead

    def monic(self, order: MonomialOrder = GREVLEX) -> "MultiPoly":
        if self.is_zero:
            return self
        _, c = self.leading(order)
        return self.scale(self.ring.field.inv(c))

    def substitute(self, bindings: dict, target: Ring = None) -> "MultiPoly":
        """Simultaneously substitute polynomials (or scalars) for variables.

        Unbound variables are carried over by name into the target ring.
        """
        for name in bindings:
            self.ring.index(name)  # raises KeyError for unknown variables
        if target is None:
            for v in bindings.values():
                if isinstance(v, MultiPoly):
                    target = v.ring
                    break
            else:
                target = self.ring
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
    remainder.  The working polynomial is a mutable dict, and its monomials
    sit in a heap with lazy deletion: a monomial whose coefficient cancels
    stays in the heap and is skipped when popped (Monagan and Pearce 2007,
    "Polynomial division using dynamic arrays, heaps, and packed exponent
    vectors").
    """
    divisors = list(divisors)
    if any(g.is_zero for g in divisors):
        raise ZeroPolynomialError("zero divisor in division")
    for g in divisors:
        p._check_ring(g)
    ring_ = p.ring
    f = ring_.field
    add, mul = f.add, f.mul
    hkey = order.heap_key
    # per divisor: leading monomial, 1/lc, and the tail with negated coefficients
    heads = []
    for g in divisors:
        lm, lc = g.leading(order)
        tail = [(m, f.neg(c)) for m, c in g.terms.items() if m != lm]
        heads.append((lm, f.inv(lc), tail))
    quotients = [{} for _ in divisors]
    remainder = {}
    work = dict(p.terms)
    heap = [(hkey(m), m) for m in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        m = pop(heap)[1]
        c = work.pop(m, None)
        if c is None:  # cancelled, or a second heap entry of a term done
            continue
        for q, (lm, inv_lc, tail) in zip(quotients, heads):
            if all(map(le, lm, m)):
                qm = tuple([a - b for a, b in zip(m, lm)])
                qc = q[qm] = mul(c, inv_lc)
                for tm, tc in tail:
                    nm = tuple([a + b for a, b in zip(qm, tm)])
                    old = work.get(nm)
                    if old is None:
                        work[nm] = mul(qc, tc)
                        push(heap, (hkey(nm), nm))
                    else:
                        new = add(old, mul(qc, tc))
                        if new:
                            work[nm] = new
                        else:
                            del work[nm]
                break
        else:
            remainder[m] = c
    return [MultiPoly(ring_, q) for q in quotients], MultiPoly(ring_, remainder)


def reduce_mod(p: MultiPoly, divisors, order: MonomialOrder) -> MultiPoly:
    """Remainder of multivariate division (quotients discarded)."""
    return divide_multi(p, divisors, order)[1]


def exact_div(p: MultiPoly, g: MultiPoly, order: MonomialOrder = GREVLEX) -> MultiPoly:
    """Exact quotient p/g; raises if g does not divide p."""
    qs, r = divide_multi(p, [g], order)
    if not r.is_zero:
        raise ValueError("division is not exact")
    return qs[0]


def _require_univariate(p: MultiPoly, v: str):
    extra = [w for w in p.variables_present() if w != v]
    if extra:
        raise ValueError(f"not univariate in {v!r}: also involves {extra}")


def derivative(p: MultiPoly, v: str) -> MultiPoly:
    i = p.ring.index(v)
    f = p.ring.field
    out = {}
    for m, c in p.terms.items():
        if m[i] == 0:
            continue
        mm = list(m)
        e = mm[i]
        mm[i] = e - 1
        mm = tuple(mm)
        c2 = f.mul(c, f.from_int(e))
        out[mm] = f.add(out.get(mm, f.zero), c2)
    return MultiPoly(p.ring, out)


def _dense(p: MultiPoly, char: int) -> list:
    """Integer coefficient list of p, univariate, lowest degree first and
    without leading zeros; over QQ (char 0) the denominators are cleared."""
    terms = p.terms
    if not char:
        den = math.lcm(*[c.denominator for c in terms.values()])
    coeffs = [0] * (max(map(sum, terms), default=-1) + 1)
    for m, c in terms.items():
        # the total degree is the degree in the variable
        coeffs[sum(m)] = c if char else c.numerator * (den // c.denominator)
    return coeffs


def _normalize(a: list, char: int) -> list:
    """The primitive part of a over ZZ (char 0), its monic multiple over
    GF(char)."""
    if char:
        inv = pow(a[-1], -1, char)
        return [c * inv % char for c in a]
    g = math.gcd(*a)
    return [c // g for c in a]


def _remainder(a: list, b: list, char: int) -> list:
    """a mod b over GF(char), b monic; over ZZ (char 0) a pseudo-remainder,
    a nonzero integer multiple of a mod b."""
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    while len(a) > db:
        la = a.pop()
        if not la:
            continue
        shift = len(a) - db
        if char:
            for k in range(db):
                a[shift + k] = (a[shift + k] - la * b[k]) % char
            continue
        q, r = divmod(la, lb)
        if r:  # scale a by lb, so that lb divides its leading coefficient
            q = la
            a = [lb * c for c in a]
        for k in range(db):
            a[shift + k] -= q * b[k]
    while a and not a[-1]:
        a.pop()
    return a


def _vanishes_at_root(a: list, b: list, char: int) -> bool:
    """Whether the linear b = b1*v + b0 divides a, by the remainder theorem:
    a(-b0/b1) = 0, evaluated from a's nonzero coefficients."""
    (b0, b1), d = b, len(a) - 1
    if char:
        root = -b0 * pow(b1, -1, char)
        return not sum(c * pow(root, k, char) for k, c in enumerate(a) if c) % char
    # b1^d * a(-b0/b1), kept in integers
    return not sum(c * (-b0) ** k * b1 ** (d - k) for k, c in enumerate(a) if c)


def gcd_univariate(p: MultiPoly, q: MultiPoly, v: str) -> MultiPoly:
    """Monic gcd of polynomials univariate in v (constants allowed).

    Euclid runs on dense integer coefficient lists: over QQ on primitive
    parts and pseudo-remainders (the primitive PRS; Collins 1967, Brown
    1971), over GF(p) on monic remainders.  A linear divisor ends it by the
    remainder theorem.
    """
    if p.is_zero and q.is_zero:
        raise ZeroPolynomialError("gcd(0, 0)")
    _require_univariate(p, v)
    _require_univariate(q, v)
    p._check_ring(q)
    ring_ = p.ring
    char = ring_.field.char
    a, b = _dense(p, char), _dense(q, char)
    while b:
        b = _normalize(b, char)
        if len(b) == 1:
            a = b
            break
        if len(b) == 2:
            a = b if _vanishes_at_root(a, b, char) else [1]
            break
        a, b = b, _remainder(a, b, char)
    if len(a) == 1:
        return ring_.one()
    a = _normalize(a, char)
    lc = a[-1]
    zero = (0,) * ring_.nvars
    i = ring_.index(v)
    return MultiPoly(ring_, {zero[:i] + (k,) + zero[i + 1:]: c if char else Fraction(c, lc)
                             for k, c in enumerate(a) if c})


def squarefree_part(p: MultiPoly, v: str) -> MultiPoly:
    """Monic product of the distinct irreducible factors of p in k[v].

    Over GF(q) a factor whose multiplicity q divides has zero derivative, so
    it stays whole in gcd(p, p') and is taken from there; if p' = 0, then
    p = g(v^q) = g(v)^q, since c^q = c on GF(q) (Yun 1976; Knuth, TAOCP
    vol. 2, 4.6.2).
    """
    if p.is_zero:
        raise ZeroPolynomialError("squarefree part of zero")
    _require_univariate(p, v)
    if p.degree_in(v) <= 0:
        return p.ring.one()
    char = p.ring.field.char
    dp = derivative(p, v)
    if char and dp.is_zero:
        i = p.ring.index(v)
        root = {m[:i] + (m[i] // char,) + m[i + 1:]: c for m, c in p.terms.items()}
        return squarefree_part(MultiPoly(p.ring, root), v)
    g = gcd_univariate(p, dp, v)
    part = exact_div(p, g, LEX).monic(LEX)
    if char:
        # strip the factors of part from g, doubling the powers taken each
        # round; what is left is the q-th power of the factors part lacks
        w = gcd_univariate(part, g, v)
        while w.degree_in(v) > 0:
            g = exact_div(g, w, LEX)
            w = gcd_univariate(w * w, g, v)
        part = part * squarefree_part(g, v)
    return part


def distinct_root_count(p: MultiPoly, v: str) -> int:
    """Number of distinct roots of p in the algebraic closure."""
    return squarefree_part(p, v).degree_in(v)


@dataclass(frozen=True)
class LinearDecomposition:
    """p = common * (c_prime * variable + d_prime) with gcd(c', d') = 1."""

    variable: str
    common: MultiPoly
    c_prime: MultiPoly
    d_prime: MultiPoly


def linear_decompose(p: MultiPoly, v: str) -> LinearDecomposition:
    """Split a polynomial linear in v into common factor and primitive part.

    Requires both coefficients of v to be univariate in one shared other
    variable (or constant).
    """
    if p.degree_in(v) != 1:
        raise ValueError(f"polynomial is not linear in {v!r}")
    c = p.coefficient_in(v, 1)
    d = p.coefficient_in(v, 0)
    coeff_vars = set(c.variables_present()) | set(d.variables_present())
    if v in coeff_vars:
        raise ValueError(f"coefficients of {v!r} still involve {v!r}")
    if len(coeff_vars) > 1:
        raise ValueError(f"coefficients not univariate: involve {sorted(coeff_vars)}")
    w = next(iter(coeff_vars)) if coeff_vars else None
    if w is None:
        # both coefficients constant: gcd is 1 after normalization
        g = p.ring.one()
    else:
        g = gcd_univariate(c, d, w)
    return LinearDecomposition(
        variable=v,
        common=g,
        c_prime=exact_div(c, g, LEX),
        d_prime=exact_div(d, g, LEX),
    )
