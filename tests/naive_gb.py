"""Reference Groebner engine on plain dicts, independent of the library.

A polynomial is a dict {exponent tuple: nonzero coefficient}.  Coefficients
are Fractions over QQ (p = 0) and ints in range(p) over GF(p).  The engine is
textbook Buchberger (Cox, Little and O'Shea, "Ideals, Varieties, and
Algorithms", ch. 2): every pair is reduced, oldest first, with no criterion,
and the leading term is found by a full scan at every step.  It
has its own S-polynomial, division and interreduction and imports nothing
from ``affmod.poly`` or ``affmod.ideals``; a ``MultiPoly`` is converted only
at the boundary, with the input's own class.  Slow but obviously correct:
the optimized engine must match it term for term.
"""

from fractions import Fraction

ORDER_KEYS = {
    "lex": lambda m: m,
    "grevlex": lambda m: (sum(m), tuple(-e for e in reversed(m))),
}


def _add(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
        if p:
            out[m] %= p
    return {m: c for m, c in out.items() if c}


def _term_times(f: dict, mono: tuple, coef, p: int) -> dict:
    """coef * mono * f."""
    out = {}
    for m, c in f.items():
        c = c * coef
        out[tuple(a + b for a, b in zip(m, mono))] = c % p if p else c
    return out


def _inv(c, p: int):
    return pow(c, -1, p) if p else Fraction(1) / c


def _leading(f: dict, key):
    m = max(f, key=key)
    return m, f[m]


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monic(f: dict, key, p: int) -> dict:
    return _term_times(f, (0,) * len(next(iter(f))), _inv(_leading(f, key)[1], p), p)


def divide(f: dict, divisors, key, p: int):
    """(quotients, remainder): each step divides the largest monomial left by
    the first divisor whose leading monomial divides it, or moves it to the
    remainder."""
    quotients = [{} for _ in divisors]
    remainder = {}
    work = dict(f)
    while work:
        m, c = _leading(work, key)
        for i, g in enumerate(divisors):
            lm, lc = _leading(g, key)
            if _divides(lm, m):
                qm = tuple(a - b for a, b in zip(m, lm))
                qc = c * _inv(lc, p)
                qc = qc % p if p else qc
                quotients[i] = _add(quotients[i], {qm: qc}, p)
                work = _add(work, _term_times(g, qm, -qc, p), p)
                break
        else:
            remainder[m] = c
            del work[m]
    return quotients, remainder


def s_polynomial(f: dict, g: dict, key, p: int) -> dict:
    (lm_f, lc_f), (lm_g, lc_g) = _leading(f, key), _leading(g, key)
    lcm = tuple(max(a, b) for a, b in zip(lm_f, lm_g))
    up_f = _term_times(f, tuple(a - b for a, b in zip(lcm, lm_f)), _inv(lc_f, p), p)
    up_g = _term_times(g, tuple(a - b for a, b in zip(lcm, lm_g)), -_inv(lc_g, p), p)
    return _add(up_f, up_g, p)


def interreduce(basis, key, p: int) -> list:
    """The reduced basis: drop elements whose leading monomial another's
    divides (the first of equal ones stays), reduce each by the rest, make
    them monic and sort by leading monomial, largest first."""
    lms = [_leading(g, key)[0] for g in basis]
    minimal = [g for i, g in enumerate(basis)
               if not any(j != i and _divides(lms[j], lms[i])
                          and (lms[j] != lms[i] or j < i)
                          for j in range(len(basis)))]
    reduced = []
    for i, g in enumerate(minimal):
        r = divide(g, minimal[:i] + minimal[i + 1:], key, p)[1]
        reduced.append(_monic(r, key, p))
    return sorted(reduced, key=lambda g: key(_leading(g, key)[0]), reverse=True)


def buchberger(polys, key, p: int) -> list:
    G = [_monic(f, key, p) for f in polys if f]
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    while pairs:
        # oldest pair first: newest-first chases each new element's pairs
        # before the old ones and can run for minutes on three small
        # generators in three variables
        i, j = pairs.pop(0)
        r = divide(s_polynomial(G[i], G[j], key, p), G, key, p)[1]
        if r:
            G.append(_monic(r, key, p))
            pairs.extend((i2, len(G) - 1) for i2 in range(len(G) - 1))
    return interreduce(G, key, p)


def naive_buchberger(gens, order=None):
    """Reduced Groebner basis of MultiPoly generators, as MultiPolys.  order
    is any object with a ``kind`` of "lex" or "grevlex"; None is grevlex."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    ring, cls = gens[0].ring, type(gens[0])
    key = ORDER_KEYS[order.kind if order is not None else "grevlex"]
    basis = buchberger([dict(g.terms) for g in gens], key, ring.field.char)
    return [cls(ring, g) for g in basis]
