"""Ideals, Buchberger's algorithm, normal forms, colength.

The completion uses the normal pair-selection strategy (least lcm first
in the order, for lex as for grevlex; of equal lcms, the pair made first),
served by a heap, and the pair criteria of Gebauer and Moeller 1988, "On an
installation of Buchberger's algorithm": the product (coprime) criterion,
B, M and F.  Every element, generator or S-polynomial remainder, enters the
active basis reduced by it (``reduce_mod``, remainder only), and an element
whose leading monomial a newer element divides leaves.  So the active basis
is minimal at every step, and the last step only tail-reduces it.  The
reduced basis is unique per order, so the output is canonical regardless of
pair scheduling.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import product
from operator import neg

from .poly import (
    GREVLEX,
    MonomialOrder,
    MultiPoly,
    RingMismatchError,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    reduce_mod,
)

INFINITE = math.inf


def s_polynomial(f: MultiPoly, g: MultiPoly, order: MonomialOrder) -> MultiPoly:
    """lcm/lt(f) * f - lcm/lt(g) * g for the lcm of the leading monomials,
    built in one dict from the two tails: the leading terms cancel."""
    lm_f, lc_f = f.leading(order)
    lm_g, lc_g = g.leading(order)
    f._check_ring(g)
    lcm = mono_lcm(lm_f, lm_g)
    fld = f.ring.field
    out = {}
    for h, lm, c in ((f, lm_f, fld.inv(lc_f)), (g, lm_g, fld.neg(fld.inv(lc_g)))):
        shift = mono_div(lcm, lm)
        for m, a in h.terms.items():
            if m != lm:
                m = mono_mul(m, shift)
                a = fld.mul(a, c)
                old = out.get(m)
                out[m] = a if old is None else fld.add(old, a)
    return MultiPoly(f.ring, out)


def reduce_groebner_basis(basis, order: MonomialOrder):
    """Tail-reduce a minimal, monic Groebner basis; sorted by leading
    monomial (descending).  No leading monomial divides another's, so each
    leading term survives the reduction and each remainder stays monic."""
    reduced = [reduce_mod(g, basis[:i] + basis[i + 1:], order)
               for i, g in enumerate(basis)]
    reduced.sort(key=lambda g: order.key(g.leading(order)[0]))
    return reduced


def buchberger_gb(gens, order: MonomialOrder = GREVLEX):
    """Reduced Groebner basis of the ideal generated by gens."""
    G = []  # every element ever added; pairs index into it
    lms = []  # leading monomial of G[i]
    active = []  # indices of G whose leading monomials are not redundant
    pairs = {}  # (i, j) -> lcm of the leading monomials, i < j; the live pairs
    # The normal strategy picks the least lcm in the order (the largest key;
    # not degree first) and, of equal lcms, the pair inserted first.  Pairs
    # are inserted in ascending (j, i), so the heap holds (negated key, j, i),
    # and a popped pair that criterion B deleted is skipped.
    heap = []

    def update(h: MultiPoly):
        """Add h to the basis and its useful pairs to ``pairs``: the
        Gebauer-Moeller installation of a new element."""
        k = len(G)
        lm_h = h.leading(order)[0]
        G.append(h)
        lms.append(lm_h)
        new = [(i, mono_lcm(lms[i], lm_h)) for i in active]
        # M and F: keep (i, k) only if no other new pair's lcm divides its
        # lcm; of pairs with equal lcms, one survives.  A pair with coprime
        # leading monomials is kept here so that it can still eliminate
        # others, then dropped (product criterion).
        kept = []
        for n, (i, lcm) in enumerate(new):
            coprime = lcm == mono_mul(lms[i], lm_h)
            if coprime or not any(
                mono_divides(other, lcm)
                for _, other in new[n + 1:] + kept
            ):
                kept.append((i, lcm))
        # B: drop an old pair (i, j) when lm(h) divides its lcm and neither
        # lcm(i, h) nor lcm(j, h) equals it.
        for (i, j), lcm in list(pairs.items()):
            if (
                mono_divides(lm_h, lcm)
                and mono_lcm(lms[i], lm_h) != lcm
                and mono_lcm(lms[j], lm_h) != lcm
            ):
                del pairs[i, j]
        for i, lcm in kept:
            if lcm != mono_mul(lms[i], lm_h):
                pairs[i, k] = lcm
                heappush(heap, (tuple(map(neg, order.key(lcm))), k, i))
        active[:] = [i for i in active if not mono_divides(lm_h, lms[i])]
        active.append(k)

    def install(p: MultiPoly):
        """Reduce p by the active basis and add a nonzero remainder, so no
        active leading monomial divides another's."""
        r = reduce_mod(p, [G[a] for a in active], order)
        if not r.is_zero:
            update(r.monic(order))

    for g in gens:
        if not g.is_zero:
            install(g)
    while heap:
        _, j, i = heappop(heap)
        if pairs.pop((i, j), None) is not None:
            install(s_polynomial(G[i], G[j], order))
    return reduce_groebner_basis([G[a] for a in active], order)


class Ideal:
    """An ideal with a lazily cached reduced Groebner basis."""

    def __init__(self, generators, order: MonomialOrder = GREVLEX):
        generators = list(generators)
        if not generators:
            raise ValueError("ideal needs at least one generator (use the zero poly)")
        ring = generators[0].ring
        for g in generators[1:]:
            if g.ring != ring:
                raise RingMismatchError("generators in different rings")
        self.ring = ring
        self.generators = generators
        self.order = order
        self._gb = None

    @property
    def groebner_basis(self):
        if self._gb is None:
            self._gb = buchberger_gb(self.generators, self.order)
        return self._gb

    def contains(self, p: MultiPoly) -> bool:
        return normal_form(p, self).is_zero

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"Ideal({gens})"


def normal_form(p: MultiPoly, ideal: Ideal) -> MultiPoly:
    """Unique remainder of p modulo the reduced Groebner basis."""
    return reduce_mod(p, ideal.groebner_basis, ideal.order)


def ideals_equal(a: Ideal, b: Ideal) -> bool:
    """Equal reduced Groebner bases under a's order (unique per order)."""
    if a.ring != b.ring:
        raise RingMismatchError("ideals in different rings")
    if b.order == a.order:
        return a.groebner_basis == b.groebner_basis
    return a.groebner_basis == buchberger_gb(b.generators, a.order)


def colength(ideal: Ideal):
    """Dimension of ring/ideal as a k-vector space; INFINITE if unbounded."""
    gb = ideal.groebner_basis
    if any(g.is_constant() for g in gb):
        return 0
    n = ideal.ring.nvars
    lms = [g.leading(ideal.order)[0] for g in gb]
    bounds = []
    for i in range(n):
        pure = [m[i] for m in lms if all(e == 0 for j, e in enumerate(m) if j != i)]
        if not pure:
            return INFINITE
        bounds.append(min(pure))
    count = 0
    for mono in product(*(range(b) for b in bounds)):
        if not any(mono_divides(lm, mono) for lm in lms):
            count += 1
    return count


def is_point_ideal(ideal: Ideal):
    """Coordinates (alpha, beta) when the reduced basis, under any order, is
    {x - alpha, y - beta}; None otherwise.  That is exactly when its leading
    monomials are x and y, as the reduced tails are then constants."""
    if ideal.ring.nvars != 2:
        raise ValueError("point recognition needs a two-variable ring")
    by_lead = {g.leading(ideal.order)[0]: g for g in ideal.groebner_basis}
    if sorted(by_lead) != [(0, 1), (1, 0)]:
        return None
    fld = ideal.ring.field
    return tuple(fld.neg(by_lead[m].terms.get((0, 0), fld.zero))
                 for m in ((1, 0), (0, 1)))
