"""Classification of affine plane curve fibers.

A curve given by a bivariate polynomial that is linear in some variable is
split into a common univariate factor (whose distinct roots contribute affine
lines) and a primitive residual c'*v + d', which is an affine line when d'=0
or c' is constant, and otherwise a line punctured at the roots of c'.
Puncture counts are squarefree degrees, i.e. root counts over the algebraic
closure; no root isolation happens.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import MultiPoly, distinct_root_count, linear_form
from .scalars import QQ, scalar_from_rational


@dataclass(frozen=True)
class CurveClass:
    """A disjoint union of affine lines, each punctured at finitely many
    points: the sorted puncture counts, 0 for an affine line and () for
    Empty.  Only an unknown class has a reason."""

    punctures: tuple = ()
    reason: str = ""

    def __str__(self):
        if self.reason:
            return f"Unknown({self.reason})"
        if not self.punctures:
            return "Empty"
        return " u ".join("A^1" if r == 0 else "A^1_*" if r == 1 else f"A^1_*{r}"
                          for r in self.punctures)


EMPTY = CurveClass()
AFFINE_LINE = CurveClass((0,))


def punctured_line(r: int) -> CurveClass:
    if r < 0:
        raise ValueError("negative puncture count")
    return CurveClass((r,))


def unknown(reason: str) -> CurveClass:
    if not reason:
        raise ValueError("an unknown class needs a reason")
    return CurveClass(reason=reason)


def union(parts) -> CurveClass:
    """The disjoint union of known classes."""
    punctures = []
    for p in parts:
        if p.reason:
            raise ValueError(f"union with an unknown class: {p}")
        punctures += p.punctures
    return CurveClass(tuple(sorted(punctures)))


def classify_curve(p: MultiPoly) -> CurveClass:
    """Classify the plane curve p = 0 up to isomorphism of reduced curves."""
    if p.is_zero:
        return unknown("zero polynomial does not define a curve")
    present = p.variables_present()
    if len(present) == 0:
        return EMPTY
    if len(present) == 1:
        return CurveClass((0,) * distinct_root_count(p, present[0]))
    if len(present) > 2:
        return unknown(f"more than two variables present: {present}")

    # the class is substitution-invariant, so any linear variable will do
    dec = linear_form(p)
    if dec is None:
        return unknown("no variable of degree one with univariate coefficients")

    common, c_prime, d_prime = dec
    punctures = []
    if not common.is_constant():
        w = common.variables_present()[0]
        punctures += [0] * distinct_root_count(common, w)
    if d_prime.is_zero or c_prime.is_constant():
        punctures.append(0)  # the line v = 0, or the graph of v = -d'/c'
    else:
        w = c_prime.variables_present()[0]
        punctures.append(distinct_root_count(c_prime, w))
    return CurveClass(tuple(sorted(punctures)))


# -- fibers of the coordinate functions on Spec B_n -------------------------


def fiber_poly(rel: MultiPoly, generator: str, lam) -> MultiPoly:
    """Bivariate relation of the fiber generator = lam on Spec B_n, given the
    relation u*(x^n*y - 1) - (x - 1) of B_n."""
    if generator not in ("x", "u", "y"):
        raise ValueError(f"generator must be one of x, u, y, not {generator!r}")
    return rel.substitute({generator: rel.ring.const(lam)})


def fiber_table(rel: MultiPoly, lambdas) -> list:
    """All fibers of x, u, y at the given parameter values on the B_n of the
    relation rel, classified: (generator, lam, fiber, curve class) rows."""
    rows = []
    for generator in ("x", "u", "y"):
        for lam in lambdas:
            p = fiber_poly(rel, generator, lam)
            rows.append((generator, lam, p, classify_curve(p)))
    return rows


def expected_fiber_class(n: int, generator: str, lam, field=QQ):
    """The tabulated fiber class, with a note where the n=1 row of the
    reducible-fiber patterns degenerates to two lines, or where the
    characteristic p divides n.

    The y-fibers are punctured at roots of x^n - c.  In characteristic p,
    with n = p^k * n' and p not dividing n', x^n - c is the p^k-th power of
    x^n' - c', so it has n' distinct roots; when p | n the root x = 1 of
    x^n - 1 is also a root of 1 + x + ... + x^(n-1).

    Returns (CurveClass, note_or_None).
    """
    zero, one = field.zero, field.one
    lam = scalar_from_rational(field, lam)
    n_prime = n
    while field.char and n_prime % field.char == 0:
        n_prime //= field.char
    char_note = None
    if n_prime < n:
        char_note = (
            f"characteristic {field.char} divides n, so x^n - c has "
            f"n' = {n_prime} distinct roots"
        )
    if lam == zero:
        return AFFINE_LINE, None
    if lam == one:
        if generator == "x":
            return union([AFFINE_LINE, AFFINE_LINE]), None
        if generator == "u":
            if n == 1:
                return (
                    union([AFFINE_LINE, AFFINE_LINE]),
                    "residual x^(n-1)*y - 1 degenerates to a line at n=1",
                )
            return union([AFFINE_LINE, punctured_line(1)]), None
        if n == 1:
            return (
                union([AFFINE_LINE, AFFINE_LINE]),
                "residual factor is u - 1 at n=1: two lines",
            )
        punctures = n_prime if n_prime < n else n - 1
        return union([AFFINE_LINE, punctured_line(punctures)]), char_note
    if generator == "y":
        return punctured_line(n_prime), char_note
    return punctured_line(1), None
