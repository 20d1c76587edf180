"""Presented rings: the affine modifications built from the relation
u*(x^n*y - 1) = x - 1, the two four-variable presentations of the
blown-up plane surfaces, ring maps between presentations, and the
hypothesis checks behind Samuel's UFD criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fibers import AFFINE_LINE, CurveClass, classify_curve, punctured_line
from .ideals import Ideal, colength, is_point_ideal, normal_form
from .poly import GREVLEX, MultiPoly, Ring
from .scalars import QQ


@dataclass(frozen=True)
class PresentedRing:
    """Ambient polynomial ring modulo a defining ideal."""

    ambient: Ring
    defining: Ideal
    generators: tuple  # display names of the designated generators

    def equal(self, p: MultiPoly, q: MultiPoly) -> bool:
        return normal_form(p - q, self.defining).is_zero


def build_Bn(n: int, field=QQ) -> PresentedRing:
    """The modification A[b/a] of the plane A = k[x, y] along a = x^n*y - 1
    with center b = x - 1, presented as k[x, y, u] / (u*(x^n*y - 1) - (x - 1))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ambient = Ring(("x", "y", "u"), field)
    x, y, u = ambient.gens()
    rel = u * (x**n * y - 1) - (x - 1)
    return PresentedRing(ambient, Ideal([rel], GREVLEX), ambient.variables)


def build_C1(field=QQ) -> PresentedRing:
    """k[x,y,u,v] / (u*x - (y-1), v*y - (x-1))."""
    ambient = Ring(("x", "y", "u", "v"), field)
    x, y, u, v = ambient.gens()
    gens = [u * x - (y - 1), v * y - (x - 1)]
    return PresentedRing(ambient, Ideal(gens, GREVLEX), ambient.variables)


def build_C2(field=QQ) -> PresentedRing:
    """k[X,Y,U,V] / (U*(X*Y-1) - (X-1), V*(X*Y-1) - (Y-1))."""
    ambient = Ring(("X", "Y", "U", "V"), field)
    X, Y, U, V = ambient.gens()
    gens = [U * (X * Y - 1) - (X - 1), V * (X * Y - 1) - (Y - 1)]
    return PresentedRing(ambient, Ideal(gens, GREVLEX), ambient.variables)


def c1_alternate_ideal(field=QQ) -> Ideal:
    """The second generating set of C1's ideal:
    (x*(u*v-1) + (v+1), y*(u*v-1) + (u+1))."""
    ambient = Ring(("x", "y", "u", "v"), field)
    x, y, u, v = ambient.gens()
    return Ideal([x * (u * v - 1) + (v + 1), y * (u * v - 1) + (u + 1)], GREVLEX)


# -- ring maps --------------------------------------------------------------


def verify_ring_map(relations: Ideal, target: PresentedRing, images: dict) -> bool:
    """Check the map is well-defined: every source relation maps into the
    target ideal.  A ring map is the dict of images of the source's ambient
    variables, polynomials in the target's ambient ring."""
    missing = set(relations.ring.variables) - set(images)
    if missing:
        raise ValueError(f"missing images for {sorted(missing)}")
    return all(
        target.defining.contains(g.substitute(images, target=target.ambient))
        for g in relations.generators
    )


def c1_to_c2_map(field=QQ) -> dict:
    """(x, y, u, v) -> (U, V, -Y, -X) in C2's ambient ring, carrying C1's
    ideal onto the saturation of C2's."""
    X, Y, U, V = Ring(("X", "Y", "U", "V"), field).gens()
    return {"x": U, "y": V, "u": -Y, "v": -X}


# -- Samuel's criterion hypotheses ------------------------------------------


@dataclass(frozen=True)
class SamuelReport:
    """Outcome of checking the UFD-criterion hypotheses for the pair (a, b).

    Tri-state flags: True / False / None (not decidable by the linear
    recognizers).  The verdict is "hypotheses-verified" only when every flag
    passes; an undecidable input yields "unknown", never a false positive.
    """

    a_irreducible: object
    b_irreducible: object
    relatively_prime: object
    point: object
    sum_colength: object
    quotient_a_class: CurveClass
    quotient_b_class: CurveClass
    verdict: str  # "hypotheses-verified" | "failed" | "unknown"
    detail: str = ""


def certify_irreducible(p: MultiPoly):
    """Tri-state irreducibility over the algebraic closure, as ``_irreducible`` reads it."""
    return _irreducible(p, classify_curve(p))


def _irreducible(p: MultiPoly, curve: CurveClass):
    """Tri-state irreducibility over the algebraic closure; curve classifies p = 0.

    True for polynomials linear in some variable with coprime univariate
    coefficients and no extractable common factor (the prime-linear-form
    certificate), and for univariate degree-1 polynomials.  False on a
    visible factorization (common factor, or univariate of degree >= 2,
    which always splits over the closure).  None outside the recognizable
    class.  classify_curve recognizes exactly those linear forms in two
    variables, where one component means a constant common factor.
    """
    if p.is_zero or p.is_constant():
        return False
    present = p.variables_present()
    if len(present) == 1:
        return p.degree_in(present[0]) == 1
    return None if curve.reason else len(curve.punctures) == 1


def samuel_check(a: MultiPoly, b: MultiPoly) -> SamuelReport:
    """Check the hypotheses that make A[b/a] a UFD: a and b irreducible and
    coprime, (a, b) a single reduced point, and quotient curves A/aA a
    once-punctured line and A/bA an affine line."""
    if a.ring != b.ring or a.ring.nvars != 2:
        raise ValueError("a and b must live in a common two-variable ring")
    qa = classify_curve(a)
    qb = classify_curve(b)
    a_irr = _irreducible(a, qa)
    b_irr = _irreducible(b, qb)
    # two irreducibles are coprime unless they are associates
    rel_prime = a.monic() != b.monic() if a_irr and b_irr else None
    sum_ideal = Ideal([a, b], GREVLEX)
    clen = colength(sum_ideal)
    point = is_point_ideal(sum_ideal)
    qa_ok = None if qa.reason else qa == punctured_line(1)
    qb_ok = None if qb.reason else qb == AFFINE_LINE

    checks = [
        ("a irreducible", a_irr),
        ("b irreducible", b_irr),
        ("a, b relatively prime", rel_prime),
        ("(a, b) is a reduced point", clen == 1),
        ("A/aA is a once-punctured line", qa_ok),
        ("A/bA is an affine line", qb_ok),
    ]
    failed = [name for name, ok in checks if ok is False]
    undecided = [name for name, ok in checks if ok is None]
    if failed:
        verdict, detail = "failed", "; ".join(failed)
    elif undecided:
        verdict, detail = "unknown", "; ".join(undecided)
    else:
        verdict, detail = "hypotheses-verified", ""
    return SamuelReport(
        a_irreducible=a_irr,
        b_irreducible=b_irr,
        relatively_prime=rel_prime,
        point=point,
        sum_colength=clen,
        quotient_a_class=qa,
        quotient_b_class=qb,
        verdict=verdict,
        detail=detail,
    )
