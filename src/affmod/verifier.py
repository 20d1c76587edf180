"""End-to-end checks replayed by the CLI.

Each function re-derives one verifiable claim about the rings built from the
relation u*(x^n*y - 1) = x - 1 and returns a VerificationReport with a
transcript of the algebraic steps.
"""

from __future__ import annotations

import time
from argparse import ArgumentTypeError
from dataclasses import dataclass
from fractions import _RATIONAL_FORMAT, Fraction
from itertools import product
from types import SimpleNamespace
from typing import Callable

from .degrees import DEFAULT_PROBE, exhaustive_probe
from .fibers import expected_fiber_class, fiber_table
from .parse import _format_scalar, _read_int, format_poly
from .poly import Ring, exact_div
from .report import VerificationReport
from .rings import (
    build_Bn,
    build_C1,
    build_C2,
    c1_alternate_ideal,
    c1_to_c2_map,
    samuel_check,
)
from .scalars import QQ, scalar_from_rational

DEFAULT_LAMBDAS = (0, 1, 2, -1, Fraction(1, 2))
# cmd_main_identities enumerates dX = dU + n*dX + dY over 0..DEGREE_BOUND
DEGREE_BOUND = 10


def _report(claim_id, description, transcript, failures=(), unknowns=(),
            verified_detail="", payload=None) -> VerificationReport:
    """The report of one check: failed with the first failure, else unknown
    with the first unknown, else verified."""
    if failures:
        status, detail = "failed", failures[0]
    elif unknowns:
        status, detail = "unknown", unknowns[0]
    else:
        status, detail = "verified", verified_detail
    return VerificationReport(claim_id, description, status, detail, transcript,
                              payload=payload)


def _require_positive(**sizes):
    """Library callers get the check that --n and --box get on the CLI."""
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1")


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        report = fn(*args, **kwargs)
        report.seconds = time.perf_counter() - t0
        return report

    return wrapper


@_timed
def cmd_fibers(n: int, lambdas=DEFAULT_LAMBDAS, field=QQ) -> VerificationReport:
    """Compare the computed fiber classes of x, u, y against the tabulated
    general / reducible / zero patterns."""
    _require_positive(n=n)
    transcript = []
    failures = []
    unknowns = []
    usable = []
    for lam in lambdas:
        if field.char and Fraction(lam).denominator % field.char == 0:
            transcript.append(f"lambda = {_format_scalar(Fraction(lam))}: skipped "
                              f"[note: its denominator is 0 in {field}]")
        else:
            usable.append(scalar_from_rational(field, lam))
    rows = fiber_table(build_Bn(n, field).defining.generators[0], usable)
    for generator, lam, fiber, curve_class in rows:
        expected, note = expected_fiber_class(n, generator, lam, field)
        line = (
            f"{generator} = {_format_scalar(lam)}: {format_poly(fiber)} "
            f"-> {curve_class} (expected {expected})"
        )
        if note:
            line += f" [note: {note}]"
        transcript.append(line)
        if curve_class.reason:
            unknowns.append(line)
        elif curve_class != expected:
            failures.append(line)
    if not rows:
        unknowns.append(f"no lambda is usable in {field}, so no fiber was classified")
    return _report(f"fibers-n{n}", f"fiber classification table for n={n}",
                   transcript, failures, unknowns, f"{len(rows)} fibers match")


@_timed
def cmd_takanori(field=QQ) -> VerificationReport:
    """Replay the literal isomorphism-chain computations between the two
    four-variable surface presentations and the n=1 modification ring.

    The chain as classically written does NOT hold at the ideal level: in
    k[x,y,u,v] the ideal J = (j1, j2) = (x(uv-1)+(v+1), y(uv-1)+(u+1)) is
    strictly smaller than I = (i1, i2) = (ux-(y-1), vy-(x-1)).  Each step is
    decided by a certificate the transcript prints, with no Groebner basis:
    the identities j1 = v*i1 + i2, j2 = u*i2 + i1 and
    (uv-1)*(ux-y+1) = u*j1 - j2, the plane u = v = -1 on which J vanishes
    but i1 does not, phi's images, and the point X = Y = 1, U = V = 0 of
    C2.  The check fails when every certificate holds, else it is unknown.
    """
    i1, i2 = build_C1(field).defining.generators
    j1, j2 = c1_alternate_ideal(field).generators
    x, y, u, v = i1.ring.gens()
    plane = {"u": -1, "v": -1}
    kills_J = all(j.substitute(plane) == 0 for j in (j1, j2))
    # False: nonzero on a plane where J vanishes, so outside J; None: undecided
    step1, step2a, step2b = (False if kills_J and f.substitute(plane) != 0 else None
                             for f in (i1, 1 + u * x - y, 1 + v * y - x))
    j_in_I = j1 == v * i1 + i2 and j2 == u * i2 + i1
    zero_divisor = (u * v - 1) * (u * x - y + 1) == u * j1 - j2 or None
    transcript = [f"I = J as ideals: {step1}", f"1 + u*x = y modulo J: {step2a}",
                  f"1 + v*y = x modulo J: {step2b}"]
    if not j_in_I:
        transcript.append("  J in I is undecided: j1 = v*i1 + i2 or j2 = u*i2 + i1 fails")
    elif step1 is False:
        transcript += [
            "  witness: at u = v = -1 both generators of J vanish identically "
            "while u*x - (y - 1) does not, so J is strictly smaller than I",
            f"  (uv - 1)*(u*x - y + 1) in J: {zero_divisor}; the cancellation by "
            "the zero divisor uv - 1 is where the classical derivation breaks",
        ]

    c2 = build_C2(field)
    images = [g.substitute(c1_to_c2_map(field), target=c2.ambient) for g in (j1, j2)]
    step3 = set(images) == set(c2.defining.generators) or None
    transcript.append("phi(x,y,u,v) = (U,V,-Y,-X) carries the generators of J onto the "
                      f"defining relations of C2: {step3}")
    transcript += [f"  phi({format_poly(g)}) = {format_poly(img)}"
                   for g, img in zip((j1, j2), images)]

    X, Y, U, V = c2.ambient.gens()
    point = {"X": 1, "Y": 1, "U": 0, "V": 0}
    g1, g2, h = (f.substitute(point) for f in (*c2.defining.generators, V - 1 + Y * U))
    step4 = False if g1 == 0 and g2 == 0 and h != 0 else None
    transcript += [
        f"V = 1 - Y*U in C2 (so C2 is generated by X, Y, U): {step4}",
        "  witness: at X = Y = 1, U = V = 0 the defining relations of C2 evaluate "
        f"to {format_poly(g1)} and {format_poly(g2)}, and V - 1 + Y*U to {format_poly(h)}",
    ]

    certified = (j_in_I and zero_divisor and step3
                 and all(s is False for s in (step1, step2a, step2b, step4)))
    return _report(
        "isomorphism-chain",
        "C1, C2 and the n=1 modification ring are isomorphic "
        "(literal two-generator presentations)",
        transcript,
        ["the two-generator ideals are not equal (see transcript); "
         "the saturated chain verifies"] if certified else [],
        ["a certificate does not hold, so the chain is undecided; see transcript"],
    )


@_timed
def cmd_takanori_repaired(field=QQ) -> VerificationReport:
    """The isomorphism chain with the deficient presentation ideal enlarged
    to its saturation: I2 = (h1, h2), h1 = Y*U + V - 1, h2 = X*V + U - 1.

    Each step is an exact identity in k[X,Y,U,V] with coefficients +-1, so
    it holds in every characteristic and needs no Groebner basis.  C2's
    relations are combinations of h1 and h2, (X*Y - 1)*h1 is one of C2's,
    phi carries C1's generators onto -h1 and -h2, and V = 1 - Y*U sends h1
    to 0 and h2 to minus the n=1 modification relation, so
    C1 ~ k[X,Y,U,V]/I2 ~ B_1.
    """
    g1, g2 = build_C2(field).defining.generators
    amb2 = g1.ring
    X, Y, U, V = amb2.gens()
    h1, h2 = Y * U + V - 1, X * V + U - 1
    transcript = []

    step1 = g1 == X * h1 - h2 and g2 == Y * h2 - h1
    transcript.append(f"both defining relations of C2 lie in I2: {step1}")
    step1b = (X * Y - 1) * (V - 1 + Y * U) == Y * g1 + g2
    transcript.append(
        f"(X*Y - 1)*(V - 1 + Y*U) lies in C2's ideal (I2 is the saturation "
        f"at X*Y - 1): {step1b}"
    )

    phi = c1_to_c2_map(field)
    gens = build_C1(field).defining.generators
    images = [g.substitute(phi, target=amb2) for g in gens]
    step2 = set(images) == {-h1, -h2}
    transcript.append(f"phi(I) = I2 as ideals: {step2}")
    for g, img in zip(gens, images):
        transcript.append(f"  phi({format_poly(g)}) = {format_poly(img)}")

    r = build_Bn(1, field).defining.generators[0]
    xb, yb, ub = r.ring.gens()
    eliminate_v = {"X": xb, "Y": yb, "U": ub, "V": 1 - yb * ub}
    step3 = [h.substitute(eliminate_v, target=r.ring) for h in (h1, h2)] == [0, -r]
    transcript.append(
        f"substituting V = 1 - Y*U sends I2 into the n=1 relation ideal: {step3}"
    )
    step4 = r.substitute({"x": X, "y": Y, "u": U}, target=amb2) == X * h1 - h2
    transcript.append(f"the n=1 relation u*(x*y - 1) - (x - 1) lies in I2: {step4}")

    return _report(
        "isomorphism-chain-repaired",
        "C1, C2 and the n=1 modification ring are isomorphic "
        "(saturated presentation ideal)",
        transcript,
        [] if step1 and step1b and step2 and step3 and step4
        else ["a sub-identity failed; see transcript"],
    )


@_timed
def cmd_samuel(n: int, field=QQ) -> VerificationReport:
    """Check the UFD-criterion hypotheses for a = x^n*y - 1, b = x - 1."""
    _require_positive(n=n)
    base = Ring(("x", "y"), field)
    x, y = base.var("x"), base.var("y")
    a, b = x**n * y - 1, x - 1
    rep = samuel_check(a, b)
    one = base.field.one
    point_ok = rep.point == (one, one)
    point_str = (
        "(" + ", ".join(map(str, rep.point)) + ")"
        if rep.point is not None
        else "none"
    )
    transcript = [
        f"a = {format_poly(a)}, b = {format_poly(b)}",
        f"a irreducible (prime linear form): {rep.a_irreducible}",
        f"b irreducible: {rep.b_irreducible}",
        f"a, b relatively prime: {rep.relatively_prime}",
        f"(a, b) colength: {rep.sum_colength}, point: {point_str}",
        f"A/aA: {rep.quotient_a_class}, A/bA: {rep.quotient_b_class}",
        f"verdict: {rep.verdict}",
    ]
    unknowns = [rep.detail] if rep.verdict == "unknown" else []
    failed = rep.verdict == "failed" or not (unknowns or point_ok)
    return _report(
        f"samuel-n{n}",
        f"UFD-criterion hypotheses for the n={n} modification",
        transcript,
        [rep.detail or "center point is not (1, 1)"] if failed else [],
        unknowns,
        f"center point {point_str}",
    )


@_timed
def cmd_localization(n: int, field=QQ) -> VerificationReport:
    """Generator inter-expressibility of k[x^{+-1}, y, t^{+-1}] with
    t = x^n*y - 1: inverting x turns the modification chart into a
    two-variable Laurent ring."""
    _require_positive(n=n)
    base = Ring(("x", "y"), field)
    x, y = base.var("x"), base.var("y")
    t = x**n * y - 1
    transcript = []

    # y = (t + 1) / x^n, cleared of denominators
    residual = y * x**n - (t + 1)
    step1 = residual.is_zero
    transcript.append(
        f"y*x^{n} - (t + 1) with t = {format_poly(t)}: {format_poly(residual)}"
    )

    # round trip: substituting t back into (t+1)/x^n recovers y exactly
    recovered = exact_div(t + 1, x**n)
    step2 = recovered == y
    transcript.append(f"(t + 1)/x^{n} = {format_poly(recovered)}")

    # and t is itself a polynomial in x, y (the other direction is immediate)
    transcript.append(f"t = {format_poly(t)} lies in k[x, y]")

    return _report(
        f"localization-n{n}",
        f"Laurent chart identity for n={n}",
        transcript,
        [] if step1 and step2 else ["generator identity failed"],
    )


@_timed
def cmd_main_identities(n: int, field=QQ) -> VerificationReport:
    """The two exact polynomial identities behind the non-isomorphism
    argument (configuration m=1 < n), plus the degree bookkeeping
    enumeration for the complementary case."""
    _require_positive(n=n)
    claim_id = f"main-identities-n{n}"
    description = f"exact identity chain and degree enumeration for n={n}"
    # degree bookkeeping: dX = dU + n*dX + dY over non-negative integers
    solutions = [
        (dx, dy, du)
        for dx, dy, du in product(range(DEGREE_BOUND + 1), repeat=3)
        if dx == du + n * dx + dy
    ]
    if n == 1:
        return _report(claim_id, description, [
            "identity chain requires n >= 2; skipped",
            "at n=1 the constraint degenerates to 0 = dU + dY: dX is "
            f"unconstrained ({len(solutions)} solutions); recorded, not a failure",
        ], unknowns=["degenerate configuration at n=1; identities require n >= 2"])

    ring = Ring(("x", "y", "Y", "c"), field)
    x, y, Y, c = ring.gens()
    X = c * y
    T = X**n * Y - 1
    t = x * y - 1
    transcript = []

    lhs = T * t - (1 - y)
    rhs = X**n * Y * x * y - X**n * Y - x * y + y
    id1 = lhs == rhs
    transcript.append(
        "(X^n*Y - 1)*(x*y - 1) - (1 - y) = X^n*Y*x*y - X^n*Y - x*y + y "
        f"with X = c*y: {id1}"
    )

    divisible = all(m[ring.index("y")] >= 1 for m in lhs.terms)
    transcript.append(f"that expansion is divisible by y: {divisible}")
    id2 = False
    if divisible:
        quotient = exact_div(lhs, y)
        expected_q = X**n * Y * x - c * X ** (n - 1) * Y - x + 1
        id2 = quotient == expected_q
        transcript.append(
            f"quotient by y equals X^n*Y*x - c*X^(n-1)*Y - x + 1: {id2}"
        )

    enum_ok = solutions == [(0, 0, 0)]
    transcript.append(
        f"non-negative solutions of dX = dU + {n}*dX + dY, all <= "
        f"{DEGREE_BOUND}: {solutions}"
    )
    return _report(claim_id, description, transcript,
                   [] if id1 and id2 and enum_ok
                   else ["identity residual nonzero; see transcript"])


@_timed
def cmd_degree_probe(n_max: int, box: int) -> VerificationReport:
    """Exhaustive weight probe: every nonzero integer weight in the box
    produces a probe element of negative degree, for every n."""
    _require_positive(n=n_max, box=box)
    results = exhaustive_probe(range(1, n_max + 1), box)
    missing = [r for r in results if r["verdict"] != "witness"]
    transcript = [
        f"probe set {list(DEFAULT_PROBE)}, weights in [-{box}, {box}]^2, n in 1..{n_max}: "
        f"{len(results)} cases"
    ]
    for r in missing[:10]:
        transcript.append(f"no witness: n={r['n']}, weight={tuple(r['weight'])}")
    return _report(
        "degree-probe",
        "weight-family non-negativity probe (degree rigidity, "
        "within the weight family)",
        transcript,
        [f"{len(missing)} weights without witness"] if missing else [],
        verified_detail=f"{len(results)} weight cases, all witnessed",
        payload=results,
    )


# -- the check registry: subcommands, `affmod all` and run_all ---------------


def positive_int(text: str) -> int:
    """argparse type of --n and --box: an integer >= 1, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise ArgumentTypeError(f"must be >= 1, not {value}")
    return value


def rational(text: str) -> Fraction:
    """argparse type of --lambda: a rational literal such as 1/2, -3/4, 1.5
    or 1e3, read as Fraction(text) reads it but at any length (Fraction's
    int() refuses more digits than the interpreter's limit).  A decimal
    exponent above 10^6 in magnitude is refused: 1e100000000 alone would
    be a value of 10^8 digits."""
    m = _RATIONAL_FORMAT.match(text)
    try:
        if m is None:
            raise ValueError(text)
        if m["denom"]:
            value = Fraction(_read_int(m["num"]), _read_int(m["denom"]))
        else:  # digits, a '.' and more digits, and an exponent, each optional
            decimal = m["decimal"] or ""
            exp = _read_int(m["exp"] or "0")
            if abs(exp) > 10**6:
                raise ArgumentTypeError(f"exponent beyond 10^6 in magnitude: {text!r}")
            exp -= len(decimal.replace("_", ""))
            value = _read_int(m["num"] + decimal) * Fraction(10) ** exp
    except (ValueError, ZeroDivisionError):
        raise ArgumentTypeError(f"not a rational literal: {text!r}")
    return -value if m["sign"] == "-" else value


@dataclass(frozen=True)
class Param:
    """One option of a check, in argparse's terms."""

    flag: str
    dest: str
    type: Callable
    default: object = None
    help: str = None
    action: str = "store"


def _n(default: int, help: str = None) -> Param:
    return Param("--n", "n", positive_int, default, help)


@dataclass(frozen=True)
class Check:
    """One subcommand.  ``run(params, field)`` returns its reports; it calls
    the cmd_* functions by their module names at call time.  ``sweep`` maps
    run_all's n values to the n values it runs this check at; None leaves the
    check out of run_all."""

    name: str
    help: str
    run: Callable
    params: tuple = ()
    sweep: Callable = None


CHECKS = {check.name: check for check in (
    Check(
        "fibers", "fiber classification table",
        lambda a, field: [cmd_fibers(a.n, a.lambdas or DEFAULT_LAMBDAS, field)],
        (_n(2), Param("--lambda", "lambdas", rational, action="append",
                      help="fiber parameter, repeatable; rational literals like 1/2")),
        sweep=list,
    ),
    Check(
        "takanori", "the C1 = C2 = B_1 isomorphism chain",
        lambda a, field: [cmd_takanori(field), cmd_takanori_repaired(field)],
        sweep=lambda ns: [None],  # once: it takes no n
    ),
    Check(
        "samuel", "UFD-criterion hypotheses",
        lambda a, field: [cmd_samuel(a.n, field)], (_n(1),), sweep=list,
    ),
    Check(
        "localization", "Laurent chart generator identity",
        lambda a, field: [cmd_localization(a.n, field)], (_n(1),), sweep=list,
    ),
    Check(
        "main-identities", "non-isomorphism identity chain",
        lambda a, field: [cmd_main_identities(a.n, field)], (_n(2),),
        sweep=lambda ns: [n for n in ns if n >= 2],
    ),
    Check(
        "degree-probe", "exhaustive weight non-negativity probe",
        lambda a, field: [cmd_degree_probe(n_max=a.n, box=a.box)],
        (_n(5, "check all n up to this bound"),
         Param("--box", "box", positive_int, 5, "weight box half-width")),
        sweep=lambda ns: [max(ns)],
    ),
    Check("all", "every check at default parameters",
          lambda a, field: run_all(field)),
)}


def run_all(field=QQ, n_values=(1, 2, 3, 4, 5)) -> list:
    """Every check of the registry at its default parameters and each of its
    sweep's n values, sorted by claim id."""
    reports = []
    for check in CHECKS.values():
        defaults = {p.dest: p.default for p in check.params}
        for n in check.sweep(n_values) if check.sweep else ():
            params = SimpleNamespace(**defaults | {"n": n})
            reports.extend(check.run(params, field))
    return sorted(reports, key=lambda r: r.claim_id)
