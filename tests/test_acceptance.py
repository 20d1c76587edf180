"""End-to-end acceptance suite.

Each test pins one headline computation at zero tolerance (exact symbolic
equality) together with a wall-clock budget.  The literal two-generator
isomorphism chain is false at the ideal level, and `affmod takanori` reports
it failed.  test_2 pins that failure: it asserts the truth of each literal
step, with the witnesses that refute the false ones.  test_2b pins the
repaired chain through the saturated ideal, which holds.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from affmod import (
    AFFINE_LINE,
    GREVLEX,
    Ideal,
    buchberger_gb,
    divide_multi,
    format_poly,
    fraction,
    ideals_equal,
    normal_form,
    parse_poly,
    probe_nonnegativity,
    punctured_line,
    ring,
    samuel_check,
    union,
    valuation_degree,
)
from affmod.degrees import exhaustive_probe, probe_elements
from affmod.fibers import fiber_table
from affmod.poly import exact_div, reduce_mod
from affmod.rings import build_Bn, build_C1, build_C2, c1_alternate_ideal, c1_to_c2_map
from affmod.scalars import QQ, PrimeField

from conftest import random_poly
from naive_gb import naive_buchberger

RXY = ring("x", "y")


class Budget:
    """Wall-clock budget in seconds, checked on exit."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.seconds, f"budget {self.seconds}s exceeded: {elapsed:.2f}s"


def test_1_fiber_table_reproduction():
    with Budget(5):
        lambdas = [0, 1, 2, -1, Fraction(1, 2)]
        for n in (1, 2, 3, 4, 5):
            expected = {}
            for lam in (2, -1, Fraction(1, 2)):
                expected[("x", lam)] = punctured_line(1)
                expected[("u", lam)] = punctured_line(1)
                expected[("y", lam)] = punctured_line(n)
            for gen in ("x", "u", "y"):
                expected[(gen, Fraction(0))] = AFFINE_LINE
                expected[(gen, 0)] = AFFINE_LINE
            two_lines = union([AFFINE_LINE, AFFINE_LINE])
            expected[("x", 1)] = two_lines
            if n >= 2:
                expected[("u", 1)] = union([AFFINE_LINE, punctured_line(1)])
                expected[("y", 1)] = union([AFFINE_LINE, punctured_line(n - 1)])
            else:
                expected[("u", 1)] = two_lines
                expected[("y", 1)] = two_lines
            for generator, lam, _fiber, curve_class in fiber_table(
                    build_Bn(n).defining.generators[0], lambdas):
                assert curve_class == expected[(generator, lam)], (
                    n,
                    generator,
                    lam,
                    str(curve_class),
                )


def test_2_two_generator_isomorphism_chain_as_stated():
    """The literal chain fails, and fails exactly where the transcript says.

    J = (x(uv-1)+(v+1), y(uv-1)+(u+1)) is strictly smaller than
    I = (ux-(y-1), vy-(x-1)): the plane u = v = -1 kills both generators of
    J identically while u*x - (y - 1) restricts to 1 - x - y there, so
    uv - 1 is a zero divisor modulo J and the classical cancellation that
    derives 1 + ux = y is invalid.  Likewise V = 1 - YU fails in C2, at a
    point where both of its relations vanish.  The inequalities are shown
    by substitution witnesses that need no Groebner basis, and the naive
    engine confirms them independently of buchberger_gb.  test_2b pins the
    repaired chain.
    """
    with Budget(2):
        c1 = build_C1()
        c2 = build_C2()
        ideal_I = c1.defining
        ideal_J = c1_alternate_ideal()
        amb = c1.ambient
        x, y, u, v = amb.gens()

        # J is contained in I, but not the other way round
        assert all(ideal_I.contains(g) for g in ideal_J.generators)
        plane = {"u": -1, "v": -1}
        assert all(g.substitute(plane).is_zero for g in ideal_J.generators)
        assert (u * x - (y - 1)).substitute(plane) == 1 - x - y
        assert ideals_equal(ideal_I, ideal_J) is False

        # so the classical derivations of 1 + ux = y and 1 + vy = x fail
        assert not normal_form(1 + u * x - y, ideal_J).is_zero
        assert not normal_form(1 + v * y - x, ideal_J).is_zero

        # uv - 1 is a zero divisor modulo J: neither factor lies in J
        # (at x = y = 1, u = v = 0 both generators of J vanish, uv - 1 = -1)
        assert ideal_J.contains((u * v - 1) * (u * x - y + 1))
        point_j = {"x": 1, "y": 1, "u": 0, "v": 0}
        assert all(g.substitute(point_j).is_zero for g in ideal_J.generators)
        assert (u * v - 1).substitute(point_j) == -1

        # the one literal step that holds: phi carries J's generators onto
        # the defining relations of C2
        phi = c1_to_c2_map()
        images = [g.substitute(phi, target=c2.ambient) for g in ideal_J.generators]
        assert images == c2.defining.generators

        # V = 1 - YU fails in C2: both relations vanish at X = Y = 1,
        # U = V = 0, where V - 1 + YU = -1, in every characteristic
        point_c2 = {"X": 1, "Y": 1, "U": 0, "V": 0}
        for field in (QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(101)):
            c2_field = build_C2(field)
            X, Y, U, V = c2_field.ambient.gens()
            assert all(g.substitute(point_c2).is_zero
                       for g in c2_field.defining.generators)
            assert (V - 1 + Y * U).substitute(point_c2) == -1
        X, Y, U, V = c2.ambient.gens()
        assert c2.equal(V, 1 - Y * U) is False

        # the verdict does not rest on the engine under test alone
        naive_I = naive_buchberger(ideal_I.generators, GREVLEX)
        naive_J = naive_buchberger(ideal_J.generators, GREVLEX)
        assert naive_J == buchberger_gb(ideal_J.generators, GREVLEX)
        assert naive_I != naive_J


def test_2b_isomorphism_chain_through_saturated_ideal():
    with Budget(2):
        c1 = build_C1()
        c2 = build_C2()
        amb2 = c2.ambient
        X, Y, U, V = amb2.gens()
        saturated = Ideal([Y * U + V - 1, X * V + U - 1], GREVLEX)

        # the literal C2 relations hold modulo the saturated ideal, and the
        # saturated ideal is reached from C2's by clearing the zero divisor
        assert all(saturated.contains(g) for g in c2.defining.generators)
        assert c2.defining.contains((X * Y - 1) * (V - 1 + Y * U))

        phi = c1_to_c2_map()
        images = [g.substitute(phi, target=amb2) for g in c1.defining.generators]
        assert ideals_equal(Ideal(images, GREVLEX), saturated)

        # eliminating V = 1 - Y*U identifies the quotient with the n=1 ring
        amb1 = ring("x", "y", "u")
        xb, yb, ub = amb1.gens()
        b1_ideal = Ideal([ub * (xb * yb - 1) - (xb - 1)], GREVLEX)
        elim = {"X": xb, "Y": yb, "U": ub, "V": 1 - yb * ub}
        assert all(
            b1_ideal.contains(g.substitute(elim, target=amb1))
            for g in saturated.generators
        )
        back = b1_ideal.generators[0].substitute({"x": X, "y": Y, "u": U}, target=amb2)
        assert saturated.contains(back)


def test_3_samuel_hypotheses():
    with Budget(2):
        x, y = RXY.gens()
        for n in (1, 2, 3, 4, 5):
            rep = samuel_check(x**n * y - 1, x - 1)
            assert rep.verdict == "hypotheses-verified"
            assert rep.quotient_a_class == punctured_line(1)
            assert rep.quotient_b_class == AFFINE_LINE
            assert rep.point == (1, 1)
            assert rep.sum_colength == 1


def test_4_degree_rigidity_weight_probe():
    with Budget(2):
        results = exhaustive_probe(range(1, 6), 5)
        assert len(results) == 5 * (11 * 11 - 1)
        assert all(r["verdict"] == "witness" for r in results)
        # regression fixture: the probe without v misses exactly this weight
        assert probe_nonnegativity(probe_elements(1, ("x", "y", "u")), [(1, 0)]) == [None]
        (witness, _degree), = probe_nonnegativity(probe_elements(1), [(1, 0)])
        assert witness == "v"


def test_5_localization_identity():
    with Budget(1):
        x, y = RXY.gens()
        for n in (1, 2, 3, 4, 5):
            t = x**n * y - 1
            assert (y * x**n - (t + 1)).is_zero
            assert exact_div(t + 1, x**n) == y


def test_6_main_identities():
    with Budget(2):
        r = ring("x", "y", "Y", "c")
        x, y, Y, c = r.gens()
        for n in (2, 3, 4, 5):
            X = c * y
            T = X**n * Y - 1
            t = x * y - 1
            lhs = T * t - (1 - y)
            assert lhs == X**n * Y * x * y - X**n * Y - x * y + y
            assert all(m[r.index("y")] >= 1 for m in lhs.terms)
            assert exact_div(lhs, y) == X**n * Y * x - c * X ** (n - 1) * Y - x + 1
            solutions = [
                (dx, dy, du)
                for dx, dy, du in product(range(11), repeat=3)
                if dx == du + n * dx + dy
            ]
            assert solutions == [(0, 0, 0)]


def test_7_kernel_property_suites():
    with Budget(60):
        rng = random.Random(20260824)

        # Groebner oracle equivalence: byte-identical reduced bases
        checked = 0
        while checked < 20:
            gens = [
                random_poly(rng, RXY, max_terms=3, max_exp=3)
                for _ in range(rng.randint(1, 3))
            ]
            if all(g.is_zero for g in gens):
                continue
            assert buchberger_gb(gens, GREVLEX) == naive_buchberger(gens, GREVLEX)
            checked += 1

        # division reconstruction on >= 200 instances
        from affmod.poly import mono_divides

        for _ in range(200):
            p = random_poly(rng, RXY, max_terms=4, max_exp=4)
            divisors = [
                d
                for d in (random_poly(rng, RXY, max_terms=3, max_exp=3) for _ in range(rng.randint(1, 3)))
                if not d.is_zero
            ]
            if not divisors:
                divisors = [RXY.var("x")]
            qs, rem = divide_multi(p, divisors, GREVLEX)
            assert sum((q * d for q, d in zip(qs, divisors)), rem) == p
            lead = [d.leading(GREVLEX)[0] for d in divisors]
            for mono in rem.terms:
                assert not any(mono_divides(lm, mono) for lm in lead)

        # parse/format round trip on >= 500 polynomials
        r3 = ring("x", "y", "u")
        for _ in range(500):
            p = random_poly(rng, r3, max_terms=5, max_exp=4)
            assert parse_poly(format_poly(p), r3) == p

        # weight-degree multiplicativity on >= 200 nonzero pairs
        done = 0
        while done < 200:
            p = random_poly(rng, RXY, max_terms=4, max_exp=4)
            q = random_poly(rng, RXY, max_terms=4, max_exp=4)
            if p.is_zero or q.is_zero:
                continue
            w = (rng.randint(-5, 5), rng.randint(-5, 5))
            (dpq,), (dp,), (dq,) = (valuation_degree(fraction(f), [w])
                                     for f in (p * q, p, q))
            assert dpq == dp + dq
            done += 1
