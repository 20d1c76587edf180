from fractions import Fraction

import pytest

from affmod import (
    GREVLEX,
    Ideal,
    PresentedRing,
    Ring,
    build_Bn,
    build_C1,
    build_C2,
    ring,
    samuel_check,
    verify_ring_map,
)
from affmod import fibers, rings
from affmod.rings import c1_alternate_ideal, c1_to_c2_map, certify_irreducible
from affmod.scalars import PrimeField

from conftest import in_ring

RXY = ring("x", "y")


def build_modification(a, b) -> PresentedRing:
    """Oracle for build_Bn: the ring A[b/a] over A = k[x, y], presented as
    k[x, y, u] / (a*u - b)."""
    if a.is_zero or a.is_constant():
        raise ValueError("a must be a nonzero non-unit")
    if b.is_zero or b.is_constant():
        raise ValueError("b must be a nonzero non-unit")
    if a.ring.variables != ("x", "y"):
        raise ValueError("modification is built over the base ring k[x, y]")
    ambient = Ring(("x", "y", "u"), a.ring.field)
    u = ambient.var("u")
    rel = in_ring(a, ambient) * u - in_ring(b, ambient)
    return PresentedRing(ambient, Ideal([rel], GREVLEX), ("x", "y", "u"))


class TestBuilders:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bn_relation(self, n):
        b = build_Bn(n)
        x, y, u = b.ambient.gens()
        assert not b.defining.contains(b.ambient.one())
        assert b.defining.contains(u * (x**n * y - 1) - (x - 1))

    @pytest.mark.parametrize("field", [None, PrimeField(3)])
    def test_bn_is_the_modification(self, field):
        field_arg = {} if field is None else {"field": field}  # None: the default
        base = ring("x", "y", **field_arg)
        x, y = base.gens()
        for n in (1, 2, 5):
            b, m = build_Bn(n, **field_arg), build_modification(x**n * y - 1, x - 1)
            assert (b.ambient, b.defining.generators, b.generators) == (
                m.ambient, m.defining.generators, m.generators)

    def test_bn_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_Bn(0)

    def test_modification_rejects_units(self):
        x, y = RXY.gens()
        with pytest.raises(ValueError):
            build_modification(RXY.one(), x - 1)
        with pytest.raises(ValueError):
            build_modification(x * y - 1, RXY.zero())

    def test_c1_c2_proper(self):
        for c in (build_C1(), build_C2()):
            assert not c.defining.contains(c.ambient.one())

    def test_prime_field_builder(self):
        b = build_Bn(2, field=PrimeField(7))
        assert b.ambient.field == PrimeField(7)
        assert not b.defining.contains(b.ambient.one())


class TestQuotientEquality:
    def test_u_x_relation_in_c1(self):
        c1 = build_C1()
        x, y, u, v = c1.ambient.gens()
        # 1 + u*x = y is literally the first defining generator
        assert c1.equal(1 + u * x, y)
        assert c1.equal(1 + v * y, x)

    def test_same_relations_fail_mod_alternate_ideal(self):
        J = c1_alternate_ideal()
        amb = J.ring
        x, y, u, v = amb.gens()
        fake = PresentedRing(amb, J, amb.variables)
        assert not fake.equal(1 + u * x, y)
        assert not fake.equal(1 + v * y, x)

    def test_v_is_not_1_minus_yu_in_c2(self):
        c2 = build_C2()
        X, Y, U, V = c2.ambient.gens()
        assert not c2.equal(V, 1 - Y * U)
        # but the product with the zero divisor X*Y-1 does vanish
        assert c2.defining.contains((X * Y - 1) * (V - 1 + Y * U))

    def test_bn_u_inverts_denominator(self):
        b = build_Bn(3)
        x, y, u = b.ambient.gens()
        assert b.equal(u * (x**3 * y - 1), x - 1)


class TestRingMaps:
    @staticmethod
    def saturated_c2() -> PresentedRing:
        amb = build_C2().ambient
        X, Y, U, V = amb.gens()
        return PresentedRing(
            amb, Ideal([Y * U + V - 1, X * V + U - 1], GREVLEX), amb.variables
        )

    def test_c1_to_c2_literal_target_rejected(self):
        # the image of C1's ideal is the saturation of C2's two-generator
        # ideal, strictly larger than that ideal, so the map is not
        # well-defined into the literal presentation
        assert not verify_ring_map(build_C1().defining, build_C2(), c1_to_c2_map())

    def test_c1_to_c2_saturated_target_verified(self):
        assert verify_ring_map(build_C1().defining, self.saturated_c2(), c1_to_c2_map())

    def test_alternate_ideal_to_saturated_target_verified(self):
        # J lies in C1's ideal, so its relations map into the saturation too;
        # the check asks only that the map be well-defined
        assert verify_ring_map(c1_alternate_ideal(), self.saturated_c2(), c1_to_c2_map())

    def test_c1_to_c2_images_hit_alternate_generators(self):
        phi = c1_to_c2_map()
        c2 = build_C2()
        J = c1_alternate_ideal()
        images = [g.substitute(phi, target=c2.ambient) for g in J.generators]
        assert images == c2.defining.generators
        assert verify_ring_map(J, c2, phi)

    def test_mutated_map_rejected(self):
        phi = c1_to_c2_map()
        c2 = build_C2()
        bad = {**phi, "u": c2.ambient.var("Y")}  # sign dropped
        assert not verify_ring_map(c1_alternate_ideal(), c2, bad)
        assert not verify_ring_map(build_C1().defining, self.saturated_c2(), bad)

    def test_missing_image_rejected(self):
        partial = {k: v for k, v in c1_to_c2_map().items() if k != "v"}
        with pytest.raises(ValueError, match=r"missing images for \['v'\]"):
            verify_ring_map(build_C1().defining, build_C2(), partial)


class TestIrreducibility:
    def test_linear_certificates(self):
        x, y = RXY.gens()
        assert certify_irreducible(x**2 * y - 1) is True
        assert certify_irreducible(x - 1) is True
        assert certify_irreducible(x * y - 1) is True

    def test_visible_factorizations(self):
        x, y = RXY.gens()
        assert certify_irreducible(x**2) is False
        assert certify_irreducible(x * (x - 1)) is False
        assert certify_irreducible(x**3 * y - x) is False
        assert certify_irreducible(RXY.one()) is False

    def test_out_of_scope(self):
        x, y = RXY.gens()
        assert certify_irreducible(x**2 * y**2 - 1) is None

    def test_relatively_prime(self):
        x, y = RXY.gens()
        assert samuel_check(x**2 * y - 1, x - 1).relatively_prime is True
        assert samuel_check(x - 1, 3 * x - 3).relatively_prime is False
        assert samuel_check(x**2, x - 1).relatively_prime is None


class TestSamuelCheck:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bn_pair_verified(self, n):
        x, y = RXY.gens()
        rep = samuel_check(x**n * y - 1, x - 1)
        assert rep.verdict == "hypotheses-verified"
        assert rep.point == (1, 1)
        assert rep.sum_colength == 1
        assert str(rep.quotient_a_class) == "A^1_*"
        assert str(rep.quotient_b_class) == "A^1"

    def test_reducible_a_fails(self):
        x, y = RXY.gens()
        rep = samuel_check(x * (x - 1), y - 1)
        assert rep.verdict == "failed"
        assert rep.a_irreducible is False

    def test_square_fails(self):
        x, y = RXY.gens()
        rep = samuel_check(x**2, y)
        assert rep.verdict == "failed"

    def test_non_point_center_fails(self):
        x, y = RXY.gens()
        rep = samuel_check(x * y - 1, x - y)  # meets in two points
        assert rep.verdict == "failed"
        assert rep.sum_colength == 2

    def test_out_of_scope_is_unknown_not_failed(self):
        x, y = RXY.gens()
        # a is not linear in any variable, so irreducibility and the curve
        # class are undecided, but every decidable hypothesis passes
        rep = samuel_check(x**2 * y**2 + y - 1, x)
        assert rep.verdict == "unknown"
        assert rep.a_irreducible is None
        assert rep.sum_colength == 1 and rep.point == (0, 1)

    def test_certifies_each_curve_once(self, monkeypatch):
        # b = x - 1 is univariate and needs no linear decomposition
        calls, real = [], fibers.linear_form
        monkeypatch.setattr(fibers, "linear_form", lambda p: calls.append(p) or real(p))
        monkeypatch.setattr(rings, "linear_form", lambda p: calls.append(p) or real(p))
        x, y = RXY.gens()
        a = x**3 * y - 1
        assert samuel_check(a, x - 1).verdict == "hypotheses-verified"
        assert calls == [a]

    def test_irreducibility_matches_certificate(self):
        # samuel_check reads a two-variable curve's irreducibility off its class
        x, y = RXY.gens()
        for a in (x**2 * y - 1, x**2 + y, x**3 * y - x, (x - 1) * (y - 1),
                  (x**2 - 1) * (y + x), x**2 * y**2 - 1, x**2, x - 1, RXY.one()):
            assert samuel_check(a, x - 1).a_irreducible is certify_irreducible(a), a

    def test_wrong_ring_rejected(self):
        r3 = ring("x", "y", "u")
        with pytest.raises(ValueError):
            samuel_check(r3.var("x"), r3.var("y"))
