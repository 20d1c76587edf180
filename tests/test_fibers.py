import ast
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from affmod import (
    AFFINE_LINE,
    EMPTY,
    CurveClass,
    build_Bn,
    classify_curve,
    expected_fiber_class,
    fiber_poly,
    fiber_table,
    punctured_line,
    ring,
    union,
)
from affmod import fibers, rings, verifier
from affmod.fibers import unknown
from affmod.scalars import QQ, PrimeField

RXY = ring("x", "y")
RYU = ring("y", "u")


def relation(n, field=QQ):
    """The relation of B_n, which fiber_poly and fiber_table specialize."""
    return build_Bn(n, field).defining.generators[0]
RXU = ring("x", "u")


class TestCurveClass:
    def test_str(self):
        assert str(AFFINE_LINE) == "A^1"
        assert str(punctured_line(1)) == "A^1_*"
        assert str(punctured_line(3)) == "A^1_*3"
        assert str(union([punctured_line(1), AFFINE_LINE])) == "A^1 u A^1_*"

    def test_zero_punctures_collapse(self):
        assert punctured_line(0) == AFFINE_LINE

    def test_union_is_order_insensitive(self):
        a = union([AFFINE_LINE, punctured_line(2)])
        b = union([punctured_line(2), AFFINE_LINE])
        assert a == b

    def test_union_flattens(self):
        nested = union([AFFINE_LINE, union([AFFINE_LINE, punctured_line(1)])])
        assert nested == union([AFFINE_LINE, AFFINE_LINE, punctured_line(1)])

    def test_singleton_collapses(self):
        assert union([punctured_line(2)]) == punctured_line(2)
        assert union([]) == EMPTY and str(EMPTY) == "Empty"

    @pytest.mark.parametrize("parts", list(permutations(
        [punctured_line(3), AFFINE_LINE, punctured_line(1)])))
    def test_mixed_union_is_sorted(self, parts):
        mixed = union(parts)
        assert str(mixed) == "A^1 u A^1_* u A^1_*3"
        assert mixed.punctures == (0, 1, 3)

    def test_unknown_needs_a_reason(self):
        with pytest.raises(ValueError):
            unknown("")
        assert unknown("r").reason == "r" and unknown("r") != EMPTY

    def test_union_rejects_unknown_part(self):
        unknown = classify_curve(RXY.zero())
        with pytest.raises(ValueError):
            union([AFFINE_LINE, unknown])

    def test_negative_punctures_rejected(self):
        with pytest.raises(ValueError):
            punctured_line(-1)


class TestClassify:
    def test_lines_and_hyperbola(self):
        x, y = RXY.gens()
        assert classify_curve(x - 1) == AFFINE_LINE
        assert classify_curve(y) == AFFINE_LINE
        assert classify_curve(x * y - 1) == punctured_line(1)

    def test_graph_is_a_line(self):
        x, y = RXY.gens()
        assert classify_curve(y - x**3) == AFFINE_LINE

    def test_common_factor_splits_off_lines(self):
        x, y = RXY.gens()
        assert classify_curve(x**3 * y - x**2) == union(
            [AFFINE_LINE, punctured_line(1)]
        )

    def test_two_parallel_lines(self):
        x, y = RXY.gens()
        assert classify_curve(x**2 - 1) == union([AFFINE_LINE, AFFINE_LINE])

    def test_repeated_line_is_reduced(self):
        x, _ = RXY.gens()
        assert classify_curve(x**2) == AFFINE_LINE

    def test_nonzero_constant_is_empty(self):
        assert classify_curve(RXY.const(5)) == EMPTY

    def test_quadratic_in_both_is_unknown(self):
        x, y = RXY.gens()
        assert classify_curve(x**2 * y**2 - 1).reason

    def test_zero_is_unknown(self):
        assert classify_curve(RXY.zero()).reason

    def test_substitution_invariance(self):
        # x -> x + 3, y -> y - 2 is an affine automorphism of the plane
        x, y = RXY.gens()
        for p in (x * y - 1, x**3 * y - x**2, x**2 - 1, y - x**3):
            moved = p.substitute({"x": x + 3, "y": y - 2})
            assert classify_curve(moved) == classify_curve(p)

    def test_char_p_degree_at_least_p_is_decided(self):
        r5 = ring("x", "y", field=PrimeField(5))
        x, y = r5.gens()
        assert classify_curve(x**5 * y - 1) == punctured_line(1)
        assert classify_curve(x**6 * y - x) == union([AFFINE_LINE, punctured_line(1)])
        # x^5 - 1 = (x - 1)^5 over GF(5): one line, not five
        assert classify_curve(x**5 - 1) == AFFINE_LINE


class TestFiberPoly:
    def test_x_fiber(self):
        p = fiber_poly(relation(2), "x", 2)
        y, u = RYU.gens()
        assert p.substitute({"x": 0}, target=RYU) == u * (4 * y - 1) - 1

    def test_rejects_unknown_generator(self):
        with pytest.raises(ValueError):
            fiber_poly(relation(2), "v", 1)

    def test_relation_specializes(self):
        rel = build_Bn(3).defining.generators[0]
        assert fiber_poly(rel, "u", 0) == rel.substitute({"u": 0})


    def test_cmd_fibers_builds_Bn_once(self, monkeypatch):
        built = []

        def counting(n, field=QQ):
            built.append(n)
            return build_Bn(n, field)

        for module in (rings, verifier):
            monkeypatch.setattr(module, "build_Bn", counting)
        assert verifier.cmd_fibers(30).status == "verified"
        assert built == [30]

    def test_fibers_imports_nothing_from_rings(self):
        """rings imports fibers, so an import the other way is a cycle."""
        names = []
        for node in ast.walk(ast.parse(Path(fibers.__file__).read_text())):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        assert not [name for name in names if "rings" in name.split(".")]


class TestFiberClassification:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_table_matches_expected(self, n):
        lambdas = [0, 1, 2, -1, Fraction(1, 2)]
        for generator, lam, _fiber, curve_class in fiber_table(relation(n), lambdas):
            expected, _note = expected_fiber_class(n, generator, lam)
            assert curve_class == expected, (n, generator, lam)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_y_fibers_detect_n(self, n):
        # the generic y-fiber has exactly n punctures: it recovers n
        assert classify_curve(fiber_poly(relation(n), "y", 2)) == punctured_line(n)
        assert classify_curve(fiber_poly(relation(n), "y", -3)) == punctured_line(n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reducible_fibers(self, n):
        assert classify_curve(fiber_poly(relation(n), "u", 1)) == union(
            [AFFINE_LINE, punctured_line(1)]
        )
        assert classify_curve(fiber_poly(relation(n), "y", 1)) == union(
            [AFFINE_LINE, punctured_line(n - 1)]
        )

    def test_n1_degenerations(self):
        two_lines = union([AFFINE_LINE, AFFINE_LINE])
        assert classify_curve(fiber_poly(relation(1), "u", 1)) == two_lines
        assert classify_curve(fiber_poly(relation(1), "y", 1)) == two_lines
        for gen in ("u", "y"):
            expected, note = expected_fiber_class(1, gen, 1)
            assert expected == two_lines and note is not None

    def test_generic_x_and_u_fibers_are_once_punctured(self):
        for n in (1, 2, 3):
            for lam in (2, -1, Fraction(1, 2)):
                assert classify_curve(fiber_poly(relation(n), "x", lam)) == punctured_line(1)
                assert classify_curve(fiber_poly(relation(n), "u", lam)) == punctured_line(1)

    def test_zero_fibers_are_lines(self):
        for gen in ("x", "u", "y"):
            assert classify_curve(fiber_poly(relation(3), gen, 0)) == AFFINE_LINE

    def test_every_fiber_is_nonempty_and_reduced_class(self):
        for n in (1, 2, 3):
            for *_, curve_class in fiber_table(relation(n), [0, 1, 2, -1]):
                assert curve_class.punctures and not curve_class.reason

    @pytest.mark.parametrize(
        "p, n, y_one, y_lam",
        [
            (3, 2, 1, 2),  # p does not divide n: the n-1 roots of unity besides 1
            (3, 3, 1, 1),  # 1 + x + x^2 = (x - 1)^2 in F_3
            (5, 5, 1, 1),
            (7, 7, 1, 1),
            (3, 6, 2, 2),  # n' = 2: x^6 - 1 = (x^2 - 1)^3
            (5, 10, 2, 2),
        ],
    )
    def test_y_fibers_count_prime_to_p_roots(self, p, n, y_one, y_lam):
        fp = PrimeField(p)
        for lam, expected in ((1, union([AFFINE_LINE, punctured_line(y_one)])),
                              (2, punctured_line(y_lam))):
            got, note = expected_fiber_class(n, "y", lam, field=fp)
            assert got == expected
            assert (note is not None) == (n % p == 0)
            computed = classify_curve(fiber_poly(relation(n, fp), "y", fp.from_int(lam)))
            assert computed.reason or computed == expected

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_y_one_fiber_at_n_equal_p_is_decided(self, p):
        # the single puncture the library computes is right, not a false red
        fp = PrimeField(p)
        expected, _ = expected_fiber_class(p, "y", 1, field=fp)
        assert expected == union([AFFINE_LINE, punctured_line(1)])
        assert classify_curve(fiber_poly(relation(p, fp), "y", fp.one)) == expected

    def test_prime_field_small_cases(self):
        fp = PrimeField(101)
        assert classify_curve(fiber_poly(relation(2, fp), "y", fp.from_int(3))) == punctured_line(2)
        expected, _ = expected_fiber_class(2, "y", 3, field=fp)
        assert expected == punctured_line(2)
