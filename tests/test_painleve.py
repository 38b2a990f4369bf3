import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from triladder import painleve
from triladder.grid import GridSpec

EXPECTED = {
    (1, 2, 3): (Fraction(0), Fraction(-2, 9)),
    (2, 1, 3): (Fraction(-1), Fraction(-8, 9)),
    (3, 1, 2): (Fraction(-2), Fraction(-2, 9)),
}


class TestParameters:
    @pytest.mark.parametrize("ordering", list(EXPECTED))
    def test_exact_pairs(self, ordering):
        seed = painleve.ExtremalSeed(ordering)
        assert painleve.piv_parameters(seed) == EXPECTED[ordering]

    def test_energies_tilde_values(self):
        seed = painleve.ExtremalSeed((1, 2, 3))
        assert seed.energies_tilde == (
            Fraction(1, 6),
            Fraction(1, 2),
            Fraction(5, 6),
        )

    def test_sign_variant_breaks_table(self):
        # flipping the seed-energy term to +2 e1 is detectably wrong
        seed = painleve.ExtremalSeed((1, 2, 3))
        e1, e2, e3 = seed.energies_tilde
        assert e2 + e3 + 2 * e1 - 1 == Fraction(2, 3) != EXPECTED[(1, 2, 3)][0]

    def test_all_orderings_b_nonpositive(self):
        for ordering in itertools.permutations((1, 2, 3)):
            _, b = painleve.piv_parameters(painleve.ExtremalSeed(ordering))
            assert b <= 0

    def test_b_invariant_under_tail_swap(self):
        for first in (1, 2, 3):
            rest = [j for j in (1, 2, 3) if j != first]
            b1 = painleve.piv_parameters(
                painleve.ExtremalSeed((first, rest[0], rest[1]))
            )[1]
            b2 = painleve.piv_parameters(
                painleve.ExtremalSeed((first, rest[1], rest[0]))
            )[1]
            assert b1 == b2

    def test_invalid_ordering(self):
        with pytest.raises(ValueError):
            painleve.ExtremalSeed((1, 2, 2))
        with pytest.raises(ValueError):
            painleve.ExtremalSeed((0, 1, 2))


class TestSolutionsFromSeeds:
    def test_seed1_linear(self):
        sol = painleve.solution_from_extremal(painleve.ExtremalSeed((1, 2, 3)))
        assert sol.singularities == ()
        for y in (-3.0, 0.5, 2.0):
            assert sol.g(y) == pytest.approx(-2 * y / 3, abs=1e-15)
        assert (sol.a_param, sol.b_param) == (0.0, -2.0 / 9.0)

    def test_seed2_pole_at_origin(self):
        sol = painleve.solution_from_extremal(painleve.ExtremalSeed((2, 1, 3)))
        assert sol.singularities == (0.0,)
        assert sol.g(2.0) == pytest.approx(-2 * 2 / 3 - 1 / 2, abs=1e-15)
        assert (sol.a_param, sol.b_param) == (-1.0, -8.0 / 9.0)

    def test_seed3_two_poles(self):
        sol = painleve.solution_from_extremal(painleve.ExtremalSeed((3, 1, 2)))
        assert sol.singularities == (-math.sqrt(1.5), math.sqrt(1.5))
        y = 2.0
        assert sol.g(y) == pytest.approx(-2 * y / 3 - 4 * y / (2 * y * y - 3))
        assert (sol.a_param, sol.b_param) == (-2.0, pytest.approx(-2.0 / 9.0))

    @pytest.mark.parametrize("first", [1, 2, 3])
    def test_analytic_derivatives_match_stencils(self, first):
        ordering = (first,) + tuple(j for j in (1, 2, 3) if j != first)
        sol = painleve.solution_from_extremal(painleve.ExtremalSeed(ordering))
        h = 1e-5
        for y in (-4.3, -1.7, 0.8, 2.9):
            if any(abs(y - p) < 0.3 for p in sol.singularities):
                continue
            fd1 = (sol.g(y + h) - sol.g(y - h)) / (2 * h)
            fd2 = (sol.g(y + h) - 2 * sol.g(y) + sol.g(y - h)) / (h * h)
            assert sol.g_prime(y) == pytest.approx(fd1, rel=1e-8, abs=1e-8)
            assert sol.g_double_prime(y) == pytest.approx(fd2, rel=1e-4, abs=1e-4)


class TestResidual:
    def test_pointwise_zero(self):
        sol1 = painleve.solution_from_extremal(painleve.ExtremalSeed((1, 2, 3)))
        assert abs(painleve.piv_residual(sol1, 1.0)) < 1e-12
        sol2 = painleve.solution_from_extremal(painleve.ExtremalSeed((2, 1, 3)))
        assert abs(painleve.piv_residual(sol2, 2.0)) < 1e-12

    def test_zero_of_g_raises(self):
        sol1 = painleve.solution_from_extremal(painleve.ExtremalSeed((1, 2, 3)))
        with pytest.raises(ZeroDivisionError):
            painleve.piv_residual(sol1, 0.0)

    def test_symmetric_limit_near_origin(self):
        # the 1/g and cubic terms cancel; the y -> 0 limit of the residual is 0
        sol1 = painleve.solution_from_extremal(painleve.ExtremalSeed((1, 2, 3)))
        for y in (1e-3, -1e-3, 1e-2, -1e-2):
            assert abs(painleve.piv_residual(sol1, y)) < 1e-10

    def test_singularity_neighborhood_raises(self):
        sol2 = painleve.solution_from_extremal(painleve.ExtremalSeed((2, 1, 3)))
        with pytest.raises(painleve.SingularPointError):
            painleve.piv_residual(sol2, 0.05)
        # outside the radius it evaluates fine
        assert abs(painleve.piv_residual(sol2, 0.15)) < 1e-9


class TestResidualScan:
    GRID = GridSpec(-5.0, 5.0, 1001)

    @pytest.mark.parametrize("ordering", list(EXPECTED))
    def test_all_solutions_pass(self, ordering):
        sol = painleve.solution_from_extremal(painleve.ExtremalSeed(ordering))
        points = painleve.residual_scan(sol, self.GRID)
        included = [abs(p.residual) for p in points if not p.excluded]
        assert included and max(included) < 1e-10

    def test_dense_grid_tol(self):
        grid = GridSpec(-10.0, 10.0, 2001)
        for sol in painleve.builtin_solutions():
            points = painleve.residual_scan(sol, grid)
            worst = max(abs(p.residual) for p in points if not p.excluded)
            assert worst < 1e-10

    def test_seed3_exclusion_set(self):
        sol = painleve.solution_from_extremal(painleve.ExtremalSeed((3, 1, 2)))
        points = painleve.residual_scan(sol, self.GRID)
        for p in points:
            if abs(2 * p.y * p.y - 3) < 0.1:
                assert p.excluded
        assert any(p.excluded for p in points)

    def test_excluded_points_carry_nan(self):
        sol = painleve.solution_from_extremal(painleve.ExtremalSeed((2, 1, 3)))
        for p in painleve.residual_scan(sol, self.GRID):
            if p.excluded:
                assert math.isnan(p.residual)
            else:
                assert math.isfinite(p.residual)

    def test_zero_of_g_excluded_not_crashing(self):
        # seed 1 has no poles, but g vanishes at the origin; the scan must
        # mark that single point instead of reporting 0/0 noise
        sol = painleve.solution_from_extremal(painleve.ExtremalSeed((1, 2, 3)))
        points = painleve.residual_scan(sol, self.GRID)
        excluded = [p for p in points if p.excluded]
        assert len(excluded) == 1
        assert abs(excluded[0].y) < 1e-9

    def test_perturbed_solution_detected(self):
        base = painleve.solution_from_extremal(painleve.ExtremalSeed((1, 2, 3)))
        bumped = painleve.PIVSolution(
            g=lambda y: base.g(y) + 0.01,
            g_prime=base.g_prime,
            g_double_prime=base.g_double_prime,
            a_param=base.a_param,
            b_param=base.b_param,
        )
        points = painleve.residual_scan(bumped, self.GRID)
        worst = max(abs(p.residual) for p in points if not p.excluded)
        assert worst > 1e-3


def scalar_scan(sol, grid):
    """The per-point loop of scalar g and piv_residual calls, kept as the oracle."""
    gs, residuals, excluded = [], [], []
    for y in grid.x_values().tolist():
        try:
            g = sol.g(y)
        except ZeroDivisionError:
            g = math.nan
        skip = (
            any(abs(y - pole) < painleve.DEFAULT_DELTA for pole in sol.singularities)
            or not math.isfinite(g)
            or abs(g) < painleve.G_FLOOR
        )
        gs.append(g)
        residuals.append(math.nan if skip else painleve.piv_residual(sol, y))
        excluded.append(skip)
    return np.array(gs), np.array(residuals), np.array(excluded)


class TestArrayScan:
    DEFAULT_PIV_GRID = GridSpec(-10.0, 10.0, 2001)

    def assert_matches_loop(self, sol, grid):
        scan = painleve.residual_scan(sol, grid)
        g, residual, excluded = scalar_scan(sol, grid)
        assert len(scan) == grid.x_steps
        assert np.array_equal(scan.y, grid.x_values())
        assert np.array_equal(scan.g, g, equal_nan=True)
        assert np.array_equal(np.signbit(scan.g), np.signbit(g))
        assert np.array_equal(scan.residual, residual, equal_nan=True)
        assert scan.excluded.tolist() == excluded.tolist()
        return scan

    @pytest.mark.parametrize("ordering", list(EXPECTED))
    def test_default_piv_grid(self, ordering):
        sol = painleve.solution_from_extremal(painleve.ExtremalSeed(ordering))
        scan = self.assert_matches_loop(sol, self.DEFAULT_PIV_GRID)
        origin = scan[scan.y == 0.0]
        assert len(origin) == 1 and origin.excluded[0]
        if ordering[0] == 1:
            assert origin.g[0] == 0.0 and np.signbit(origin.g[0])
        if ordering[0] == 2:
            assert math.isnan(origin.g[0])

    @pytest.mark.parametrize("ordering", list(EXPECTED))
    def test_grid_straddling_seed3_poles(self, ordering):
        sol = painleve.solution_from_extremal(painleve.ExtremalSeed(ordering))
        root = math.sqrt(1.5)
        self.assert_matches_loop(sol, GridSpec(-root - 0.3, root + 0.3, 1999))
        self.assert_matches_loop(sol, GridSpec(-root, root, 7))

    def test_perturbed_solution(self):
        base = painleve.solution_from_extremal(painleve.ExtremalSeed((1, 2, 3)))
        bumped = dataclasses.replace(base, g=lambda y: base.g(y) + 0.01)
        scan = self.assert_matches_loop(bumped, self.DEFAULT_PIV_GRID)
        assert np.max(np.abs(scan.residual[~scan.excluded])) > 1e-3

    @pytest.mark.parametrize("ordering", list(EXPECTED))
    def test_overflow_grid(self, ordering):
        sol = painleve.solution_from_extremal(painleve.ExtremalSeed(ordering))
        scan = self.assert_matches_loop(sol, GridSpec(1e110, 1e111, 5))
        assert np.isnan(scan.residual[~scan.excluded]).all()

    @pytest.mark.parametrize("x_min, x_max", [(1e308, 1.7e308), (-1.0, -0.0)])
    def test_nonfinite_g_as_python_floats_give_it(self, x_min, x_max):
        # past float range g overflows to -inf; at y = -0.0 seed 2 divides
        # by zero, where numpy alone would give +inf
        for sol in painleve.builtin_solutions():
            self.assert_matches_loop(sol, GridSpec(x_min, x_max, 3))

    def test_one_residual_call_per_scan(self, monkeypatch):
        calls = []
        residual = painleve.piv_residual
        monkeypatch.setattr(
            painleve, "piv_residual", lambda *a: calls.append(a) or residual(*a)
        )
        for sol in painleve.builtin_solutions():
            painleve.residual_scan(sol, self.DEFAULT_PIV_GRID)
        assert len(calls) == 3

    def test_scalar_residual_is_python_float(self):
        sol = painleve.solution_from_extremal(painleve.ExtremalSeed((3, 1, 2)))
        assert type(painleve.piv_residual(sol, 2.0)) is float
        assert type(painleve.piv_residual(sol, np.float64(2.0))) is float
        residual = painleve.piv_residual(sol, np.array([2.0, 3.0]))
        assert residual.shape == (2,)

    def test_scalar_underflow_gives_what_the_array_gives(self):
        # seed 1 has no pole, so no radius hides the origin: y*y and g^3
        # underflow to 0 while g = -2y/3 is not 0 (the terms cancel to 0 at
        # 1e-300; at the subnormal 1e-320, (g')^2/(2g) and b/g overflow to
        # opposite infinities, so both paths give nan)
        sol1 = painleve.solution_from_extremal(painleve.ExtremalSeed((1, 2, 3)))
        for y in (1e-300, -1e-300, 1e-320):
            scalar = painleve.piv_residual(sol1, y)
            array = painleve.piv_residual(sol1, np.array([y]))
            assert type(scalar) is float
            assert np.array_equal([scalar], array, equal_nan=True)

    def test_exclusion_radius_is_open(self):
        # a point exactly DEFAULT_DELTA from seed 2's pole at 0 is scanned
        sol2 = painleve.solution_from_extremal(painleve.ExtremalSeed((2, 1, 3)))
        scan = self.assert_matches_loop(sol2, GridSpec(-0.1, 0.1, 3))
        assert scan.excluded.tolist() == [False, True, False]
        assert np.all(np.isfinite(scan.residual[[0, 2]]))
        assert np.all(np.abs(scan.residual[[0, 2]]) < 1e-12)
        assert abs(painleve.piv_residual(sol2, 0.1)) < 1e-12
        with pytest.raises(painleve.SingularPointError):
            painleve.piv_residual(sol2, np.nextafter(0.1, 0.0))

    def test_array_residual_keeps_its_raises(self):
        sol1 = painleve.solution_from_extremal(painleve.ExtremalSeed((1, 2, 3)))
        with pytest.raises(ZeroDivisionError):
            painleve.piv_residual(sol1, np.array([1.0, 0.0]))
        sol2 = painleve.solution_from_extremal(painleve.ExtremalSeed((2, 1, 3)))
        with pytest.raises(painleve.SingularPointError):
            painleve.piv_residual(sol2, np.array([1.0, 0.05]))


def hand_derived(first):
    """The closed forms g, g', g'' of each seed, derived by hand, kept as the oracle."""
    if first == 1:
        return (lambda y: -2.0 * y / 3.0, lambda y: -2.0 / 3.0, lambda y: 0.0)
    if first == 2:
        return (
            lambda y: -2.0 * y / 3.0 - 1.0 / y,
            lambda y: -2.0 / 3.0 + 1.0 / (y * y),
            lambda y: -2.0 / (y * y * y),
        )

    def gp(y):
        u = 2.0 * y * y - 3.0
        return -2.0 / 3.0 + (8.0 * y * y + 12.0) / (u * u)

    def gpp(y):
        u = 2.0 * y * y - 3.0
        return -16.0 * y * (2.0 * y * y + 9.0) / (u * u * u)

    return (lambda y: -2.0 * y / 3.0 - 4.0 * y / (2.0 * y * y - 3.0), gp, gpp)


def python_float(f, y):
    try:
        return f(y)
    except ZeroDivisionError:
        return "ZeroDivisionError"


class TestGeneratedFromSeedPolynomial:
    ROOT = math.sqrt(1.5)
    GRIDS = [
        GridSpec(-10.0, 10.0, 2001),
        GridSpec(-10.0, 10.0, 20001),
        GridSpec(-ROOT - 0.3, ROOT + 0.3, 1999),
        GridSpec(-ROOT, ROOT, 7),
        GridSpec(-1.5, 1.5, 40001),
        GridSpec(-1e200, 1e200, 4001),
        GridSpec(-1e-300, 1e-300, 3),
        GridSpec(1e110, 1e111, 5),
        GridSpec(1e308, 1.7e308, 3),
        GridSpec(-1.0, -0.0, 3),
    ]
    EDGES = [0.0, -0.0, ROOT, -ROOT, 1e-300, -1e-300, 1e-320, 1e154, 1.7e308, -1.7e308]

    @pytest.mark.parametrize("ordering", list(EXPECTED))
    def test_bit_for_bit_with_the_hand_derived_forms(self, ordering):
        sol = painleve.solution_from_extremal(painleve.ExtremalSeed(ordering))
        generated = (sol.g, sol.g_prime, sol.g_double_prime)
        for grid in self.GRIDS:
            y = grid.x_values()
            for got_f, want_f in zip(generated, hand_derived(ordering[0])):
                with np.errstate(all="ignore"):
                    got = np.broadcast_to(got_f(y), y.shape).astype(float)
                    want = np.broadcast_to(want_f(y), y.shape).astype(float)
                same = (got.view(np.uint64) == want.view(np.uint64)) | (
                    np.isnan(got) & np.isnan(want)
                )
                assert same.all(), (grid, got_f, y[~same][:3])
        # a float keeps Python's arithmetic: the same value, sign of zero, and
        # ZeroDivisionError where the hand-derived form divides by zero
        for y in self.EDGES + [float(v) for v in np.linspace(-3.0, 3.0, 61)]:
            for got_f, want_f in zip(generated, hand_derived(ordering[0])):
                got, want = python_float(got_f, y), python_float(want_f, y)
                assert type(got) is type(want), y
                if isinstance(want, float):
                    assert got.hex() == want.hex() or math.isnan(got) and math.isnan(want)

    def test_seed_polynomials_from_the_hermite_recurrence(self):
        # Q_0 = 1, Q_1 = 2y, Q_{n+1} = 2y Q_n - 6n Q_{n-1} is 3^(n/2) H_n(y/sqrt 3)
        prev, q = [0], [1]
        for j in (1, 2, 3):
            content = math.gcd(*q)
            assert painleve._SEED_POLYNOMIALS[j] == [c // content for c in q]
            shifted = [0] + [2 * c for c in q]
            lower = [-6 * (j - 1) * c for c in prev] + [0] * (len(shifted) - len(prev))
            prev, q = q, [u + v for u, v in zip(shifted, lower)]

    def test_poles_are_the_zeros_of_the_seed_polynomial(self):
        poles = [sol.singularities for sol in painleve.builtin_solutions()]
        assert poles == [(), (0.0,), (-math.sqrt(1.5), math.sqrt(1.5))]
        assert math.sqrt(1.5).hex() == "0x1.3988e1409212ep+0"


class TestResidualNumerator:
    @pytest.mark.parametrize("ordering", list(EXPECTED))
    def test_zero_polynomial_at_the_mapped_parameters(self, ordering):
        a, b = painleve.piv_parameters(painleve.ExtremalSeed(ordering))
        numerator = painleve.residual_numerator(ordering[0], a, b)
        assert numerator and not any(numerator)

    @pytest.mark.parametrize("ordering", list(EXPECTED))
    def test_nonzero_away_from_the_mapped_parameters(self, ordering):
        seed = painleve.ExtremalSeed(ordering)
        a, b = painleve.piv_parameters(seed)
        e1, e2, e3 = seed.energies_tilde
        sign_variant = e2 + e3 + 2 * e1 - 1
        assert any(painleve.residual_numerator(ordering[0], sign_variant, b))
        assert any(painleve.residual_numerator(ordering[0], a, b + Fraction(1, 9)))

    @pytest.mark.parametrize("ordering", list(EXPECTED))
    def test_sympy_substitution_simplifies_to_zero(self, ordering):
        sympy = pytest.importorskip("sympy")
        y = sympy.symbols("y")
        d = sympy.hermite(ordering[0] - 1, y / sympy.sqrt(3))
        g = -2 * y / 3 - sympy.diff(d, y) / d
        a, b = (sympy.Rational(v.numerator, v.denominator)
                for v in painleve.piv_parameters(painleve.ExtremalSeed(ordering)))
        gp, gpp = sympy.diff(g, y), sympy.diff(g, y, 2)
        rhs = gp**2 / (2 * g) + sympy.Rational(3, 2) * g**3 + 4 * y * g**2
        rhs += 2 * (y**2 - a) * g + b / g
        assert sympy.simplify(gpp - rhs) == 0
