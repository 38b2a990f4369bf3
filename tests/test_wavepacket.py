import cmath
import math
import tracemalloc

import numpy as np
import pytest

from triladder import cli, coherent, wavepacket
from triladder.grid import DEFAULT_GRID, GridSpec

import oracle


class TestGridSpec:
    def test_values(self):
        grid = GridSpec(-1.0, 1.0, 5)
        np.testing.assert_allclose(grid.x_values(), [-1, -0.5, 0, 0.5, 1])
        assert grid.t_values().tolist() == [0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, -1.0, 5)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 0)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 5, t_min=2.0, t_max=1.0, t_steps=3)
        with pytest.raises(ValueError, match="finite spans"):
            GridSpec(-1.7e308, 1.7e308, 3)
        with pytest.raises(ValueError, match="finite spans"):
            GridSpec(-1.0, 1.0, 3, t_min=-1.7e308, t_max=1.7e308, t_steps=2)


class TestHermiteFunctions:
    def test_ground_state_peak(self):
        assert wavepacket.hermite_basis(1, 0.0)[0, 0] == pytest.approx(
            math.pi**-0.25, abs=1e-15
        )

    def test_first_excited_node(self):
        assert wavepacket.hermite_basis(2, 0.0)[1, 0] == 0.0

    def test_against_explicit_polynomials(self):
        # psi_2 = pi^(-1/4) (2x^2 - 1)/sqrt(2) e^(-x^2/2)
        # psi_3 = pi^(-1/4) (2x^3 - 3x)/sqrt(3) e^(-x^2/2)
        x = np.linspace(-4, 4, 41)
        envelope = np.pi**-0.25 * np.exp(-x * x / 2)
        basis = wavepacket.hermite_basis(4, x)
        np.testing.assert_allclose(
            basis[2],
            envelope * (2 * x * x - 1) / math.sqrt(2),
            atol=1e-13,
        )
        np.testing.assert_allclose(
            basis[3],
            envelope * (2 * x**3 - 3 * x) / math.sqrt(3),
            atol=1e-13,
        )

    def test_orthonormality_by_quadrature(self):
        x = np.arange(-15.0, 15.0 + 1e-3, 1e-3)
        basis = wavepacket.hermite_basis(8, x)
        psi7, psi4 = basis[7], basis[4]
        assert np.trapezoid(psi7 * psi7, x) == pytest.approx(1.0, abs=1e-8)
        assert np.trapezoid(psi7 * psi4, x) == pytest.approx(0.0, abs=1e-8)

    def test_no_overflow_deep_levels(self):
        basis = wavepacket.hermite_basis(501, np.array([-20.0, 0.0, 20.0]))
        assert np.all(np.isfinite(basis))
        assert np.max(np.abs(basis)) < 2.0

    def test_rows_against_the_50_digit_oracle(self):
        # up to |x| = 37.5: further out the seed e^(-x^2/2) is subnormal, and
        # from 38.6 it is 0, so every row is 0 there
        mpmath = pytest.importorskip("mpmath")
        levels = [0, 1, 2, 3, 10, 100, 171, 500, 1000]
        xs = [-37.5, -31.0, -22.6, -13.0, -5.5, -1.0, 0.0, 0.7, 3.3, 9.1, 18.4, 37.5]
        rows = wavepacket.hermite_basis(levels[-1] + 1, xs)
        worst_abs = worst_rel = 0.0
        for n in levels:
            for x, got in zip(xs, rows[n].tolist()):
                want = oracle.hermite_function(n, x)
                with mpmath.workdps(oracle.DIGITS):
                    err = float(abs(got - want))
                worst_abs = max(worst_abs, err)
                if abs(want) > 1e-200:
                    worst_rel = max(worst_rel, err / float(abs(want)))
        # measured: 2.6e-15 and 3.6e-14
        assert worst_abs < 1e-14
        assert worst_rel < 1e-12

    @pytest.mark.parametrize("n_levels", [1, 2, 3, 172])
    def test_bits_of_the_recurrence(self, n_levels):
        # the density CSVs pin these bits, signed zeros included
        x = np.array([-0.0, 0.0, 1e-310, -2.5, 3.7, 17.3, -38.7])
        want = np.zeros((n_levels, x.size))
        want[0] = np.pi**-0.25 * np.exp(-x * x / 2.0)
        for n in range(n_levels - 1):
            want[n + 1] = (math.sqrt(2.0 / (n + 1)) * x * want[n]
                           - math.sqrt(n / (n + 1.0)) * want[n - 1])
        got = wavepacket.hermite_basis(n_levels, x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_negative_level_rejected(self):
        for n_levels in (0, -1):
            with pytest.raises(ValueError):
                wavepacket.hermite_basis(n_levels, 0.0)

    def test_far_points_underflow_to_zero_silently(self):
        # -x^2/2 overflows to -inf past |x| = 1.3e154, and e^-inf = 0 is the
        # right limit; the suite turns any warning into an error
        basis = wavepacket.hermite_basis(4, [1e300, -1e300, 0.0])
        assert np.array_equal(basis[:, :2], np.zeros((4, 2)))
        assert basis[0, 2] == np.pi**-0.25

    def test_basis_shape(self):
        basis = wavepacket.hermite_basis(4, np.linspace(-1, 1, 7))
        assert basis.shape == (4, 7)


class TestDensityField:
    def test_shape_validation(self):
        grid = GridSpec(-1.0, 1.0, 3, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            wavepacket.DensityField(grid, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            wavepacket.DensityField(grid, -np.ones((3, 2)))
        with pytest.raises(ValueError):  # a NaN does not hide a negative
            wavepacket.DensityField(grid, [[math.nan, -1.0]] * 3)

    def test_keeps_a_float_array(self):
        # both density paths hand over a fresh float64 array; it is not copied
        grid = GridSpec(-1.0, 1.0, 3, 0.0, 1.0, 2)
        values = np.ones((3, 2))
        assert wavepacket.DensityField(grid, values).values is values
        assert wavepacket.DensityField(grid, [[0, 1]] * 3).values.dtype == float

    def test_slice_normalization_both_paths(self):
        grid = GridSpec(-8.0, 8.0, 321, 0.0, 2 * math.pi, 5)
        for j, z in [(0, 2.0), (1, 1.5), (2, 2.5)]:
            for field in (
                wavepacket.density_gaussian(j, z, grid),
                wavepacket.density_fock(j, z, grid),
            ):
                np.testing.assert_allclose(
                    field.time_slice_integrals(), 1.0, atol=1e-6
                )
            assert np.all(wavepacket.density_gaussian(j, z, grid).values >= 0)


class TestStationaryStates:
    def test_vacuum_density(self):
        x = np.linspace(-4, 4, 33)
        for t in (0.0, 1.1):
            np.testing.assert_allclose(
                wavepacket.rho_fock(0, 0.0, x, t),
                np.pi**-0.5 * np.exp(-x * x),
                atol=1e-14,
            )
            np.testing.assert_allclose(
                wavepacket.rho_gaussian(0, 0.0, x, t),
                np.pi**-0.5 * np.exp(-x * x),
                atol=1e-14,
            )

    def test_first_fock_state_two_lobes(self):
        x = np.linspace(-5, 5, 41)
        expected = wavepacket.hermite_basis(2, x)[1] ** 2
        rho0 = wavepacket.rho_fock(1, 0.0, x, 0.0)
        rho1 = wavepacket.rho_fock(1, 0.0, x, 2.3)
        np.testing.assert_allclose(rho0, expected, atol=1e-14)
        np.testing.assert_allclose(rho1, expected, atol=1e-14)
        assert wavepacket.rho_fock(1, 0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(
            wavepacket.rho_gaussian(1, 0.0, x, 1.7), expected, atol=1e-14
        )


RANDOM_POINT_LABELS = [1.0, 2.0, 2.5, 1.5 + 1.2j]


class TestDualPath:
    @pytest.mark.parametrize("j", [0, 1, 2])
    @pytest.mark.parametrize("z", RANDOM_POINT_LABELS)
    def test_random_points_agree(self, j, z):
        # seeded from the source, so a failing case replays in any process
        rng = np.random.default_rng([j, RANDOM_POINT_LABELS.index(z)])
        x = rng.uniform(-8, 8, 500)
        t = rng.uniform(0, 2 * np.pi, 500)
        diff = np.abs(
            wavepacket.rho_fock(j, z, x, t) - wavepacket.rho_gaussian(j, z, x, t)
        )
        assert np.max(diff) < 1e-8

    def test_grid_fields_agree(self):
        grid = GridSpec(-6.0, 6.0, 101, 0.0, 2 * math.pi, 9)
        for j, z in [(0, 2.0), (2, 1.5)]:
            f_fock = wavepacket.density_fock(j, z, grid)
            f_gauss = wavepacket.density_gaussian(j, z, grid)
            assert np.max(np.abs(f_fock.values - f_gauss.values)) < 1e-8

    @pytest.mark.parametrize("j", [0, 1, 2])
    @pytest.mark.parametrize("z", [8.0, 8.0 * np.exp(0.7j)])
    def test_large_label_agrees(self, j, z):
        # the window covers the packet, whose centre reaches sqrt(2) |z|
        half = math.sqrt(2.0) * abs(z) + 6.0
        grid = GridSpec(-half, half, 201, 0.0, 2 * math.pi, 37)
        f_fock = wavepacket.density_fock(j, z, grid)
        f_gauss = wavepacket.density_gaussian(j, z, grid)
        assert np.max(np.abs(f_fock.values - f_gauss.values)) < cli.DUAL_PATH_TOL

    @pytest.mark.parametrize("j,z", [(2, 1e-8), (1, 1e-200)])
    def test_cancelled_gram_sum_gives_nan(self, j, z):
        # the three vertices cancel, and the Gram sum comes out at or below 0;
        # the Fock path still holds the extremal state |j>
        grid = GridSpec(-6.0, 6.0, 31, 0.0, 1.0, 2)
        assert np.all(np.isnan(wavepacket.density_gaussian(j, z, grid).values))
        assert np.all(np.isfinite(wavepacket.density_fock(j, z, grid).values))

    def test_scalar_point(self):
        a = wavepacket.rho_fock(0, 2.0, 1.3, 0.7)
        b = wavepacket.rho_gaussian(0, 2.0, 1.3, 0.7)
        assert isinstance(a, float) and isinstance(b, float)
        assert a == pytest.approx(b, abs=1e-10)


class TestLadderKernel:
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_evolution_law(self, j):
        # the kernel's rung phases against the state rebuilt at alpha e^(-3it)
        z = 2.0
        spec = coherent.CoherentSpec(j, z**3)
        x = np.linspace(-8.0, 8.0, 161)
        basis = wavepacket.hermite_basis(spec.truncation, x)
        for t in (0.0, 0.7, 5.3):
            evolved = oracle.evolve(spec, t)[1]
            want = np.abs(coherent.build_cs(evolved) @ basis) ** 2
            got = wavepacket.rho_fock(j, z, x, t)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_full_mesh_matches_broadcast_grid(self):
        xs = np.linspace(-8.0, 8.0, 41)
        ts = np.linspace(0.0, 2 * math.pi, 9)
        z = 1.7 - 0.9j
        for j in range(3):
            grid = wavepacket.rho_fock(j, z, xs[:, None], ts[None, :])
            mesh_x, mesh_t = np.meshgrid(xs, ts, indexing="ij")
            mesh = wavepacket.rho_fock(j, z, mesh_x, mesh_t)
            assert grid.shape == mesh.shape == (41, 9)
            np.testing.assert_allclose(mesh, grid, rtol=0, atol=1e-15)


def fock_per_rung(j, z, x, t):
    """One rank-one update of psi per rung, kept as the oracle."""
    spec = coherent.CoherentSpec(j, complex(z) ** 3)
    coeffs = coherent.build_cs(spec)[spec.j :: 3]
    x = np.asarray(x, dtype=float)
    rows = wavepacket.hermite_basis(spec.truncation, x)[spec.j :: 3]
    step = np.exp(-3j * np.asarray(t, dtype=float))
    phase = np.ones_like(step)
    psi = np.zeros(np.broadcast_shapes(x.shape, step.shape), dtype=complex)
    for c, row in zip(coeffs, rows):
        psi += (c * phase) * row.reshape(x.shape)
        phase = phase * step
    return np.abs(psi) ** 2


def fock_direct_sum(j, z, x, t):
    """|sum_n c_n e^(-int) psi_n(x)|^2 over every level in 50 digits; the
    ladder's global phase e^(-i(j+1/2)t) leaves it unchanged."""
    mpmath = pytest.importorskip("mpmath")
    spec = coherent.CoherentSpec(j, complex(z) ** 3)
    with mpmath.workdps(oracle.DIGITS):
        psi = mpmath.fsum(
            mpmath.mpc(c.real, c.imag) * mpmath.expj(-n * mpmath.mpf(float(t))) * oracle.hermite_function(n, float(x))
            for n, c in enumerate(spec.coeffs.tolist()) if c
        )
        return float(abs(psi) ** 2)


class TestRungContraction:
    XS = np.linspace(-8.0, 8.0, 41)
    TS = np.linspace(0.0, 2 * math.pi, 9)

    @pytest.mark.parametrize("j", [0, 1, 2])
    @pytest.mark.parametrize("z", [
        2.0, 1.3 + 1.5j, 8.0,
        *(pytest.param(r * cmath.exp(0.7j), id=f"{r}e^0.7i") for r in (0.5, 2.0, 8.0)),
    ])
    def test_every_input_shape_matches_per_rung_sum(self, j, z):
        mesh_x, mesh_t = np.meshgrid(self.XS, self.TS, indexing="ij")
        cases = [
            (self.XS[:, None], self.TS[None, :]),
            (mesh_x.ravel(), mesh_t.ravel()),
            (1.3, self.TS),
            (self.XS, 0.7),
        ]
        for x, t in cases:
            got = wavepacket.rho_fock(j, z, x, t)
            want = fock_per_rung(j, z, x, t)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        got = wavepacket.rho_fock(j, z, 1.3, 0.7)
        assert type(got) is float
        assert got == pytest.approx(float(fock_per_rung(j, z, 1.3, 0.7)), rel=0, abs=1e-15)
        # the grid and its points flattened, and ten of its cells against the
        # sum over every level in 50 digits
        grid = wavepacket.rho_fock(j, z, self.XS[:, None], self.TS[None, :])
        flat = wavepacket.rho_fock(j, z, mesh_x.ravel(), mesh_t.ravel())
        np.testing.assert_allclose(flat.reshape(grid.shape), grid, rtol=0, atol=1e-15)
        cells = [(4 * i, i % 9) for i in range(10)]
        worst = max(abs(grid[c] - fock_direct_sum(j, z, self.XS[c[0]], self.TS[c[1]])) for c in cells)
        assert worst < 1e-14

    def test_grid_peak_memory(self):
        # an intermediate of nx * nt * K complex values would be about 90 MB
        grid = DEFAULT_GRID
        xs, ts = grid.x_values(), grid.t_values()
        wavepacket.rho_fock(0, 8.0, xs[:, None], ts[None, :])
        tracemalloc.start()
        try:
            wavepacket.rho_fock(0, 8.0, xs[:, None], ts[None, :])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


def gaussian_full_mesh(j, z, x, t):
    """The closed form evaluated term by term on the broadcast mesh, kept as the oracle."""
    xb, tb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    if z == 0:  # the number state |j>
        return wavepacket.hermite_basis(j + 1, xb.ravel())[j].reshape(xb.shape) ** 2
    tri = coherent.triangle_decompose(z, j)
    rot = np.exp(-1j * tb)
    psi = np.zeros(xb.shape, dtype=complex)
    for weight, label in zip(tri.weights, tri.labels):
        zeta = label * rot
        psi += weight * np.exp(-xb * xb / 2.0 + math.sqrt(2.0) * zeta * xb - zeta * zeta / 2.0)
    psi *= np.pi**-0.25
    norm2 = 0.0
    for wk, lk in zip(tri.weights, tri.labels):
        for wl, ll in zip(tri.weights, tri.labels):
            norm2 += (wk.conjugate() * wl * np.exp(lk.conjugate() * ll)).real
    return np.abs(psi) ** 2 / norm2


class TestGaussianFactors:
    @pytest.mark.parametrize("j", [0, 1, 2])
    @pytest.mark.parametrize("z", [0, 2.0, 1.3 + 1.5j, 8.0])
    def test_bit_identical_to_full_mesh(self, j, z):
        # the per-axis factors do the same float operations in the same order
        half = math.sqrt(2.0) * abs(z) + 6.0
        xs = np.linspace(-half, half, 61)
        ts = np.linspace(0.0, 2 * math.pi, 13)
        mesh_x, mesh_t = np.meshgrid(xs, ts, indexing="ij")
        for x, t in [
            (xs[:, None], ts[None, :]),
            (mesh_x, mesh_t),
            (mesh_x.ravel(), mesh_t.ravel()),
        ]:
            got = wavepacket.rho_gaussian(j, z, x, t)
            assert np.array_equal(got, gaussian_full_mesh(j, z, x, t))

    @pytest.mark.parametrize("grid", [
        DEFAULT_GRID,  # 401 x 241, 1.5 MB of complex cells
        GridSpec(-8.0, 8.0, 1601, 0.0, 2 * math.pi, 61),  # 1.6 MB
        GridSpec(-8.0, 8.0, 161, 0.0, 2 * math.pi, 41),  # 103 KB
        GridSpec(-8.0, 8.0, 41, 0.0, 2 * math.pi, 25),  # 16 KB
        GridSpec(-8.0, 8.0, 31, 0.0, 2 * math.pi, 7),
        GridSpec(-8.0, 8.0, 43, 0.0, 2 * math.pi, 381),  # 16383 cells, 16 B below 256 KiB
        GridSpec(-8.0, 8.0, 128, 0.0, 2 * math.pi, 128),  # 16384 cells, 256 KiB
        GridSpec(0.3, 1.0, 1, 0.4, 1.0, 1),  # one cell
        GridSpec(-0.5, 1.0, 1, 0.0, 2 * math.pi, 1),  # one cell, as density_1x1_offset writes it
    ], ids=["default", "1601x61", "161x41", "small", "31x7", "16383", "16384", "one-cell",
            "1x1-offset"])
    @pytest.mark.parametrize("j,z", [(0, 2.0), (1, 0.3), (2, 1.3 + 1.5j), (0, 0.9 + 1.1j),
                                     (1, 5.0), (2, 8.0), (0, 1.2 - 0.4j), (1, 0)])
    def test_bits_on_both_sides_of_the_elision_size(self, grid, j, z):
        # numpy computes weight * exp(...) in place once the temporary is
        # 256 KiB or more, with other last bits than out of place, and the
        # density CSVs pin those bits: the default grid takes the in-place
        # loop, the small one the other; on one cell the in-place
        # scalar-first loop differs from the out-of-place one as well. The
        # one pass over all three families, which multiplies the term into a
        # scratch grid for all but the last, keeps every family's bits, as
        # does the call for j.
        xs, ts = grid.x_values()[:, None], grid.t_values()[None, :]
        wants = [gaussian_full_mesh(k, z, xs, ts) for k in range(3)]
        for k, field in enumerate(wavepacket.density_gaussians(range(3), z, grid)):
            assert np.array_equal(field.values.view(np.uint64), wants[k].view(np.uint64)), k
        got = wavepacket.rho_gaussian(j, z, xs, ts)
        assert np.array_equal(got.view(np.uint64), wants[j].view(np.uint64))

    @pytest.mark.parametrize("j,z", [(1, 0.3), (2, 1.3 + 1.5j)])
    def test_bits_at_single_points(self, j, z):
        # with 0-d x and t the expression's product is Python-scalar
        # arithmetic, whose last bits differ from numpy's multiply loop
        xs, ts = np.linspace(-3.0, 3.0, 41), np.linspace(0.0, 6.0, 41)
        got = np.array([wavepacket.rho_gaussian(j, z, x, t) for x, t in zip(xs, ts)])
        want = np.array([gaussian_full_mesh(j, z, x, t) for x, t in zip(xs, ts)])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_far_points_have_zero_density_silently(self):
        got = wavepacket.rho_gaussian(0, 2.0, np.array([1e300, -1e300, 0.0]), 0.3)
        assert got[0] == got[1] == 0.0 and got[2] > 0.0

    def test_grid_peak_memory(self):
        # one complex buffer holds each vertex term in turn; a temporary
        # per operation of the exponent would peak near 4.8 MB on this grid.
        # A sweep adds a psi grid per family and one scratch grid for the
        # products (1.55 MB each), not a term per vertex or per family.
        grid = DEFAULT_GRID
        xs, ts = grid.x_values()[:, None], grid.t_values()[None, :]
        for call, limit in [(lambda: wavepacket.rho_gaussian(1, 1.3 + 1.5j, xs, ts), 4.2e6),
                            (lambda: wavepacket.density_gaussians(range(3), 2.0, grid), 8.5e6)]:
            call()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit


class TestTimeStructure:
    def test_time_translation_covariance(self):
        x = np.linspace(-7, 7, 57)
        t0 = 0.9
        for path in (wavepacket.rho_fock, wavepacket.rho_gaussian):
            for t in (0.0, 1.4):
                shifted_state = path(1, 2.0 * np.exp(-1j * t0), x, t)
                later = path(1, 2.0, x, t + t0)
                assert np.max(np.abs(shifted_state - later)) < 1e-10

    def test_mirror_symmetry_for_imaginary_label(self):
        # vertices at +-60 and 180 degrees: the t = 0 configuration is
        # x-symmetric, so the density is even in x
        x = np.linspace(-8, 8, 161)
        rho = wavepacket.rho_gaussian(0, 2.0j, x, 0.0)
        assert np.max(np.abs(rho - rho[::-1])) < 1e-10

    def test_real_label_not_mirror_symmetric_at_t0(self):
        # one vertex on the positive real axis: visibly asymmetric
        x = np.linspace(-8, 8, 161)
        rho = wavepacket.rho_gaussian(0, 2.0, x, 0.0)
        assert np.max(np.abs(rho - rho[::-1])) > 1e-2

    def test_half_period_mirror_for_real_label(self):
        # rotating the triangle by pi/3 reflects it; with equal weights the
        # density obeys rho(x, t) = rho(-x, t + pi/3) for real labels
        x = np.linspace(-8, 8, 161)
        for t in (0.0, 0.8, 2.0):
            a = wavepacket.rho_gaussian(0, 2.0, x, t)
            b = wavepacket.rho_gaussian(0, 2.0, x, t + math.pi / 3)
            assert np.max(np.abs(a - b[::-1])) < 1e-10


class TestPeriodicity:
    GRID = GridSpec(-8.0, 8.0, 161, 0.0, 2 * math.pi, 25)

    @pytest.mark.parametrize("j,z", [(0, 2.0), (1, 2.0), (2, 1.5)])
    def test_third_period(self, j, z):
        assert wavepacket.period_check((j,), z, self.GRID) < 1e-10

    def test_fock_path_period(self):
        grid = GridSpec(-8.0, 8.0, 81, 0.0, 2 * math.pi, 7)
        xs = grid.x_values()[:, None]
        ts = grid.t_values()[None, :]
        base = wavepacket.rho_fock(1, 2.0, xs, ts)
        shifted = wavepacket.rho_fock(1, 2.0, xs, ts + 2 * math.pi / 3)
        assert np.max(np.abs(shifted - base)) < 1e-10

    def test_sixth_period_rejected(self):
        dev = wavepacket.period_check((0,), 2.0, self.GRID, candidate=2 * math.pi / 6)
        assert dev > 1e-3

