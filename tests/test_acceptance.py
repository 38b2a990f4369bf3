"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured worst case next to its tolerance."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from triladder import cli, coherent, fock, painleve, wavepacket
from triladder.grid import DEFAULT_GRID, GridSpec


def report(number, name, ok, detail):
    print(f"[criterion {number:02d}] {name}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {detail}"


def test_01_piv_residuals_on_dense_grid():
    grid = GridSpec(-10.0, 10.0, 2001)
    start = time.perf_counter()
    worst = 0.0
    for sol in painleve.builtin_solutions():
        for point in painleve.residual_scan(sol, grid):
            if not point.excluded:
                worst = max(worst, abs(point.residual))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    report(
        1,
        "piv-residuals",
        ok,
        f"max residual {worst:.3e} (tol 1e-10), runtime {elapsed:.2f}s (< 1s)",
    )


def test_02_parameter_table_exact():
    expected = {
        (1, 2, 3): (Fraction(0), Fraction(-2, 9)),
        (2, 1, 3): (Fraction(-1), Fraction(-8, 9)),
        (3, 1, 2): (Fraction(-2), Fraction(-2, 9)),
    }
    got = {
        ordering: painleve.piv_parameters(painleve.ExtremalSeed(ordering))
        for ordering in expected
    }
    ok = got == expected
    report(2, "piv-parameters", ok, f"three exact rational pairs, got {got}")


def test_03_algebra_at_n60():
    start = time.perf_counter()
    n = 60
    interior = n - 3  # indices <= 56
    lowering, raising = fock.build_deformed_ladders(n)
    ag, agd = lowering.matrix, raising.matrix
    h = fock.build_hamiltonian(n).matrix
    num = fock.number_analogue(n).matrix
    gap = fock.number_analogue(n + 3).matrix[3:, 3:] - num

    comm_dev = np.linalg.norm(
        (h @ ag - ag @ h + 3.0 * ag)[:interior, :interior]
    ) / np.linalg.norm(ag[:interior, :interior])
    gap_dev = np.linalg.norm(
        (ag @ agd - agd @ ag - gap)[:interior, :interior]
    ) / np.linalg.norm(gap[:interior, :interior])
    eps = np.finfo(float).eps
    product_dev = np.linalg.norm(agd @ ag - num) / np.linalg.norm(num)
    elapsed = time.perf_counter() - start
    ok = (
        comm_dev < 1e-12
        and gap_dev < 1e-12
        and product_dev <= 10 * eps
        and elapsed < 1.0
    )
    report(
        3,
        "fock-algebra",
        ok,
        f"commutator {comm_dev:.3e}, ladder gap {gap_dev:.3e} (tol 1e-12),"
        f" product vs cubic {product_dev:.3e} (tol 10 eps),"
        f" runtime {elapsed:.2f}s (< 1s)",
    )


def test_04_uncertainty_minima_and_series_agreement():
    minima = [coherent.a_norm_squared(j, 0.0) + 0.5 for j in range(3)]
    minima_dev = max(abs(m - e) for m, e in zip(minima, (0.5, 1.5, 2.5)))

    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        j = int(rng.integers(0, 3))
        alpha = rng.uniform(0, 5) * np.exp(2j * np.pi * rng.uniform())
        st = coherent.statistics(coherent.CoherentSpec(j, alpha))
        series = coherent.a_norm_squared(j, abs(alpha)) + 0.5
        worst = max(worst, abs(st.uncertainty_product - series))
    ok = minima_dev < 1e-12 and worst < 1e-10
    report(
        4,
        "uncertainty",
        ok,
        f"minima {minima} dev {minima_dev:.3e} (tol 1e-12);"
        f" matrix-vs-series worst {worst:.3e} over 50 samples (tol 1e-10)",
    )


def test_05_eigenstate_property():
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        j = int(rng.integers(0, 3))
        alpha = rng.uniform(0, 5) * np.exp(2j * np.pi * rng.uniform())
        worst = max(worst, coherent.eigen_residual(coherent.CoherentSpec(j, alpha)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    report(
        5,
        "eigenstate",
        ok,
        f"worst residual {worst:.3e} over 50 samples (tol 1e-10),"
        f" runtime {elapsed:.2f}s (< 1s)",
    )


def test_06_triangle_reconstruction_and_partition():
    worst = 0.0
    for j in range(3):
        for z in (0.5, 1.5, 3.0, 2.1 + 2.1j):
            tri = coherent.triangle_decompose(z, j)
            err = np.max(np.abs(tri.reconstruction() - tri.target()))
            worst = max(worst, float(err))
    partition_dev = 0.0
    for z in (1.0, 2.0, 3.0):
        total = sum(
            np.linalg.norm(coherent.triangle_decompose(z, j).target()) ** 2
            for j in range(3)
        )
        partition_dev = max(partition_dev, abs(total - math.exp(z * z)) / math.exp(z * z))
    ok = worst < 1e-12 and partition_dev < 1e-10
    report(
        6,
        "triangle",
        ok,
        f"max coefficient error {worst:.3e} (tol 1e-12);"
        f" exponential partition dev {partition_dev:.3e} (tol 1e-10)",
    )


def test_07_dual_path_density_oracle():
    rng = np.random.default_rng(707)
    start = time.perf_counter()
    worst = 0.0
    for j in range(3):
        for z in (1.0, 2.0, 2.5):
            x = rng.uniform(-8.0, 8.0, 10_000)
            t = rng.uniform(0.0, 2.0 * np.pi, 10_000)
            diff = np.abs(
                wavepacket.rho_fock(j, z, x, t) - wavepacket.rho_gaussian(j, z, x, t)
            )
            worst = max(worst, float(np.max(diff)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    report(
        7,
        "dual-path",
        ok,
        f"max |fock - gaussian| {worst:.3e} at 10^4 points x 9 (j, z) pairs"
        f" (tol 1e-8), runtime {elapsed:.2f}s (< 10s)",
    )


def test_08_periodicity():
    grid = DEFAULT_GRID
    worst = wavepacket.period_check(range(3), 2.0, grid)
    off = wavepacket.period_check((0,), 2.0, grid, candidate=2.0 * math.pi / 6.0)
    ok = worst < 1e-10 and off > 1e-3
    report(
        8,
        "periodicity",
        ok,
        f"2pi/3 deviation {worst:.3e} (tol 1e-10);"
        f" 2pi/6 deviation {off:.3e} (must exceed 1e-3)",
    )


def test_09_moment_harness():
    x = np.arange(0.0, 60.0 + 0.01, 0.01)
    samples = np.column_stack([x, np.exp(-x)])
    rows = coherent.moment_check(0, samples, 2)
    pattern_ok = rows[0].rel_error < 1e-3 and rows[1].rel_error > 0.5
    targets_ok = all(
        coherent.moment_check(j, samples[::100], 10)[n - 1].target
        == math.factorial(3 * (n - 1) + j)
        for j in range(3)
        for n in range(1, 11)
    )
    ok = pattern_ok and targets_ok
    report(
        9,
        "moments",
        ok,
        f"e^-x check: n=1 rel {rows[0].rel_error:.2e} (pass), n=2 rel"
        f" {rows[1].rel_error:.2e} vs target 6 (fail as required);"
        f" factorial targets exact up to n=10: {targets_ok}",
    )


def test_10_verify_command_and_fault_injection(capsys):
    clean = cli.main(["verify"])
    out = capsys.readouterr().out.strip().splitlines()
    clean_ok = clean == 0 and out[-1] == "CHECKS passed=8 failed=0"

    flips_ok = True
    flip_report = []
    targets = {flag: name for name, flag, _ in cli.CHECKS}
    for flag, target in sorted(targets.items()):
        code = cli.main(["verify", f"--inject-{flag}"])
        lines = capsys.readouterr().out.strip().splitlines()
        failed = [l.split()[1] for l in lines if l.startswith("FAIL")]
        good = code == 1 and failed == [target]
        flips_ok = flips_ok and good
        flip_report.append(f"{flag}->{failed}")
    ok = clean_ok and flips_ok
    with capsys.disabled():
        report(
            10,
            "verify-command",
            ok,
            f"clean exit {clean}; injections flip exactly their targets:"
            f" {flips_ok}",
        )
