"""The invariant suite that ``triladder verify`` runs, with its tolerances and inputs.

Every check takes whether its ``--inject-*`` flag is set and returns
(passed, detail); the suite has no other input. ``SUITE`` maps each check's
name to its function, in the order of ``cli.CHECKS``, which names the flag
of each, so that the parser declares the flags without loading this module.
Each check loads the package modules it runs, as each command does.

The gates the data commands share with the suite (``_worst``, ``_within``,
``_dual_path``, ``RESIDUAL_TOL``, ``DUAL_PATH_TOL``, ``TRIANGLE_TOL``) and the
grid of the piv defaults stay in ``cli``; the tolerances below only the
suite reads.
"""

import dataclasses
import math
import types

import numpy as np

from .cli import DUAL_PATH_TOL, RESIDUAL_TOL, TRIANGLE_TOL, _PIV_GRID, _dual_path, _within, _worst
from .grid import DEFAULT_GRID

EIGEN_TOL = 1e-10
ALGEBRA_TOL = 1e-12
CHAIN_TOL = 1e-12
SERIES_TOL = 1e-10
PARTITION_TOL = 1e-10
PERIOD_TOL = 1e-10
NON_PERIOD_FLOOR = 1e-3

# The (j, alpha) labels of the cs-eigen and cs-statistics checks.
_LABELS = tuple((j, a) for j in range(3) for a in (0.0, 1.0, 0.8 + 0.6j, 3.5 - 1.2j, 4.9j))

# The grid of the density-dual-path and period checks.
_CHECK_GRID = dataclasses.replace(DEFAULT_GRID, x_steps=161, t_steps=41)


def _check_fock_algebra(inject):
    from . import fock

    n = 60
    interior = n - 3  # rows/columns with index <= n - 4
    lowering, _ = fock.build_deformed_ladders(n)
    ag = lowering.matrix.copy()
    if inject:
        ag[0, 1] += 1e-3
    agd = ag.conj().T
    h = fock.build_hamiltonian(n).matrix
    num = fock.number_analogue(n).matrix
    num_shift = fock.number_analogue(n + 3).matrix[3:, 3:]  # N(H + 3): N(H) three levels up

    comm_h = h @ ag - ag @ h
    dev1 = np.linalg.norm((comm_h + 3.0 * ag)[:interior, :interior]) / np.linalg.norm(
        ag[:interior, :interior]
    )
    comm_g = ag @ agd - agd @ ag
    ladder_gap = num_shift - num
    dev2 = np.linalg.norm(
        (comm_g - ladder_gap)[:interior, :interior]
    ) / np.linalg.norm(ladder_gap[:interior, :interior])
    dev3 = np.linalg.norm(agd @ ag - num) / np.linalg.norm(num)
    worst = _worst([dev1, dev2, dev3])
    return (
        _within(worst, ALGEBRA_TOL),
        f"N={n} max_rel_err={worst:.3e} (tol {ALGEBRA_TOL:g})",
    )


def _check_piv_parameters(inject):
    from fractions import Fraction

    from . import painleve

    expected = {  # the reference (a, b) table, exact
        (1, 2, 3): (Fraction(0), Fraction(-2, 9)),
        (2, 1, 3): (Fraction(-1), Fraction(-8, 9)),
        (3, 1, 2): (Fraction(-2), Fraction(-2, 9)),
    }
    problems = []
    for ordering, (want_a, want_b) in expected.items():
        seed = painleve.ExtremalSeed(ordering)
        got_a, got_b = painleve.piv_parameters(seed)
        if inject:
            e1, e2, e3 = seed.energies_tilde
            got_a = e2 + e3 + 2 * e1 - 1
        if (got_a, got_b) != (want_a, want_b):
            problems.append(
                f"ordering {ordering}: got (a, b) = ({got_a}, {got_b}),"
                f" want ({want_a}, {want_b})"
            )
        if any(painleve.residual_numerator(ordering[0], got_a, got_b)):
            problems.append(
                f"ordering {ordering}: the residual numerator at ({got_a}, {got_b})"
                " is not the zero polynomial"
            )
    return not problems, "; ".join(problems) or (
        "three (a, b) pairs exact; each residual numerator is the zero polynomial"
    )


def _check_piv_residual(inject):
    from . import painleve

    solutions = painleve.builtin_solutions()
    if inject:
        base = solutions[0]
        solutions = [dataclasses.replace(base, g=lambda y: base.g(y) + 0.01)]
    scans = [painleve.residual_scan(s, _PIV_GRID) for s in solutions]
    worst = _worst(np.concatenate([np.abs(s.residual[~s.excluded]) for s in scans]))
    excluded = sum(np.count_nonzero(s.excluded) for s in scans)
    return (
        _within(worst, RESIDUAL_TOL),
        f"max_residual={worst:.3e} over {len(solutions)} scans,"
        f" {excluded} excluded points (tol {RESIDUAL_TOL:g})",
    )


def _check_cs_eigen(inject):
    from . import coherent

    if not inject:
        worst = _worst([coherent.eigen_residual(coherent.CoherentSpec(j, a)) for j, a in _LABELS])
        return (
            _within(worst, EIGEN_TOL),
            f"worst residual {worst:.3e} over {len(_LABELS)} samples (tol {EIGEN_TOL:g})",
        )
    # each family's state at alpha = 4 cut to 5 levels, far below its tail-rule
    # size, and renormalized; the kernel reads only the coefficients and the label
    failures = []
    for j in range(3):
        spec = coherent.CoherentSpec(j, 4.0)
        cut = spec.coeffs[:5] / np.linalg.norm(spec.coeffs[:5])
        res = coherent.eigen_residual(types.SimpleNamespace(coeffs=cut, alpha=spec.alpha))
        if not _within(res, EIGEN_TOL):
            failures.append(
                f"j={j} residual={res:.3e} at truncation 5;"
                f" suggested truncation >= {spec.truncation}"
            )
    return not failures, "; ".join(failures)


def _check_cs_statistics(inject):
    from . import coherent

    minima_dev = _worst(
        [abs(coherent.a_norm_squared(j, 0.0) + 0.5 - (j + 0.5)) for j in range(3)]
    )
    chain, series = [], []
    perturb = 1e-6 if inject else 0.0  # applied to the first sample only
    for j, alpha in _LABELS:
        st = coherent.statistics(coherent.CoherentSpec(j, alpha))
        product = st.uncertainty_product + perturb
        perturb = 0.0
        chain += [
            abs(st.mean_x),
            abs(st.mean_p),
            abs(st.mean_x2 - st.mean_p2),
            abs(st.mean_x2 - st.mean_H),
            abs(st.mean_x2 - product),
        ]
        series.append(abs(product - (coherent.a_norm_squared(j, abs(alpha)) + 0.5)))
    chain_dev, series_dev = _worst(chain), _worst(series)
    ok = (
        _within(minima_dev, CHAIN_TOL)
        and _within(chain_dev, CHAIN_TOL)
        and _within(series_dev, SERIES_TOL)
    )
    return (
        ok,
        f"minima_dev={minima_dev:.3e} chain_dev={chain_dev:.3e}"
        f" series_dev={series_dev:.3e} (tols {CHAIN_TOL:g}/{SERIES_TOL:g})",
    )


def _check_triangle(inject):
    from . import coherent

    errors = []
    for j in range(3):
        for z in (1.0, 2.0, 3.0, 0.9 + 1.1j):
            tri = coherent.triangle_decompose(z, j)
            if inject:
                w0, w1, w2 = tri.weights
                tri = dataclasses.replace(tri, weights=(w0, w1 * (1 + 1e-6), w2))
            errors.append(np.max(np.abs(tri.reconstruction() - tri.target())))
    partition = []
    for z in (1.0, 1.7, 3.0):
        total = sum(
            np.linalg.norm(coherent.triangle_decompose(z, j).target()) ** 2 for j in range(3)
        )
        partition.append(abs(total - math.exp(z**2)) / math.exp(z**2))
    worst, partition_dev = _worst(errors), _worst(partition)
    return (
        _within(worst, TRIANGLE_TOL) and _within(partition_dev, PARTITION_TOL),
        f"max_coeff_err={worst:.3e} partition_dev={partition_dev:.3e}"
        f" (tols {TRIANGLE_TOL:g}/{PARTITION_TOL:g})",
    )


def _check_density_dual(inject):
    worst = _worst([err for _, err, _ in _dual_path(range(3), 2.0, _CHECK_GRID, inject)])
    return (
        _within(worst, DUAL_PATH_TOL),
        f"max |fock - gaussian| = {worst:.3e} at z=2,"
        f" {_CHECK_GRID.x_steps} x {_CHECK_GRID.t_steps} grid per family (tol {DUAL_PATH_TOL:g})",
    )


def _check_period(inject):
    from . import wavepacket

    candidate = 2.0 * math.pi / 6.0 if inject else 2.0 * math.pi / 3.0
    worst = wavepacket.period_check(range(3), 2.0, _CHECK_GRID, candidate)
    off_period = wavepacket.period_check((0,), 2.0, _CHECK_GRID, 2.0 * math.pi / 6.0)
    ok = (
        _within(worst, PERIOD_TOL)
        and math.isfinite(off_period)
        and off_period > NON_PERIOD_FLOOR
    )
    return (
        ok,
        f"period_dev={worst:.3e} (tol {PERIOD_TOL:g}),"
        f" 2pi/6 candidate dev={off_period:.3e} (must exceed {NON_PERIOD_FLOOR:g})",
    )


# check name -> check, in report order (the names and order of cli.CHECKS)
SUITE = {
    "fock-algebra": _check_fock_algebra,
    "piv-parameters": _check_piv_parameters,
    "piv-residual": _check_piv_residual,
    "cs-eigen": _check_cs_eigen,
    "cs-statistics": _check_cs_statistics,
    "triangle": _check_triangle,
    "density-dual-path": _check_density_dual,
    "period": _check_period,
}
