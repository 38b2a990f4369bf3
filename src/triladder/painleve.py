"""Painleve IV residual evaluation and the closed-form solutions seeded by
oscillator extremal states.

The equation, in the scaled variable y = sqrt(3) x, is

    g'' = (g')^2 / (2g) + (3/2) g^3 + 4 y g^2 + 2 (y^2 - a) g + b / g.

Seeding the construction g(y) = -y - d/dy ln(phi(y)) with the first three
oscillator eigenfunctions gives three rational-plus-linear solutions. The
parameter map uses the scaled extremal energies E~_j = (j - 1/2)/3 as

    a = E~_2 + E~_3 - 2 E~_1 - 1,    b = -2 (E~_2 - E~_3)^2.

The sign of the 2 E~_1 term is fixed by requiring the map to reproduce the
(a, b) pairs of the three closed-form solutions; the opposite sign fails
that table (the verify command demonstrates this via --inject-piv-sign).

A solution's g, g' and g'' accept a float or an ndarray of y: the residual
and the scan evaluate them on a whole grid at once, with numpy's
elementwise arithmetic rounding exactly as Python floats do.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .grid import GridSpec

__all__ = [
    "DEFAULT_DELTA",
    "CANONICAL_ORDERINGS",
    "ExtremalSeed",
    "PIVSolution",
    "SingularPointError",
    "piv_parameters",
    "solution_from_extremal",
    "builtin_solutions",
    "piv_residual",
    "residual_scan",
    "finite_difference_solution",
]

# Exclusion radius around poles of g; residuals diverge like 1/(y - y0)
# there, so a fixed radius beats an adaptive threshold.
DEFAULT_DELTA = 0.1

# Below this |g| the terms (g')^2/(2g) and b/g cancel only in exact
# arithmetic; scans mark such points excluded instead of reporting noise.
G_FLOOR = 1e-6

# The orderings whose first entry runs over all three extremal states.
CANONICAL_ORDERINGS = ((1, 2, 3), (2, 1, 3), (3, 1, 2))


class SingularPointError(ValueError):
    """Requested evaluation inside the exclusion radius of a pole of g."""


@dataclass(frozen=True)
class ExtremalSeed:
    """Choice of which extremal state plays the seed role.

    ``ordering`` is a permutation of (1, 2, 3); its first entry selects the
    seed. Swapping the last two entries leaves b invariant, so the three
    canonical orderings already exhaust the distinct solutions.
    """

    ordering: tuple[int, int, int]

    def __post_init__(self):
        ordering = tuple(int(j) for j in self.ordering)
        if sorted(ordering) != [1, 2, 3]:
            raise ValueError(f"ordering must permute (1, 2, 3), got {self.ordering}")
        object.__setattr__(self, "ordering", ordering)

    @property
    def energies_tilde(self) -> tuple[Fraction, Fraction, Fraction]:
        """Scaled extremal energies (j - 1/2)/3 in seed order; exact rationals."""
        return tuple(Fraction(2 * j - 1, 6) for j in self.ordering)


@dataclass(frozen=True)
class PIVSolution:
    """Closed-form solution descriptor with analytic derivatives.

    ``singularities`` lists the real poles of g; g, g', g'' are finite
    everywhere else. Each of g, g', g'' takes a float or an ndarray of y
    and returns a value of the same shape, or a constant for every y. A
    descriptor is only as good as its residual, which piv_residual measures
    pointwise.
    """

    g: Callable[[float], float]
    g_prime: Callable[[float], float]
    g_double_prime: Callable[[float], float]
    a_param: float
    b_param: float
    singularities: tuple[float, ...] = ()
    label: str = ""


def piv_parameters(seed: ExtremalSeed) -> tuple[Fraction, Fraction]:
    """Exact (a, b) for the given seed ordering."""
    e1, e2, e3 = seed.energies_tilde
    return e2 + e3 - 2 * e1 - 1, -2 * (e2 - e3) ** 2


def _g_seed1(y):
    return -2.0 * y / 3.0


def _gp_seed1(y):
    return -2.0 / 3.0


def _gpp_seed1(y):
    return 0.0


def _g_seed2(y):
    return -2.0 * y / 3.0 - 1.0 / y


def _gp_seed2(y):
    return -2.0 / 3.0 + 1.0 / (y * y)


def _gpp_seed2(y):
    return -2.0 / (y * y * y)


def _g_seed3(y):
    return -2.0 * y / 3.0 - 4.0 * y / (2.0 * y * y - 3.0)


def _gp_seed3(y):
    u = 2.0 * y * y - 3.0
    return -2.0 / 3.0 + (8.0 * y * y + 12.0) / (u * u)


def _gpp_seed3(y):
    u = 2.0 * y * y - 3.0
    return -16.0 * y * (2.0 * y * y + 9.0) / (u * u * u)


_SEED_FUNCTIONS = {
    1: (_g_seed1, _gp_seed1, _gpp_seed1, ()),
    2: (_g_seed2, _gp_seed2, _gpp_seed2, (0.0,)),
    3: (_g_seed3, _gp_seed3, _gpp_seed3, (-math.sqrt(1.5), math.sqrt(1.5))),
}


def solution_from_extremal(seed: ExtremalSeed) -> PIVSolution:
    """Closed-form solution g(y) = -y - d/dy ln(phi(y)) for the seed state.

    In the variable y = sqrt(3) x the three seeds are exp(-y^2/6),
    y exp(-y^2/6) and (2y^2 - 3) exp(-y^2/6), giving

        g = -2y/3,  g = -2y/3 - 1/y,  g = -2y/3 - 4y/(2y^2 - 3),

    with (a, b) from piv_parameters attached.
    """
    a, b = piv_parameters(seed)
    first = seed.ordering[0]
    g, gp, gpp, poles = _SEED_FUNCTIONS[first]
    return PIVSolution(
        g=g,
        g_prime=gp,
        g_double_prime=gpp,
        a_param=float(a),
        b_param=float(b),
        singularities=poles,
        label=f"seed-{first}",
    )


def builtin_solutions() -> list[PIVSolution]:
    """The three solutions for the canonical orderings."""
    return [solution_from_extremal(ExtremalSeed(o)) for o in CANONICAL_ORDERINGS]


def piv_residual(sol: PIVSolution, y, delta: float = DEFAULT_DELTA):
    """Defect g'' - RHS of the equation at each of the points ``y``.

    ``y`` is a float, for which a float is returned, or an ndarray, for
    which an ndarray of the same shape is. Raises SingularPointError if any
    y lies within ``delta`` of a pole of g and ZeroDivisionError if g
    vanishes at any y (the b/g term is undefined there). A float goes
    through the same numpy arithmetic as an array, so a term that divides
    by zero or overflows gives inf or nan for both rather than raising.
    """
    scalar = np.ndim(y) == 0
    y = np.asarray(y, dtype=float)
    for pole in sol.singularities:
        near = np.abs(y - pole) < delta
        if np.any(near):
            raise SingularPointError(
                f"y = {np.extract(near, y)[0]} lies within {delta} of the pole at {pole}"
            )
    with np.errstate(all="ignore"):
        g = sol.g(y)
        if np.any(g == 0.0):
            raise ZeroDivisionError(
                f"g({np.extract(g == 0.0, y)[0]}) = 0; the residual terms b/g are undefined"
            )
        gp = sol.g_prime(y)
        gpp = sol.g_double_prime(y)
        rhs = (
            gp * gp / (2.0 * g)
            + 1.5 * g * g * g
            + 4.0 * y * g * g
            + 2.0 * (y * y - sol.a_param) * g
            + sol.b_param / g
        )
        residual = gpp - rhs
    return float(residual) if scalar else residual


def _scalar_g(sol: PIVSolution, y: float) -> float:
    """g at one point as Python float arithmetic gives it: nan where it divides by 0."""
    try:
        return float(sol.g(y))
    except ZeroDivisionError:
        return math.nan


def residual_scan(
    sol: PIVSolution, grid: GridSpec, delta: float = DEFAULT_DELTA
) -> np.recarray:
    """Residuals over grid.x_values() in one array pass.

    Returns a record array with one record per grid point and the fields
    ``y``, ``g``, ``residual`` (float) and ``excluded`` (bool); ``len()``
    counts the points and each column reads as ``scan.residual``. A point
    is excluded when it falls within ``delta`` of a pole, when g is not
    finite there, or when |g| < G_FLOOR (including exact zeros of g);
    excluded points carry residual = nan. Where g is not finite its column
    holds what Python float arithmetic gives: nan where g divides by zero
    (numpy would give +-inf), +-inf where it overflows.
    """
    y = grid.x_values()
    with np.errstate(all="ignore"):
        g = np.array(np.broadcast_to(sol.g(y), y.shape), dtype=float)
    bad = ~np.isfinite(g)
    # Where g is not finite (at a pole, or past float range) ask the scalar g
    # again: numpy gives +-inf both for a division by zero, which Python
    # floats raise on, and for an overflow, which they give as +-inf too.
    g[bad] = [_scalar_g(sol, v) for v in y[bad].tolist()]
    excluded = bad | (np.abs(g) < G_FLOOR)
    for pole in sol.singularities:
        excluded |= np.abs(y - pole) < delta
    residual = np.full(y.shape, math.nan)
    residual[~excluded] = piv_residual(sol, y[~excluded], delta)
    return np.rec.fromarrays(
        [y, g, residual, excluded], names=["y", "g", "residual", "excluded"]
    )


def finite_difference_solution(sol: PIVSolution, step: float = 1e-4) -> PIVSolution:
    """Copy of ``sol`` with g', g'' replaced by 5-point central stencils.

    Exists purely to cross-check the analytic derivative code; the stencil
    residuals should track the analytic ones to a few times 1e-7.
    """
    g = sol.g

    def gp(y, h=step):
        return (-g(y + 2 * h) + 8 * g(y + h) - 8 * g(y - h) + g(y - 2 * h)) / (12 * h)

    def gpp(y, h=step):
        return (
            -g(y + 2 * h) + 16 * g(y + h) - 30 * g(y) + 16 * g(y - h) - g(y - 2 * h)
        ) / (12 * h * h)

    return PIVSolution(
        g=g,
        g_prime=gp,
        g_double_prime=gpp,
        a_param=sol.a_param,
        b_param=sol.b_param,
        singularities=sol.singularities,
        label=sol.label + "-fd",
    )
