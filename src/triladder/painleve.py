"""Painleve IV residual evaluation and the closed-form solutions seeded by
oscillator extremal states.

The equation, in the scaled variable y = sqrt(3) x, is

    g'' = (g')^2 / (2g) + (3/2) g^3 + 4 y g^2 + 2 (y^2 - a) g + b / g.

One rule gives the three solutions: an extremal state phi = D(y) exp(-y^2/6),
D a multiple of H_{j-1}(y/sqrt(3)), seeds g = -y - d/dy ln(phi) = -2y/3 - D'/D.
residual_numerator certifies each exactly: the equation with its denominators
cleared must leave the zero polynomial. The parameter map uses the scaled
extremal energies E~_j = (j - 1/2)/3 as

    a = E~_2 + E~_3 - 2 E~_1 - 1,    b = -2 (E~_2 - E~_3)^2.

The opposite sign of the 2 E~_1 term fails both the (a, b) table of the three
solutions and their certificate (verify --inject-piv-sign demonstrates this).
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
    "residual_numerator",
]

# Exclusion radius around poles of g, the same for every scan; residuals
# diverge like 1/(y - y0) there, so a fixed radius beats an adaptive threshold.
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


def piv_parameters(seed: ExtremalSeed) -> tuple[Fraction, Fraction]:
    """Exact (a, b) for the given seed ordering."""
    e1, e2, e3 = seed.energies_tilde
    return e2 + e3 - 2 * e1 - 1, -2 * (e2 - e3) ** 2


# D for each extremal state j: the primitive integer multiple of H_{j-1}(y/sqrt 3).
_SEED_POLYNOMIALS = {1: [1], 2: [0, 1], 3: [-3, 0, 2]}


def _combine(*terms) -> list:
    """Sum of factor * p over (factor, p) pairs, trimmed of leading zeros."""
    out = [0] * max(len(p) for _, p in terms)
    for factor, p in terms:
        for k, c in enumerate(p):
            out[k] += factor * c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _mul(p: list, q: list) -> list:
    return _combine(*((c, [0] * i + q) for i, c in enumerate(p)))


def _derivative(p: list) -> list:
    return [k * c for k, c in enumerate(p)][1:] or [0]


def _quotient_derivative(p: list, d: list, k: int) -> list:
    """Numerator of (p / d^k)' over d^(k+1): p' d - k p d'."""
    return _combine((1, _mul(_derivative(p), d)), (-k, _mul(p, _derivative(d))))


def _real_zeros(d: list[int]) -> tuple[float, ...]:
    """Real zeros of the seed polynomial 1, y or d0 + d2 y^2, from exact d0/d2."""
    if len(d) < 3:
        return (0.0,) * (len(d) - 1)
    root = math.sqrt(Fraction(-d[0], d[2]))
    return (-root, root)


def _horner(p: list, y):
    """p(y) by Horner's rule; a zero coefficient is skipped so -0.0 keeps its sign."""
    acc = float(p[-1])
    for c in reversed(p[:-1]):
        acc = acc * y + c if c else acc * y
    return acc


def _ratio(p: list, d: list, k: int, y):
    """p(y) / d(y)^k, the power taken as the product d(y) * ... * d(y)."""
    return _horner(p, y) / math.prod([_horner(d, y)] * k)


def solution_from_extremal(seed: ExtremalSeed) -> PIVSolution:
    """Closed-form solution g(y) = -y - d/dy ln(phi(y)) for the seed state.

    phi = D(y) exp(-y^2/6), with D the seed polynomial of the ordering's
    first entry, gives g = -2y/3 - D'/D, g' = -2/3 + A/D^2 and g'' = C/D^3,
    where A = D'^2 - D D'' and C = A' D - 2 A D' are derived exactly from D.
    Horner's rule evaluates them on a float, or elementwise on an ndarray
    as Python floats round. The poles are the real zeros of D and (a, b),
    from piv_parameters, is the pair residual_numerator certifies.
    """
    a, b = piv_parameters(seed)
    d = _SEED_POLYNOMIALS[seed.ordering[0]]
    d_prime = _derivative(d)
    num_a = _combine((-1, _quotient_derivative(d_prime, d, 1)))
    num_c = _quotient_derivative(num_a, d, 2)
    return PIVSolution(
        g=lambda y: -2.0 * y / 3.0 - _ratio(d_prime, d, 1, y),
        g_prime=lambda y: -2.0 / 3.0 + _ratio(num_a, d, 2, y),
        g_double_prime=lambda y: _ratio(num_c, d, 3, y),
        a_param=float(a),
        b_param=float(b),
        singularities=_real_zeros(d),
    )


def residual_numerator(first: int, a, b) -> list:
    """Exact certificate that the seed-``first`` solution solves PIV at (a, b).

    With g = N/D, N = -2yD/3 - D', g' = A_N/D^2 and g'' = C_N/D^3, the
    equation times 2 N D^3 is the polynomial identity 2 N C_N - A_N^2 - 3 N^4
    - 8y N^3 D - 4 (y^2 - a) N^2 D^2 - 2b D^4 = 0. Returns its left side's
    exact coefficients, lowest power first: g solves PIV exactly when all are 0.
    """
    d = _SEED_POLYNOMIALS[first]
    n = _combine((Fraction(-2, 3), [0] + d), (-1, _derivative(d)))
    num_a = _quotient_derivative(n, d, 1)
    num_c = _quotient_derivative(num_a, d, 2)
    n2, d2 = _mul(n, n), _mul(d, d)
    return _combine(
        (2, _mul(n, num_c)),
        (-1, _mul(num_a, num_a)),
        (-3, _mul(n2, n2)),
        (-8, [0] + _mul(n2, _mul(n, d))),
        (-4, _mul([-a, 0, 1], _mul(n2, d2))),
        (-2 * b, _mul(d2, d2)),
    )


def builtin_solutions() -> list[PIVSolution]:
    """The three solutions for the canonical orderings."""
    return [solution_from_extremal(ExtremalSeed(o)) for o in CANONICAL_ORDERINGS]


def _near_pole(sol: PIVSolution, y: np.ndarray):
    """Where y lies within DEFAULT_DELTA of a pole of g: the one exclusion rule."""
    return np.any([np.abs(y - pole) < DEFAULT_DELTA for pole in sol.singularities], axis=0)


def piv_residual(sol: PIVSolution, y):
    """Defect g'' - RHS of the equation at each of the points ``y``.

    ``y`` is a float, for which a float is returned, or an ndarray, for
    which an ndarray of the same shape is. Raises SingularPointError if any
    y lies within the fixed radius DEFAULT_DELTA of a pole of g, and
    ZeroDivisionError if g vanishes at any y (b/g is undefined there). A
    float goes through the same numpy arithmetic as an array, so a term
    that divides by zero or overflows gives inf or nan for both, not an error.
    """
    scalar = np.ndim(y) == 0
    y = np.asarray(y, dtype=float)
    near = _near_pole(sol, y)
    if np.any(near):
        raise SingularPointError(
            f"y = {np.extract(near, y)[0]} lies within {DEFAULT_DELTA} of a pole of g"
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


def residual_scan(sol: PIVSolution, grid: GridSpec) -> np.recarray:
    """Residuals over grid.x_values() in one array pass.

    Returns a record array with one record per grid point and the fields
    ``y``, ``g``, ``residual`` (float) and ``excluded`` (bool); ``len()``
    counts the points and each column reads as ``scan.residual``. A point
    is excluded when it lies within the fixed DEFAULT_DELTA of a pole, when
    g is not finite there, or when |g| < G_FLOOR (exact zeros included);
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
    excluded = bad | (np.abs(g) < G_FLOOR) | _near_pole(sol, y)
    residual = np.full(y.shape, math.nan)
    residual[~excluded] = piv_residual(sol, y[~excluded])
    return np.rec.fromarrays(
        [y, g, residual, excluded], names=["y", "g", "residual", "excluded"]
    )
