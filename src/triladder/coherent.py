"""The three deformed coherent-state families of the cubed annihilation
operator ("good", "bad" and "ugly").

Family j in {0, 1, 2} solves a_g |alpha>_j = alpha |alpha>_j on the ladder
n = 3k + j:

    |alpha>_j = (sum_k |alpha|^(2k) / (3k+j)!)^(-1/2)
                * sum_k alpha^k / sqrt((3k+j)!) |3k + j>.

Besides construction, this module evaluates their statistics, the
decomposition of each family into three standard coherent states sitting on
an equilateral triangle of labels, and a moment-check harness for candidate
completeness weights.
The series are infinite, so the truncation N is only a numerical device,
and it has one value: every state is built over |0> .. |N-1> at the size
the tail rule (``adequate_truncation``) gives its label, as a plain complex
ndarray of length N. No builder takes a size. The dense matrices of
``fock`` serve only the ``fock-algebra`` check and the dense oracles the
tests hold these kernels to.

All three families step along their ladder by the same ratio
|alpha|^2 / ((n+1)(n+2)(n+3)), n = 3k + j, and the operators that
``statistics`` and ``eigen_residual`` apply are shifts with label-free
weights: sqrt(n)/sqrt(2) for a and a+, n + 1/2 for H and the same
sqrt((n+1)(n+2)(n+3)) for a_g. All of these live in one table, built at
import over every level a tail-rule size reaches. Each entry is computed
by the expression a walk or a kernel would otherwise evaluate per term or
per call, so every result is the same to the bit; below n = 2e5 the
ladder factor is an integer under 2^53, so the table is also exact.
"""

import cmath
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TAIL_RELATIVE",
    "LabelRangeError",
    "CoherentSpec",
    "CSStatistics",
    "TriangleDecomposition",
    "MomentRow",
    "cs_index",
    "adequate_truncation",
    "adequate_truncation_standard",
    "build_cs",
    "eigen_residual",
    "a_norm_squared",
    "statistics",
    "triangle_decompose",
    "moment_check",
]

# Relative size at which the first dropped series term is considered
# negligible; keeps the dropped tail of norm^2 far below 1e-24 relative.
TAIL_RELATIVE = 1e-28

_OMEGA = cmath.exp(2j * math.pi / 3)

# The one table, over levels n = 0 .. L - 1. The walks iterate the lists
# _STEPS[j][m] = (n+1)(n+2)(n+3) and _ROOTS[j][m], its square root, for
# n = 3m + j, directly, as a slice would copy them on every call. The
# kernels read the read-only arrays _SHIFT[n] = sqrt(n+1)/sqrt(2) (a and a+
# over sqrt(2)), _ENERGY[n] = n + 1/2 (H) and _LOWER[n] = _ROOTS[n % 3][n // 3]
# (a_g from |n+3> to |n>). Import builds L = 3 * _TABLE_ROWS = 1026 levels:
# the longest walk any finite label takes uses n = 1019 (the tail rule at
# |alpha| = 18736, j = 2; the norm series reaches n = 971 at most), measured
# by tests/test_coherent.py, so every tail-rule size N, and the N + 1
# levels ``statistics`` reads, fits and no kernel grows the table. ``_grow``
# extends it, to exactly the levels asked for, for a walk that needs more.
_TABLE_ROWS = 342
_STEPS = ([], [], [])
_ROOTS = ([], [], [])
_SHIFT = _ENERGY = _LOWER = np.empty(0)


def _grow(levels: int) -> None:
    """Make the table cover ``levels`` levels: the one coverage check.

    The lists are extended in place and the arrays rebuilt over the same
    levels, _LOWER from the roots in level order.
    """
    global _SHIFT, _ENERGY, _LOWER
    if levels <= _ENERGY.size:
        return
    lower = np.empty(levels)
    for j, (steps, roots) in enumerate(zip(_STEPS, _ROOTS)):
        for n in range(3 * len(steps) + j, levels, 3):
            step = (n + 1.0) * (n + 2.0) * (n + 3.0)
            steps.append(step)
            roots.append(math.sqrt(step))
        lower[j::3] = roots
    tables = (
        np.sqrt(np.arange(1.0, levels + 1)) / math.sqrt(2.0),
        np.arange(levels) + 0.5,
        lower,
    )
    for table in tables:
        table.flags.writeable = False
    _SHIFT, _ENERGY, _LOWER = tables


_grow(3 * _TABLE_ROWS)


def cs_index(j) -> int:
    """Check a coherent-state family index, numbered 0..2, and return it as an int.

    Only integers pass (``np.int64`` among them): 1.9, "2" or True is
    refused, not converted to a family.
    """
    try:
        value = None if isinstance(j, bool) else operator.index(j)
    except TypeError:
        value = None
    if value not in (0, 1, 2):
        raise ValueError(f"family index must be an integer in {{0, 1, 2}}, got {j!r}")
    return value


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D complex vector: the same two dots, without the wrapper."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _past_table(walk: str, j: int) -> ArithmeticError:
    return ArithmeticError(
        f"the {walk} for residue {j} ran past the {len(_STEPS[j])} rows of the"
        " ladder-step table without meeting its stopping rule"
    )


class LabelRangeError(ValueError):
    """Label modulus past the float64 limit of the walk that met it."""

    def __init__(self, name: str, modulus: float, limit: str):
        self.modulus = modulus
        super().__init__(f"|{name}| = {modulus:.6g} is beyond the float64 limit of {limit}")


_FLOAT_MAX = f"{sys.float_info.max:.4g}"
_TAIL_LIMIT = (
    f"the tail rule: its series terms overflow {_FLOAT_MAX}"
    " (labels up to |alpha| = 1.8e4, i.e. |z| = 26.2, are supported)"
)
_SQUARE_LIMIT = f"the norm series: |alpha|^2 overflows {_FLOAT_MAX} from |alpha| = 1.34e154"


def _squared_modulus(name: str, modulus: float, limit: str) -> float:
    try:
        return float(modulus) ** 2
    except OverflowError:
        raise LabelRangeError(name, modulus, limit) from None


def _tail_index(name: str, modulus: float, term: float, steps) -> int | None:
    """Index m of the last kept term, the first whose successor is below the tail bound.

    Each term is the last times modulus^2 over the next of ``steps``. A term
    that overflows raises ``LabelRangeError``; None means ``steps`` ran out.
    """
    x = _squared_modulus(name, modulus, _TAIL_LIMIT)
    inf = math.inf
    partial = 0.0
    for m, step in enumerate(steps):
        partial += term
        nxt = term * x / step
        if nxt < TAIL_RELATIVE * partial:
            return m
        if not nxt < inf:  # inf (or nan) never meets the bound
            raise LabelRangeError(name, modulus, _TAIL_LIMIT)
        term = nxt
    return None


def adequate_truncation(j, abs_alpha: float) -> int:
    """Smallest N = 3m + j + 1 whose first dropped term is below the tail bound.

    Terms are |alpha|^(2m) / (3m+j)!, each the last times x over the row of
    the ladder-step table. From |alpha| = 18296 (j = 0; 18555 and 18816 for
    j = 1, 2) the step ``term * x`` overflows float64 before the bound is
    met, and ``LabelRangeError`` is raised instead.
    """
    j = cs_index(j)
    m = _tail_index("alpha", abs_alpha, 1.0 / math.factorial(j), _STEPS[j])
    if m is None:
        raise _past_table("tail-rule walk", j)
    return 3 * m + j + 1


def adequate_truncation_standard(abs_z: float) -> int:
    """Truncation rule for a standard coherent state with label modulus |z|.

    Terms are |z|^(2n) / n!, each the last times x over n + 1.0. Raises
    ``LabelRangeError`` from |z| = 26.6, where the terms overflow.
    """
    return _tail_index("z", abs_z, 1.0, itertools.count(1.0)) + 1


@dataclass(frozen=True)
class CoherentSpec:
    """Family index j and eigenvalue alpha of a_g.

    The spec is where its state gets built, once: ``truncation`` walks the
    tail rule, at construction so a label past its limit is refused there,
    and ``coeffs`` runs the coefficient recurrence on first use;
    ``build_cs``, ``statistics`` and ``eigen_residual`` reuse both.
    """

    j: int
    alpha: complex

    def __post_init__(self):
        j = cs_index(self.j)
        alpha = complex(self.alpha)
        if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
            raise ValueError("alpha must be finite")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "alpha", alpha)
        self.truncation  # walks the tail rule now, so a label past its limit raises here

    @functools.cached_property
    def truncation(self) -> int:
        """The tail-rule size N for this label (``adequate_truncation``)."""
        return adequate_truncation(self.j, abs(self.alpha))

    @functools.cached_property
    def coeffs(self) -> np.ndarray:
        """Normalized coefficients over |0> .. |N-1>, read-only."""
        first = 1.0 / math.sqrt(math.factorial(self.j))
        coeffs = _ladder_rungs(first, self.alpha, _ROOTS[self.j], self.j, 3, self.truncation)
        coeffs /= _norm(coeffs)
        coeffs.flags.writeable = False
        return coeffs


@dataclass(frozen=True)
class CSStatistics:
    """First and second moments of x, p and the energy, all dimensionless."""

    mean_x: float
    mean_p: float
    mean_x2: float
    mean_p2: float
    mean_H: float
    uncertainty_product: float


def _ladder_rungs(first, ratio, roots, start: int, stride: int, n_trunc: int) -> np.ndarray:
    """Coefficients on |0> .. |N-1> that vanish off the rungs n = start + k * stride.

    c_start = first and each next rung is c * ratio / root, over ``roots`` in
    turn: the family coefficients (ratio alpha) and the slices of a standard
    coherent state (ratio z^3) step by 3 over the ladder-step roots, and that
    state itself (ratio z) by 1 over sqrt(n + 1).
    """
    rungs = []
    c = first
    for root in itertools.islice(roots, len(range(start, n_trunc, stride))):
        rungs.append(c)
        c = c * ratio / root
    coeffs = np.zeros(n_trunc, dtype=complex)
    coeffs[start::stride] = rungs
    return coeffs


def build_cs(spec: CoherentSpec) -> np.ndarray:
    """Normalized coherent state: a writable copy of the spec's cached ``coeffs``."""
    return spec.coeffs.copy()


def eigen_residual(spec: CoherentSpec) -> float:
    """|| a_g |alpha>_j - alpha |alpha>_j || at the spec's tail-rule size.

    a_g lowers by three levels: (a_g c)_{n-3} = sqrt(n (n-1) (n-2)) c_n,
    with the weights read from the table. Of the spec it reads only
    ``coeffs`` and ``alpha``.
    """
    coeffs = spec.coeffs
    lowered = np.zeros(coeffs.size, complex)
    top = max(coeffs.size - 3, 0)
    np.multiply(_LOWER[:top], coeffs[3:], out=lowered[:top])
    lowered -= spec.alpha * coeffs
    return _norm(lowered)


def _ladder_series(x: float, offset: int) -> float:
    """sum_{k>=0} x^k / (3k + offset)! by compensated forward summation.

    Each term is the last times x over the row of the ladder-step table.
    A finite x stops well inside the table (an overflow ends the walk with
    an infinite total); a walk that reaches its end raises.
    """
    term = 1.0 / math.factorial(offset)
    total = 0.0
    carry = 0.0
    for step in _STEPS[offset]:
        value = term - carry
        fresh = total + value
        carry = (fresh - total) - value
        total = fresh
        term *= x / step
        if term <= total * 1e-18:
            return total
    raise _past_table("norm series", offset)


def a_norm_squared(j, abs_alpha: float) -> float:
    """Squared norm of a |alpha>_j, i.e. the mean occupation number.

    One ladder rule for every family: with x = |alpha|^2 and
    S_o(x) = sum_k x^k / (3k + o)!, <n> = S_(j-1)(x) / S_j(x), where
    S_(-1) = x S_2 for j = 0. It agrees with the matrix quadratic form
    <a+ a> and fixes the uncertainty product via
    Dx Dp = <H> = a_norm_squared + 1/2. A non-finite |alpha| raises
    ``ValueError``; from |alpha| = 18692 (j = 0; 18954 and 19217 for
    j = 1, 2) the series overflows and the result is inf or nan, and from
    |alpha| = 1.34e154, where |alpha|^2 overflows, ``LabelRangeError``
    is raised.
    """
    j = cs_index(j)
    modulus = float(abs_alpha)
    if not math.isfinite(modulus):
        raise ValueError(f"|alpha| must be finite, got {modulus!r}")
    x = _squared_modulus("alpha", modulus, _SQUARE_LIMIT)
    return (x if j == 0 else 1.0) * _ladder_series(x, (j - 1) % 3) / _ladder_series(x, j)


def statistics(spec: CoherentSpec) -> CSStatistics:
    """Quadratic-form moments of x, p and H.

    a and a+ act as one-level shifts weighted by sqrt(n), so x c and p c are
    sums of two shifted arrays and H is the diagonal n + 1/2; both weights
    come from the table. The state is padded by one level so the raising
    part is not clipped by the truncation. The spec's cached coefficients
    are read in place.
    """
    size = spec.truncation + 1
    vec, lowered, raised = np.zeros((3, size), complex)
    vec[:-1] = spec.coeffs
    weights = _SHIFT[: size - 1]
    np.multiply(weights, vec[1:], out=lowered[:-1])  # (a c)_n / sqrt(2)
    np.multiply(weights, vec[:-1], out=raised[1:])  # (a+ c)_n / sqrt(2)
    x_vec = lowered + raised
    p_vec = 1j * (raised - lowered)
    mean_x = float(np.vdot(vec, x_vec).real)
    mean_p = float(np.vdot(vec, p_vec).real)
    mean_x2 = _norm(x_vec) ** 2
    mean_p2 = _norm(p_vec) ** 2
    mean_h = float((_ENERGY[:size] * np.abs(vec) ** 2).sum())
    product = math.sqrt((mean_x2 - mean_x**2) * (mean_p2 - mean_p**2))
    return CSStatistics(mean_x, mean_p, mean_x2, mean_p2, mean_h, product)


@dataclass(frozen=True)
class TriangleDecomposition:
    """Weights writing |z>_j as a sum of three standard coherent states.

    The labels z, z w, z w^2 (w = e^(2 pi i / 3)) form an equilateral
    triangle; the weights are the roots-of-unity filter w^(-kj) / 3 that
    keeps exactly the n = 3k + j coefficients. All three weights share the
    modulus 1/3. Both states are built at ``truncation``, walked once.
    """

    z: complex
    j: int
    weights: tuple[complex, complex, complex]
    labels: tuple[complex, complex, complex]

    def __post_init__(self):
        object.__setattr__(self, "j", cs_index(self.j))

    @functools.cached_property
    def truncation(self) -> int:
        """Tail-rule size adequate for both the reconstruction and its target."""
        return max(
            adequate_truncation_standard(abs(self.z)),
            adequate_truncation(self.j, abs(self.z) ** 3),
        )

    def reconstruction(self) -> np.ndarray:
        """Weighted sum of the three non-normalized standard coherent states,
        coefficients label^n / sqrt(n!), at ``truncation``."""
        states = (
            _ladder_rungs(1.0, label, map(math.sqrt, itertools.count(1.0)), 0, 1, self.truncation)
            for label in self.labels
        )
        return sum(weight * state for weight, state in zip(self.weights, states))

    def target(self) -> np.ndarray:
        """The non-normalized |z>_j, coefficients z^(3k+j) / sqrt((3k+j)!), at
        ``truncation``: the mod-3 slice of |z>, with a_g eigenvalue alpha = z^3."""
        first = self.z**self.j / math.sqrt(math.factorial(self.j))
        return _ladder_rungs(first, self.z**3, _ROOTS[self.j], self.j, 3, self.truncation)


def triangle_decompose(z: complex, j) -> TriangleDecomposition:
    """Decompose |z>_j over the standard coherent states on the triangle."""
    z = complex(z)
    j = cs_index(j)
    weights = tuple(_OMEGA ** (-k * j) / 3.0 for k in range(3))
    labels = tuple(z * _OMEGA**k for k in range(3))
    return TriangleDecomposition(z=z, j=j, weights=weights, labels=labels)


@dataclass(frozen=True)
class MomentRow:
    """One row of the moment check: the target factorial is kept exact."""

    n: int
    computed: float
    target: int
    rel_error: float


def moment_check(j, weight_samples, n_max: int) -> list[MomentRow]:
    """Compare sampled moments of a candidate weight against factorials.

    Integrates x^(n-1) f(x) by the trapezoid rule over the supplied
    (x, f) pairs for n = 1 .. n_max and compares with the exact targets
    (3(n-1) + j)!, the moments a family-j completeness weight must have.
    The weight itself is supplied by the caller; this is verification
    machinery, not a construction. Where x^(n-1) overflows before f is
    applied, x^(n-1) f is taken in logs (0 where f = 0); a moment past
    float64 itself gives inf silently.
    """
    j = cs_index(j)
    samples = np.asarray(weight_samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2 or samples.shape[0] < 2:
        raise ValueError("weight samples must be at least two (x, f) pairs")
    if not np.all(np.isfinite(samples)):
        raise ValueError("sample positions and weight values must be finite")
    x, f = samples[:, 0], samples[:, 1]
    if np.any(x < 0):
        raise ValueError("sample positions must be nonnegative")
    if np.any(np.diff(x) <= 0):
        raise ValueError("sample positions must be strictly increasing")
    if np.any(f < 0):
        raise ValueError("weight values must be nonnegative")
    if not 1 <= int(n_max) <= 57:  # the error divides by the target as a float64
        raise ValueError("n_max must lie in 1 .. 57: from n = 58 a target (3(n-1)+j)!"
                         f" passes 170! and overflows float64; got {n_max}")
    rows = []
    for n in range(1, int(n_max) + 1):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # log(0) = -inf
            integrand = x ** (n - 1) * f
            far = ~np.isfinite(integrand)
            integrand[far] = np.exp((n - 1) * np.log(x[far]) + np.log(f[far]))
            computed = float(np.trapezoid(integrand, x))
        target = math.factorial(3 * (n - 1) + j)
        rel = abs(computed - target) / target
        rows.append(MomentRow(n, computed, target, rel))
    return rows
