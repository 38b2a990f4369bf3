"""The three deformed coherent-state families of the cubed annihilation
operator ("good", "bad" and "ugly").

Family j in {0, 1, 2} solves a_g |alpha>_j = alpha |alpha>_j on the ladder
n = 3k + j:

    |alpha>_j = (sum_k |alpha|^(2k) / (3k+j)!)^(-1/2)
                * sum_k alpha^k / sqrt((3k+j)!) |3k + j>.

Besides construction, this module evaluates their statistics, the simple
time evolution alpha(t) = alpha e^(-3it), the decomposition of each family
into three standard coherent states sitting on an equilateral triangle of
labels, and a moment-check harness for candidate completeness weights.
"""

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import FockVector

__all__ = [
    "TAIL_RELATIVE",
    "TruncationError",
    "LabelRangeError",
    "CoherentSpec",
    "CSStatistics",
    "TriangleDecomposition",
    "MomentRow",
    "adequate_truncation",
    "adequate_truncation_standard",
    "cs_coefficients",
    "build_cs",
    "eigen_residual",
    "a_norm_squared",
    "statistics",
    "evolve",
    "standard_cs_nonnorm",
    "deformed_cs_nonnorm",
    "triangle_decompose",
    "moment_check",
]

# Relative size at which the first dropped series term is considered
# negligible; keeps the dropped tail of norm^2 far below 1e-24 relative.
TAIL_RELATIVE = 1e-28

_OMEGA = cmath.exp(2j * math.pi / 3)


class TruncationError(ValueError):
    """Truncation too small for the tail bound; carries the adequate size."""

    def __init__(self, required: int, given: int):
        self.required = required
        self.given = given
        super().__init__(
            f"truncation {given} cannot meet the tail bound; need at least {required}"
        )


class LabelRangeError(ValueError):
    """Label modulus past float64: the tail-rule walk's terms would overflow."""

    def __init__(self, name: str, modulus: float):
        self.modulus = modulus
        super().__init__(
            f"|{name}| = {modulus:.6g} is beyond the float64 limit of the tail rule:"
            f" its series terms overflow {sys.float_info.max:.4g}"
            " (labels up to |alpha| = 1.8e4, i.e. |z| = 26.2, are supported)"
        )


def _squared_modulus(name: str, modulus: float) -> float:
    try:
        return float(modulus) ** 2
    except OverflowError:
        raise LabelRangeError(name, modulus) from None


def adequate_truncation(j, abs_alpha: float) -> int:
    """Smallest N = 3m + j + 1 whose first dropped term is below the tail bound.

    Terms are |alpha|^(2m) / (3m+j)!. From |alpha| = 18296 (j = 0; 18555
    and 18816 for j = 1, 2) the step ``term * x`` overflows float64 before
    the bound is met, and ``LabelRangeError`` is raised instead.
    """
    j = fock.cs_index(j)
    x = _squared_modulus("alpha", abs_alpha)
    inf = math.inf
    term = 1.0 / math.factorial(j)
    partial = 0.0
    for k in itertools.count(j, 3):
        partial += term
        nxt = term * x / ((k + 1.0) * (k + 2.0) * (k + 3.0))
        if nxt < TAIL_RELATIVE * partial:
            return k + 1
        if not nxt < inf:  # inf (or nan) never meets the bound
            raise LabelRangeError("alpha", abs_alpha)
        term = nxt


def adequate_truncation_standard(abs_z: float) -> int:
    """Truncation rule for a standard coherent state with label modulus |z|.

    Raises ``LabelRangeError`` from |z| = 26.6, where the terms overflow.
    """
    x = _squared_modulus("z", abs_z)
    inf = math.inf
    term = 1.0
    partial = 0.0
    for n in itertools.count():
        partial += term
        nxt = term * x / (n + 1.0)
        if nxt < TAIL_RELATIVE * partial:
            return n + 1
        if not nxt < inf:
            raise LabelRangeError("z", abs_z)
        term = nxt


@dataclass(frozen=True)
class CoherentSpec:
    """Family index j, eigenvalue alpha of a_g, and Fock truncation.

    When ``truncation`` is omitted it is chosen by the tail rule, which is
    always adequate; an explicit value is kept as given so undersized
    probes remain expressible.

    The spec is where its state gets built, once: ``required`` walks the
    tail rule and ``coeffs`` runs the coefficient recurrence, each on first
    use, and ``build_cs``, ``statistics`` and ``eigen_residual`` reuse them.
    """

    j: int
    alpha: complex
    truncation: int | None = None

    def __post_init__(self):
        j = fock.cs_index(self.j)
        alpha = complex(self.alpha)
        if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
            raise ValueError("alpha must be finite")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "alpha", alpha)
        if self.truncation is None:
            object.__setattr__(self, "truncation", self.required)
        else:
            trunc = int(self.truncation)
            if trunc < j + 1:
                raise ValueError(
                    f"truncation {trunc} cannot even hold the extremal state |{j}>"
                )
            object.__setattr__(self, "truncation", trunc)

    @functools.cached_property
    def required(self) -> int:
        """The tail-rule size for this label (``adequate_truncation``)."""
        return adequate_truncation(self.j, abs(self.alpha))

    @functools.cached_property
    def coeffs(self) -> np.ndarray:
        """Normalized coefficients at ``truncation``, read-only.

        Unchecked against ``required``, like ``cs_coefficients``.
        """
        coeffs = cs_coefficients(self.j, self.alpha, self.truncation)
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


def cs_coefficients(j, alpha: complex, n_trunc: int) -> np.ndarray:
    """Normalized family-j coefficients on an N-dimensional truncation.

    No adequacy check: normalization is taken over the truncated basis, so
    undersized truncations give a legitimate (but poor) trial state.
    """
    j = fock.cs_index(j)
    n_trunc = int(n_trunc)
    if n_trunc < j + 1:
        raise ValueError(f"truncation {n_trunc} cannot hold the extremal state |{j}>")
    coeffs = _ladder_rungs(j, 1.0 / math.sqrt(math.factorial(j)), complex(alpha), n_trunc)
    coeffs /= np.linalg.norm(coeffs)
    return coeffs


def _ladder_rungs(j: int, first, ratio: complex, n_trunc: int) -> np.ndarray:
    """Coefficients on |0> .. |N-1> that vanish off the ladder n = 3k + j.

    c_j = first and c_{n+3} = c_n * ratio / sqrt((n+1)(n+2)(n+3)), the one
    step-3 recurrence behind the family coefficients (ratio alpha) and the
    non-normalized slices of a standard coherent state (ratio z^3).
    """
    rungs = []
    c = first
    for n in range(j, n_trunc, 3):
        rungs.append(c)
        c = c * ratio / math.sqrt((n + 1.0) * (n + 2.0) * (n + 3.0))
    coeffs = np.zeros(n_trunc, dtype=complex)
    coeffs[j::3] = rungs
    return coeffs


def build_cs(spec: CoherentSpec) -> FockVector:
    """Normalized coherent state; rejects truncations below the tail rule.

    Reads the spec's cached ``required`` and ``coeffs``; the returned
    vector holds its own writable copy of the coefficients.
    """
    if spec.truncation < spec.required:
        raise TruncationError(spec.required, spec.truncation)
    return FockVector(spec.coeffs, ladder=spec.j)


def eigen_residual(spec: CoherentSpec) -> float:
    """|| a_g |alpha>_j - alpha |alpha>_j || at the spec's truncation.

    a_g lowers by three levels: (a_g c)_{n-3} = sqrt(n (n-1) (n-2)) c_n.
    Deliberately skips the adequacy check so undersized truncations report
    their (large) residual instead of raising.
    """
    coeffs = spec.coeffs
    n = np.arange(3.0, coeffs.size)
    lowered = np.zeros_like(coeffs)
    lowered[: n.size] = np.sqrt(n * (n - 1.0) * (n - 2.0)) * coeffs[3:]
    return float(np.linalg.norm(lowered - spec.alpha * coeffs))


def _ladder_series(x: float, offset: int) -> float:
    """sum_{k>=0} x^k / (3k + offset)! by compensated forward summation."""
    term = 1.0 / math.factorial(offset)
    total = 0.0
    carry = 0.0
    k = offset
    while True:
        value = term - carry
        fresh = total + value
        carry = (fresh - total) - value
        total = fresh
        term *= x / ((k + 1.0) * (k + 2.0) * (k + 3.0))
        k += 3
        if term <= total * 1e-18:
            return total


def a_norm_squared(j, abs_alpha: float) -> float:
    """Squared norm of a |alpha>_j, i.e. the mean occupation number.

    Evaluated from the defining series ratios; agrees with the matrix
    quadratic form <a+ a> and fixes the uncertainty product via
    Dx Dp = <H> = a_norm_squared + 1/2.
    """
    j = fock.cs_index(j)
    x = float(abs_alpha) ** 2
    if j == 0:
        return x * _ladder_series(x, 2) / _ladder_series(x, 0)
    if j == 1:
        return _ladder_series(x, 0) / _ladder_series(x, 1)
    return _ladder_series(x, 1) / _ladder_series(x, 2)


def statistics(spec: CoherentSpec) -> CSStatistics:
    """Quadratic-form moments of x, p and H.

    a and a+ act as one-level shifts weighted by sqrt(n), so x c and p c are
    sums of two shifted arrays and H is the diagonal n + 1/2. The state is
    padded by one level so the raising part is not clipped by the truncation.
    It comes from ``build_cs``, so the spec's cached coefficients are reused.
    """
    coeffs = build_cs(spec).coeffs
    size = coeffs.size + 1
    vec = np.zeros(size, dtype=complex)
    lowered = np.zeros_like(vec)
    raised = np.zeros_like(vec)
    vec[:-1] = coeffs
    weights = np.sqrt(np.arange(1.0, size)) / math.sqrt(2.0)
    lowered[:-1] = weights * vec[1:]  # (a c)_n / sqrt(2)
    raised[1:] = weights * vec[:-1]  # (a+ c)_n / sqrt(2)
    x_vec = lowered + raised
    p_vec = 1j * (raised - lowered)
    mean_x = float(np.vdot(vec, x_vec).real)
    mean_p = float(np.vdot(vec, p_vec).real)
    mean_x2 = float(np.linalg.norm(x_vec) ** 2)
    mean_p2 = float(np.linalg.norm(p_vec) ** 2)
    mean_h = float(np.sum((np.arange(vec.size) + 0.5) * np.abs(vec) ** 2))
    product = math.sqrt((mean_x2 - mean_x**2) * (mean_p2 - mean_p**2))
    return CSStatistics(mean_x, mean_p, mean_x2, mean_p2, mean_h, product)


def evolve(spec: CoherentSpec, t: float) -> tuple[complex, CoherentSpec]:
    """Time evolution: a global phase and a rotated eigenvalue.

    U(t)|alpha>_j = e^(-i (j + 1/2) t) |alpha e^(-3it)>_j, so evolution
    never leaves the family and the truncation can be carried over. It is
    the oracle for the rung phases of ``wavepacket.rho_fock``, in
    tests/test_wavepacket.py::TestLadderKernel::test_evolution_law.
    """
    phase = cmath.exp(-1j * (spec.j + 0.5) * t)
    rotated = spec.alpha * cmath.exp(-3j * t)
    return phase, CoherentSpec(spec.j, rotated, spec.truncation)


def standard_cs_nonnorm(z: complex, n_trunc: int | None = None) -> FockVector:
    """Non-normalized standard coherent state with coefficients z^n / sqrt(n!)."""
    z = complex(z)
    required = adequate_truncation_standard(abs(z))
    if n_trunc is None:
        n_trunc = required
    elif n_trunc < required:
        raise TruncationError(required, n_trunc)
    coeffs = np.zeros(int(n_trunc), dtype=complex)
    c = 1.0
    for n in range(coeffs.size):
        coeffs[n] = c
        c = c * z / math.sqrt(n + 1.0)
    return FockVector(coeffs)


def deformed_cs_nonnorm(z: complex, j, n_trunc: int | None = None) -> FockVector:
    """Non-normalized family-j state with coefficients z^(3k+j) / sqrt((3k+j)!).

    This is the mod-3 slice of the standard coherent state |z>; its
    eigenvalue under a_g is alpha = z^3.
    """
    z = complex(z)
    j = fock.cs_index(j)
    required = adequate_truncation(j, abs(z) ** 3)
    if n_trunc is None:
        n_trunc = required
    elif n_trunc < required:
        raise TruncationError(required, n_trunc)
    coeffs = _ladder_rungs(j, z**j / math.sqrt(math.factorial(j)), z**3, int(n_trunc))
    return FockVector(coeffs, ladder=j)


@dataclass(frozen=True)
class TriangleDecomposition:
    """Weights writing |z>_j as a sum of three standard coherent states.

    The labels z, z w, z w^2 (w = e^(2 pi i / 3)) form an equilateral
    triangle; the weights are the roots-of-unity filter w^(-kj) / 3 that
    keeps exactly the n = 3k + j coefficients. All three weights share the
    modulus 1/3.
    """

    z: complex
    j: int
    weights: tuple[complex, complex, complex]
    labels: tuple[complex, complex, complex]

    def default_truncation(self) -> int:
        """Common adequate size for the reconstruction and its target."""
        return max(
            adequate_truncation_standard(abs(self.z)),
            adequate_truncation(self.j, abs(self.z) ** 3),
        )

    def reconstruction(self, n_trunc: int | None = None) -> FockVector:
        """Weighted sum of the three standard coherent states."""
        if n_trunc is None:
            n_trunc = self.default_truncation()
        total = np.zeros(int(n_trunc), dtype=complex)
        for weight, label in zip(self.weights, self.labels):
            total += weight * standard_cs_nonnorm(label, n_trunc).coeffs
        return FockVector(total)

    def target(self, n_trunc: int | None = None) -> FockVector:
        """The non-normalized |z>_j the reconstruction must reproduce."""
        if n_trunc is None:
            n_trunc = self.default_truncation()
        return deformed_cs_nonnorm(self.z, self.j, n_trunc)


def triangle_decompose(z: complex, j) -> TriangleDecomposition:
    """Decompose |z>_j over the standard coherent states on the triangle."""
    z = complex(z)
    j = fock.cs_index(j)
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
    machinery, not a construction.
    """
    j = fock.cs_index(j)
    samples = np.asarray(weight_samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2 or samples.shape[0] < 2:
        raise ValueError("weight samples must be at least two (x, f) pairs")
    x, f = samples[:, 0], samples[:, 1]
    if np.any(x < 0):
        raise ValueError("sample positions must be nonnegative")
    if np.any(np.diff(x) <= 0):
        raise ValueError("sample positions must be strictly increasing")
    if np.any(f < 0):
        raise ValueError("weight values must be nonnegative")
    if int(n_max) < 1:
        raise ValueError("n_max must be at least 1")
    rows = []
    for n in range(1, int(n_max) + 1):
        computed = float(np.trapezoid(x ** (n - 1) * f, x))
        target = math.factorial(3 * (n - 1) + j)
        rel = abs(computed - target) / target
        rows.append(MomentRow(n, computed, target, rel))
    return rows
