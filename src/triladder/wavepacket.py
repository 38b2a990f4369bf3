"""Position-space densities of the evolving deformed coherent states.

Two independent evaluation paths exist on purpose. The Fock path walks
only the family's ladder n = 3k + j: the real Hermite rows are built once
on the x values as given, the weighted rung phases c_k e^(-3ikt) once on
the t values as given, and one contraction over the rung index k gives
psi in real arithmetic, with the phases read as (re, im) pairs of reals.
On an (nx, 1) by (1, nt) grid that is a single real (nx x K) by (K x 2nt)
matrix product, with K = N/3 rungs, whose result read as complex is psi.
The Gaussian path evaluates the closed form

    <x|z> = pi^(-1/4) exp(-x^2/2 + sqrt(2) z x - z^2/2)

for each vertex of the triangle decomposition, with no truncation at all;
each factor that depends on x alone or on t alone is computed on that
axis, and only the exponent's sum and its exponential on the full grid.
The vertex labels z w^k are the same for the three families; only the
roots-of-unity weights w^(-kj)/3 differ. So the vertex grids are evaluated
once per label, and each family of a sweep filters them with its weights
into its own psi: every family but the last writes its product with the
term into a scratch grid, the last multiplies the term in place, so that
each keeps the last bits of its own one-family evaluation. Their
agreement validates the expansion coefficients, the Hermite evaluator,
the triangle weights and the evolution law in one shot.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import coherent
from .grid import GridSpec

__all__ = [
    "DensityField",
    "hermite_basis",
    "rho_fock",
    "rho_gaussian",
    "density_fock",
    "density_gaussian",
    "density_gaussians",
    "period_check",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class DensityField:
    """Probability density sampled on a grid; values[i, k] = rho(x_i, t_k)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        # a float64 array, as both density paths return, is kept, not copied
        arr = np.asarray(self.values, dtype=float)
        expected = (self.grid.x_steps, self.grid.t_steps)
        if arr.shape != expected:
            raise ValueError(f"values shape {arr.shape} does not match grid {expected}")
        # fmin skips NaN, so a negative beside a NaN is still found; a NaN
        # field itself is left to the command gates
        if np.fmin.reduce(arr, axis=None) < 0:
            raise ValueError("densities must be nonnegative")
        object.__setattr__(self, "values", arr)

    def time_slice_integrals(self) -> np.ndarray:
        """Trapezoid integral of each time slice; 1 when the grid covers the support."""
        return np.trapezoid(self.values, x=self.grid.x_values(), axis=0)


def hermite_basis(n_levels: int, x) -> np.ndarray:
    """Rows psi_0 .. psi_{n_levels-1} of the oscillator eigenfunctions on x.

    Row n is psi_n(x) = pi^(-1/4) (2^n n!)^(-1/2) H_n(x) e^(-x^2/2), on x
    raveled. Uses the normalized recurrence
        psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1},
    which keeps every value of order one and cannot overflow below
    |x| = 1.3e308; past it the values are nan, left to the finiteness gates.
    """
    if n_levels < 1:
        raise ValueError("need at least one level")
    x = np.asarray(x, dtype=float).ravel()
    out = np.zeros((n_levels, x.size))
    with np.errstate(over="ignore", invalid="ignore"):  # -x^2/2 -> -inf past |x| = 1.3e154: seed 0
        out[0] = np.pi**-0.25 * np.exp(-x * x / 2.0)
        for n in range(n_levels - 1):  # at n = 0 the weight on out[n - 1] is 0
            out[n + 1] = math.sqrt(2.0 / (n + 1)) * x * out[n] - math.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


def rho_fock(j, z: complex, x, t) -> np.ndarray:
    """Density of the evolving family-j state, summed along its ladder.

    psi(x, t) = sum_k c_k e^(-3ikt) psi_{3k+j}(x), with the global phase
    e^(-i(j+1/2)t) dropped since it leaves |psi|^2 unchanged. The sum
    runs to the tail-rule size N of alpha = z^3. x and t broadcast against
    each other. The real Hermite rows are built on x, and the K = N/3
    weighted phases c_k e^(-3ikt) on t as given, e^(-3ikt) by one
    cumulative product of e^(-3it) down the rungs. The rung index k is
    contracted in real arithmetic, with each complex phase read as its
    (re, im) pair of reals: on an (nx, 1) by (1, nt) grid one real
    (nx x K) by (K x 2nt) matrix product gives psi's (re, im) pairs, with
    N * nx basis values and K * nt complex phases in memory and no complex
    copy of the basis. Any other shapes take a multiply-sum over k for the
    real and the imaginary part on the same operands; M flat points hold
    N * M basis values and K * M phases.
    From |z| = 5.64e102, where z^3 overflows, ``LabelRangeError`` is raised.
    """
    z = complex(z)
    modulus = math.hypot(z.real, z.imag)
    if not math.isfinite(modulus * modulus * modulus):
        raise coherent.LabelRangeError("z", modulus, coherent._TAIL_LIMIT)
    spec = coherent.CoherentSpec(j, z**3)
    coeffs = coherent.build_cs(spec)[spec.j :: 3]
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    rows = hermite_basis(spec.truncation, x)[spec.j :: 3]
    # row k: e^(-3ikt), one cumulative product of e^(-3it) down the rungs
    weighted = np.empty((len(coeffs), t.size), dtype=complex)
    weighted[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # nan from |t| = 6e307, refused by the gates
        weighted[1:] = np.exp(-3j * t.ravel())
    np.cumprod(weighted, axis=0, out=weighted)
    weighted *= coeffs[:, None]
    pairs = weighted.view(float)  # K x 2 t.size: the (re, im) of each phase
    # One einsum for every shape gives the grid the same bits, but keeps only about
    # half of this product's gain on the fock_field benchmark, and on 20 000 flat
    # points it takes 2.4 times as long as the two multiply-sums below.
    if x.shape == (x.size, 1) and t.shape == (1, t.size):
        # (nx x K) @ (K x 2nt) in real arithmetic: its rows are psi's (re, im) pairs
        psi = (rows.T @ pairs).view(complex)
    else:
        psi = np.empty(np.broadcast_shapes(x.shape, t.shape), dtype=complex)
        rows = rows.reshape(-1, *x.shape)
        pairs = pairs.reshape(-1, *t.shape, 2)
        np.einsum("k...,k...->...", rows, pairs[..., 0], out=psi.real)
        np.einsum("k...,k...->...", rows, pairs[..., 1], out=psi.imag)
    rho = np.abs(psi) ** 2
    return float(rho) if rho.ndim == 0 else rho


def _rho_gaussians(families, z: complex, x, t) -> list:
    """The Gaussian-path density of each of ``families`` at one label, in one pass.

    The triangle's labels z w^k do not depend on the family, only its
    weights w^(-kj)/3 do. So each vertex term e^(h_k) is computed once, and
    each family adds weight * term into its own psi. Every family but the
    last writes term * weight into a scratch grid, and the last multiplies
    the term in place, so that each product has the bits ``rho_gaussian``
    alone gives that family; with one family there is no scratch grid.
    """
    z = complex(z)
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(x.shape, t.shape)
    if z == 0:
        # Degenerate triangle: the normalized family-j state is the number
        # state |j>, stationary in time.
        rhos = []
        for j in map(coherent.cs_index, families):
            rho = hermite_basis(j + 1, x)[j].reshape(x.shape) ** 2
            rhos.append(float(rho) if shape == () else np.broadcast_to(rho, shape).copy())
        return rhos
    tris = [coherent.triangle_decompose(z, j) for j in families]
    rot = np.exp(-1j * t)
    psis = [np.zeros(shape, dtype=complex) for _ in tris]
    term = np.empty(shape, dtype=complex)  # one buffer for each vertex's term in turn
    # The density CSVs pin the last bits of weight * term, and numpy's complex
    # multiply loops round them differently by operand order and overlap. They
    # are the bits of the expression weight * exp(...): from 256 KiB numpy
    # reuses its temporary, multiplying array by scalar in place; below that
    # it multiplies scalar by array out of place (scalar arithmetic on a 0-d
    # grid). Both orders are stated here; term[()] is a view, which numpy
    # never reuses. Below 256 KiB the product stays out of place and on
    # term[()]: in place, a one-cell grid rounds as array * scalar does, and
    # on term itself a 0-d grid leaves scalar arithmetic (numpy 2.4.6).
    in_place = term.nbytes >= 256 * 1024
    # in place, a family before the last multiplies into scratch, the last into the term
    scratch = np.empty_like(term) if in_place and len(tris) > 1 else None
    # -x^2/2 -> -inf past |x| = 1.3e154: the density is 0 there; with |x| near
    # 1e308 the exponent is nan, left to the gates, which test finiteness
    with np.errstate(over="ignore", invalid="ignore"):
        gx = -x * x / 2.0
        for k, label in enumerate(tris[0].labels):
            zeta = label * rot
            np.multiply(_SQRT2 * zeta, x, out=term)
            np.add(gx, term, out=term)
            np.subtract(term, zeta * zeta / 2.0, out=term)
            np.exp(term, out=term)
            for i, (psi, tri) in enumerate(zip(psis, tris)):
                weight = tri.weights[k]
                if not in_place:
                    psi += weight * term[()]
                elif i < len(tris) - 1:
                    psi += np.multiply(term, weight, out=scratch)
                else:
                    psi += np.multiply(term, weight, out=term)
    del term, scratch
    rhos = []
    for psi, tri in zip(psis, tris):
        psi *= np.pi**-0.25
        norm2 = 0.0
        for wk, lk in zip(tri.weights, tri.labels):
            for wl, ll in zip(tri.weights, tri.labels):
                norm2 += (wk.conjugate() * wl * np.exp(lk.conjugate() * ll)).real
        # For j > 0 at small |z| the vertices cancel: a Gram sum <= 0 gives nan, which no gate passes.
        rho = np.abs(psi) ** 2 / (norm2 if norm2 > 0 else math.nan)
        rhos.append(float(rho) if shape == () else rho)
    return rhos


def rho_gaussian(j, z: complex, x, t) -> np.ndarray:
    """Density of the same state from the closed-form triangle superposition.

    The three vertex labels rotate rigidly as z_k e^(-it); the squared norm
    of the superposition is the label Gram sum sum_{k,l} w_k* w_l e^(z_k* z_l),
    which is time independent. No Fock truncation enters anywhere. x and t
    broadcast against each other: -x^2/2 is computed on x, the rotated
    label zeta and zeta^2/2 on t as given, and only the exponent's sum and
    its exponential on the broadcast grid. The vertex grids are evaluated
    once per label and then filtered by the family's weights; this is that
    pass with one family, holding one term buffer beside psi.
    """
    return _rho_gaussians((j,), z, x, t)[0]


def density_fock(j, z: complex, grid: GridSpec) -> DensityField:
    """Density field on a grid via the number-basis path: one rho_fock call per
    block of at most 4096 x by 4096 t points (up to 33 MB of Hermite rows at
    N <= 1020, 22 MB of rung phases). Past 4096 t points each further t block
    walks the tail rule again and rebuilds its x block's Hermite rows.
    """
    xs, ts, b = grid.x_values()[:, None], grid.t_values()[None, :], 4096
    values = np.empty((xs.size, ts.size))
    for i in range(0, xs.size, b):
        for k in range(0, ts.size, b):
            values[i : i + b, k : k + b] = rho_fock(j, z, xs[i : i + b], ts[:, k : k + b])
    return DensityField(grid, values)


def density_gaussian(j, z: complex, grid: GridSpec) -> DensityField:
    """Density field on a grid via the closed-form Gaussian path."""
    xs = grid.x_values()[:, None]
    ts = grid.t_values()[None, :]
    values = rho_gaussian(j, z, xs, ts)
    return DensityField(grid, values)


def density_gaussians(families, z: complex, grid: GridSpec) -> list[DensityField]:
    """The ``density_gaussian`` field of each of ``families``, from one pass
    over the vertex grids: for three families, three psi grids, the term
    and one scratch grid for the products are held at once."""
    xs = grid.x_values()[:, None]
    ts = grid.t_values()[None, :]
    return [DensityField(grid, values) for values in _rho_gaussians(families, z, xs, ts)]


def period_check(families, z: complex, grid: GridSpec, candidate: float = 2.0 * math.pi / 3.0) -> float:
    """max |rho(x, t + candidate) - rho(x, t)| over the grid and ``families``,
    on the Gaussian path (one pass per time axis for all families).

    Vanishes (to rounding) for the fundamental period 2 pi / 3 and is
    order one for shorter candidates at generic z. NaN if any difference is.
    """
    xs = grid.x_values()[:, None]
    ts = grid.t_values()[None, :]
    base = _rho_gaussians(families, z, xs, ts)
    shifted = _rho_gaussians(families, z, xs, ts + candidate)
    return float(np.max([np.max(np.abs(s - b)) for s, b in zip(shifted, base)]))
