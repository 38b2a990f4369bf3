"""Truncated Fock-space linear algebra for the harmonic oscillator.

Builds the standard and cubed ladder operators on the number basis
|0> ... |N-1>, together with the identities they satisfy:

    a_g = a^3,  a_g+ = (a+)^3,
    [H, a_g] = -3 a_g,  [H, a_g+] = 3 a_g+,
    a_g+ a_g = (H - 1/2)(H - 3/2)(H - 5/2).

Each residue class n = 3k + j of the number basis carries one infinite
ladder of eigenstates with spacing 3. Units: hbar = m = omega = 1, with
x = (a + a+)/sqrt(2) and p = i(a+ - a)/sqrt(2).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FockVector",
    "FockOperator",
    "LadderIndex",
    "basis_state",
    "build_annihilation",
    "build_creation",
    "build_hamiltonian",
    "build_position",
    "build_momentum",
    "build_deformed_ladders",
    "commutator",
    "number_analogue",
    "ladder_state",
    "spectrum_decomposition",
]


@dataclass(frozen=True)
class FockVector:
    """Complex coefficient vector over the number basis |0> ... |N-1>.

    ``ladder`` optionally pins the support to one residue class mod 3;
    construction fails if any coefficient outside that class is nonzero.
    """

    coeffs: np.ndarray
    ladder: int | None = None

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a nonempty 1-D sequence")
        object.__setattr__(self, "coeffs", arr)
        if self.ladder is not None:
            if self.ladder not in (0, 1, 2):
                raise ValueError("ladder flag must be 0, 1 or 2")
            off = np.arange(arr.size) % 3 != self.ladder
            if np.any(arr[off] != 0):
                raise ValueError(
                    f"vector has support outside the n = 3k+{self.ladder} ladder"
                )

    @property
    def truncation(self) -> int:
        return self.coeffs.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other: "FockVector") -> complex:
        """<self|other>; antilinear in self."""
        if other.truncation != self.truncation:
            raise ValueError("vectors live in different truncations")
        return complex(np.vdot(self.coeffs, other.coeffs))


@dataclass(frozen=True)
class FockOperator:
    """Dense complex N x N operator on the truncated Fock space.

    ``bands`` is an optional (lower, upper) bandwidth annotation for
    operators whose sparsity pattern is known by construction.
    """

    matrix: np.ndarray
    bands: tuple[int, int] | None = None

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError("operator matrix must be square and nonempty")
        object.__setattr__(self, "matrix", arr)

    @property
    def truncation(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> "FockOperator":
        bands = None if self.bands is None else (self.bands[1], self.bands[0])
        return FockOperator(self.matrix.conj().T, bands=bands)

    def apply(self, vec: FockVector) -> FockVector:
        if vec.truncation != self.truncation:
            raise ValueError("operator and vector truncations differ")
        return FockVector(self.matrix @ vec.coeffs)


@dataclass(frozen=True)
class LadderIndex:
    """Ladder label with its numbering convention made explicit.

    Extremal states are numbered 1, 2, 3 while the coherent-state families
    use 0, 1, 2; the fixed bridge is cs = extremal - 1. Keeping the
    convention on the value prevents silent off-by-one drift.
    """

    value: int
    convention: str = "cs"

    def __post_init__(self):
        if self.convention not in ("extremal", "cs"):
            raise ValueError("convention must be 'extremal' or 'cs'")
        lo = 1 if self.convention == "extremal" else 0
        if self.value not in range(lo, lo + 3):
            raise ValueError(
                f"{self.convention} ladder index must lie in "
                f"{{{lo}, {lo + 1}, {lo + 2}}}, got {self.value}"
            )

    @classmethod
    def extremal(cls, value: int) -> "LadderIndex":
        return cls(value, "extremal")

    @classmethod
    def cs(cls, value: int) -> "LadderIndex":
        return cls(value, "cs")

    def as_extremal(self) -> int:
        return self.value if self.convention == "extremal" else self.value + 1

    def as_cs(self) -> int:
        return self.value if self.convention == "cs" else self.value - 1


def extremal_index(j) -> int:
    """Coerce an int or LadderIndex to the extremal numbering 1..3."""
    if isinstance(j, LadderIndex):
        return j.as_extremal()
    return LadderIndex.extremal(int(j)).value


def cs_index(j) -> int:
    """Coerce an int or LadderIndex to the coherent-state numbering 0..2."""
    if isinstance(j, LadderIndex):
        return j.as_cs()
    return LadderIndex.cs(int(j)).value


def _check_truncation(n_trunc: int, minimum: int = 1) -> int:
    n = int(n_trunc)
    if n < minimum:
        raise ValueError(f"truncation must be at least {minimum}, got {n_trunc}")
    return n


def basis_state(n: int, n_trunc: int) -> FockVector:
    """Unit vector |n> in an N-dimensional truncation."""
    n_trunc = _check_truncation(n_trunc)
    if not 0 <= n < n_trunc:
        raise ValueError(f"basis index {n} outside truncation {n_trunc}")
    coeffs = np.zeros(n_trunc, dtype=complex)
    coeffs[n] = 1.0
    return FockVector(coeffs)


def build_annihilation(n_trunc: int) -> FockOperator:
    """Annihilation operator: entries[n-1, n] = sqrt(n)."""
    n_trunc = _check_truncation(n_trunc)
    mat = np.diag(np.sqrt(np.arange(1, n_trunc, dtype=float)), k=1)
    return FockOperator(mat.astype(complex), bands=(0, 1))


def build_creation(n_trunc: int) -> FockOperator:
    """Creation operator, the conjugate transpose of the annihilation one."""
    return build_annihilation(n_trunc).dagger()


def build_hamiltonian(n_trunc: int) -> FockOperator:
    """Oscillator Hamiltonian, diagonal with entries n + 1/2."""
    n_trunc = _check_truncation(n_trunc)
    diag = np.arange(n_trunc, dtype=float) + 0.5
    return FockOperator(np.diag(diag).astype(complex), bands=(0, 0))


def build_position(n_trunc: int) -> FockOperator:
    """x = (a + a+)/sqrt(2)."""
    a = build_annihilation(n_trunc).matrix
    return FockOperator((a + a.conj().T) / math.sqrt(2.0), bands=(1, 1))


def build_momentum(n_trunc: int) -> FockOperator:
    """p = i (a+ - a)/sqrt(2)."""
    a = build_annihilation(n_trunc).matrix
    return FockOperator(1j * (a.conj().T - a) / math.sqrt(2.0), bands=(1, 1))


def build_deformed_ladders(n_trunc: int) -> tuple[FockOperator, FockOperator]:
    """The cubed ladder pair (a_g, a_g+) = (a^3, (a+)^3).

    a_g is computed as the exact matrix cube of the annihilation operator,
    so its only nonzero entries sit three places above the diagonal:
    entries[n-3, n] = sqrt(n (n-1) (n-2)).
    """
    n_trunc = _check_truncation(n_trunc, minimum=4)
    a = build_annihilation(n_trunc).matrix
    cube = a @ a @ a
    return (
        FockOperator(cube, bands=(0, 3)),
        FockOperator(cube.conj().T, bands=(3, 0)),
    )


def commutator(op_a: FockOperator, op_b: FockOperator) -> FockOperator:
    """AB - BA."""
    if op_a.truncation != op_b.truncation:
        raise ValueError(
            f"operator shapes differ: {op_a.truncation} vs {op_b.truncation}"
        )
    ma, mb = op_a.matrix, op_b.matrix
    return FockOperator(ma @ mb - mb @ ma)


def number_analogue(n_trunc: int, shift: float = 0.0) -> FockOperator:
    """Cubic number analogue N(H) = (H - 1/2)(H - 3/2)(H - 5/2).

    Equals a_g+ a_g on the whole truncated space: a_g lowers, so the
    product is not corrupted by truncation. ``shift`` evaluates the same
    polynomial at H + shift, which gives N(H + 3) for the ladder-spacing
    identity [a_g, a_g+] = N(H + 3) - N(H).
    """
    n_trunc = _check_truncation(n_trunc, minimum=4)
    energies = np.arange(n_trunc, dtype=float) + 0.5 + shift
    diag = (energies - 0.5) * (energies - 1.5) * (energies - 2.5)
    return FockOperator(np.diag(diag).astype(complex), bands=(0, 0))


def ladder_state(j_ext, n: int, n_trunc: int) -> FockVector:
    """n-th rung of extremal ladder j in {1, 2, 3}.

    Applies the cubed creation operator n times to the extremal state
    |j-1> and normalizes, which reproduces the number state |3n + j - 1>
    with energy 3n + j - 1/2. The norm is restored after every
    application so deep rungs cannot overflow.
    """
    j = extremal_index(j_ext)
    if n < 0:
        raise ValueError("rung index must be nonnegative")
    n_trunc = _check_truncation(n_trunc)
    target = 3 * n + j - 1
    if target > n_trunc - 1:
        raise ValueError(
            f"rung {n} of ladder {j} needs basis state |{target}> beyond "
            f"truncation {n_trunc}"
        )
    vec = np.zeros(n_trunc, dtype=complex)
    vec[j - 1] = 1.0
    if n > 0:
        raising = build_deformed_ladders(n_trunc)[1].matrix
        for _ in range(n):
            vec = raising @ vec
            vec /= np.linalg.norm(vec)
    return FockVector(vec, ladder=(j - 1) % 3)


def spectrum_decomposition(n_trunc: int) -> tuple[list, list, list]:
    """The truncated spectrum split into the three ladders.

    Ladder j in {1, 2, 3} holds the energies j - 1/2 + 3n that fit below
    the truncation. The three lists are pairwise disjoint and their union
    is the oscillator spectrum {n + 1/2 : n < N}.
    """
    n_trunc = _check_truncation(n_trunc, minimum=3)
    ladders = []
    for j in (1, 2, 3):
        count = (n_trunc - j) // 3 + 1
        ladders.append([3.0 * n + j - 0.5 for n in range(count)])
    return tuple(ladders)
