"""Truncated Fock-space linear algebra for the harmonic oscillator.

Builds the standard and cubed ladder operators on the number basis
|0> ... |N-1>, together with the identities they satisfy:

    a_g = a^3,  a_g+ = (a+)^3,
    [H, a_g] = -3 a_g,  [H, a_g+] = 3 a_g+,
    a_g+ a_g = (H - 1/2)(H - 3/2)(H - 5/2).

Each residue class n = 3k + j of the number basis carries one infinite
ladder of eigenstates with spacing 3. Units: hbar = m = omega = 1, with
x = (a + a+)/sqrt(2) and p = i(a+ - a)/sqrt(2).

This module is the dense oracle and nothing else: the N x N matrices and
``ladder_state``, the number states they generate. The ``fock-algebra``
check of ``triladder verify`` and the statistics and eigen-residual tests
compare against them, while the coherent-state code applies the same
operators as shifts and diagonals and never imports this module. States
are plain complex ndarrays of length N, here as in ``coherent``.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FockOperator",
    "build_annihilation",
    "build_hamiltonian",
    "build_position",
    "build_momentum",
    "build_deformed_ladders",
    "number_analogue",
    "ladder_state",
]


@dataclass(frozen=True)
class FockOperator:
    """Dense complex N x N operator on the truncated Fock space."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError("operator matrix must be square and nonempty")
        object.__setattr__(self, "matrix", arr)


def _check_truncation(n_trunc: int, minimum: int = 1) -> int:
    n = int(n_trunc)
    if n < minimum:
        raise ValueError(f"truncation must be at least {minimum}, got {n_trunc}")
    return n


def build_annihilation(n_trunc: int) -> FockOperator:
    """Annihilation operator: entries[n-1, n] = sqrt(n)."""
    n_trunc = _check_truncation(n_trunc)
    mat = np.diag(np.sqrt(np.arange(1, n_trunc, dtype=float)), k=1)
    return FockOperator(mat.astype(complex))


def build_hamiltonian(n_trunc: int) -> FockOperator:
    """Oscillator Hamiltonian, diagonal with entries n + 1/2."""
    n_trunc = _check_truncation(n_trunc)
    diag = np.arange(n_trunc, dtype=float) + 0.5
    return FockOperator(np.diag(diag).astype(complex))


def build_position(n_trunc: int) -> FockOperator:
    """x = (a + a+)/sqrt(2)."""
    a = build_annihilation(n_trunc).matrix
    return FockOperator((a + a.conj().T) / math.sqrt(2.0))


def build_momentum(n_trunc: int) -> FockOperator:
    """p = i (a+ - a)/sqrt(2)."""
    a = build_annihilation(n_trunc).matrix
    return FockOperator(1j * (a.conj().T - a) / math.sqrt(2.0))


def build_deformed_ladders(n_trunc: int) -> tuple[FockOperator, FockOperator]:
    """The cubed ladder pair (a_g, a_g+) = (a^3, (a+)^3).

    a_g is computed as the exact matrix cube of the annihilation operator,
    so its only nonzero entries sit three places above the diagonal:
    entries[n-3, n] = sqrt(n (n-1) (n-2)).
    """
    n_trunc = _check_truncation(n_trunc, minimum=4)
    a = build_annihilation(n_trunc).matrix
    cube = a @ a @ a
    return FockOperator(cube), FockOperator(cube.conj().T)


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
    return FockOperator(np.diag(diag).astype(complex))


def ladder_state(j_ext, n: int, n_trunc: int) -> np.ndarray:
    """n-th rung of extremal ladder j in {1, 2, 3}.

    Applies the cubed creation operator n times to the extremal state
    |j-1> and normalizes, which reproduces the number state |3n + j - 1>
    with energy 3n + j - 1/2, as a complex array of length ``n_trunc``.
    The norm is restored after every application so deep rungs cannot
    overflow.
    """
    j = int(j_ext)
    if j not in (1, 2, 3):
        raise ValueError(f"extremal ladder index must lie in {{1, 2, 3}}, got {j_ext}")
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
    return vec
