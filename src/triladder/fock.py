"""Truncated Fock-space linear algebra for the harmonic oscillator.

Builds the standard and cubed ladder operators on the number basis
|0> ... |N-1>, together with the identities they satisfy:

    a_g = a^3,  a_g+ = (a+)^3,
    [H, a_g] = -3 a_g,  [H, a_g+] = 3 a_g+,
    a_g+ a_g = N(H) = (H - 1/2)(H - 3/2)(H - 5/2),
    [a_g, a_g+] = N(H + 3) - N(H),  N(H + 3): N(H) read three levels up.

Each residue class n = 3k + j of the number basis carries one infinite
ladder of eigenstates with spacing 3. Units: hbar = m = omega = 1, with
x = (a + a+)/sqrt(2) and p = i(a+ - a)/sqrt(2).

This module holds exactly what the ``fock-algebra`` check of
``triladder verify`` runs: the dense N x N matrices of a, H, the cubed
ladders and N(H). The tests build their dense oracles on them, while the
coherent-state code applies the same operators as shifts and diagonals and
never imports this module.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FockOperator",
    "build_annihilation",
    "build_hamiltonian",
    "build_deformed_ladders",
    "number_analogue",
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
    return FockOperator(mat)


def build_hamiltonian(n_trunc: int) -> FockOperator:
    """Oscillator Hamiltonian, diagonal with entries n + 1/2."""
    n_trunc = _check_truncation(n_trunc)
    diag = np.arange(n_trunc, dtype=float) + 0.5
    return FockOperator(np.diag(diag))


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


def number_analogue(n_trunc: int) -> FockOperator:
    """Cubic number analogue N(H) = (H - 1/2)(H - 3/2)(H - 5/2).

    Equals a_g+ a_g on the whole truncated space: a_g lowers, so the
    product is not corrupted by truncation. N(H + 3) in [a_g, a_g+] =
    N(H + 3) - N(H) is N(H) three levels up: ``number_analogue(n + 3).matrix[3:, 3:]``.
    """
    n_trunc = _check_truncation(n_trunc, minimum=4)
    energies = np.arange(n_trunc, dtype=float) + 0.5
    diag = (energies - 0.5) * (energies - 1.5) * (energies - 2.5)
    return FockOperator(np.diag(diag))
