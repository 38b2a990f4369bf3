"""Reference implementations the tests check the package against.

Three kinds live here, each independent of the code it checks: the dense
float64 oracles (position and momentum matrices, number states built by
repeated cubed raising, and the closed-form time evolution of a family
state), 50-digit values (the mean occupation as a direct sum, and the
oscillator eigenfunctions from ``mpmath.hermite``), and a row-at-a-time
CSV formatter for the CLI's block writer. None of them is run by a
command, a ``verify`` check or the benchmark.
"""

import cmath
import math

import numpy as np

from triladder import coherent, fock

DIGITS = 50


def build_position(n_trunc: int) -> np.ndarray:
    """x = (a + a+)/sqrt(2) as a dense N x N matrix."""
    a = fock.build_annihilation(n_trunc).matrix
    return (a + a.conj().T) / math.sqrt(2.0)


def build_momentum(n_trunc: int) -> np.ndarray:
    """p = i (a+ - a)/sqrt(2) as a dense N x N matrix."""
    a = fock.build_annihilation(n_trunc).matrix
    return 1j * (a.conj().T - a) / math.sqrt(2.0)


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
    n_trunc = int(n_trunc)
    target = 3 * n + j - 1
    if target > n_trunc - 1:
        raise ValueError(
            f"rung {n} of ladder {j} needs basis state |{target}> beyond "
            f"truncation {n_trunc}"
        )
    vec = np.zeros(n_trunc, dtype=complex)
    vec[j - 1] = 1.0
    if n > 0:
        raising = fock.build_deformed_ladders(n_trunc)[1].matrix
        for _ in range(n):
            vec = raising @ vec
            vec /= np.linalg.norm(vec)
    return vec


def evolve(spec: coherent.CoherentSpec, t: float) -> tuple[complex, coherent.CoherentSpec]:
    """Time evolution: a global phase and a rotated eigenvalue.

    U(t)|alpha>_j = e^(-i (j + 1/2) t) |alpha e^(-3it)>_j, so evolution
    never leaves the family and keeps |alpha|, and with it the tail-rule
    size. It is the oracle for the rung phases of ``wavepacket.rho_fock``.
    """
    phase = cmath.exp(-1j * (spec.j + 0.5) * t)
    rotated = spec.alpha * cmath.exp(-3j * t)
    return phase, coherent.CoherentSpec(spec.j, rotated)


def mean_occupation(j: int, abs_alpha: float):
    """<a+ a> of the family-j state at |alpha|, as a direct 50-digit sum.

    The state's weights are w_k = x^k / (3k+j)!, x = |alpha|^2, and
    <a+ a> = sum (3k+j) w_k / sum w_k. The sum runs over the weights'
    window: from k = 0 until, past their peak, a weight falls below
    10^-(DIGITS + 10) of the running total. No series acceleration is used
    (``mpmath.nsum`` is off by factors of 2 to 570 on these sums). Returns
    an ``mpmath.mpf``; mpmath is imported here, so the float64 oracles above
    run without it.
    """
    import mpmath

    with mpmath.workdps(DIGITS):
        x = mpmath.mpf(abs_alpha) ** 2
        cutoff = mpmath.mpf(10) ** -(DIGITS + 10)
        weight = 1 / mpmath.factorial(j)
        total = first_moment = mpmath.mpf(0)
        n = j
        while True:
            total += weight
            first_moment += n * weight
            nxt = weight * x / ((n + 1) * (n + 2) * (n + 3))
            if nxt < weight and nxt < cutoff * total:
                return first_moment / total
            weight = nxt
            n += 3


def hermite_function(n: int, x: float):
    """psi_n(x) = pi^(-1/4) (2^n n!)^(-1/2) H_n(x) e^(-x^2/2) to 50 digits.

    H_n is mpmath's physicists' Hermite polynomial, evaluated directly, not
    by the normalized recurrence ``wavepacket.hermite_basis`` runs. Returns
    an ``mpmath.mpf``.
    """
    import mpmath

    with mpmath.workdps(DIGITS):
        x = mpmath.mpf(x)
        scale = mpmath.pi ** mpmath.mpf(-0.25) / mpmath.sqrt(2**n * mpmath.factorial(n))
        return scale * mpmath.hermite(n, x) * mpmath.exp(-x * x / 2)


def csv_text(comments, header, rows) -> str:
    """The text of a CLI data file, formatted one row at a time.

    Each comment becomes a ``# `` line, then comes the ``header`` line,
    then each row of ``rows`` (a tuple of ready strings) joined by commas;
    every line ends with LF.
    """
    lines = [f"# {line}" for line in comments] + [header]
    lines += [",".join(row) for row in rows]
    return "".join(line + "\n" for line in lines)
