"""High-precision oracles, independent of the float64 kernels they check."""

import mpmath

DIGITS = 50


def mean_occupation(j: int, abs_alpha: float) -> mpmath.mpf:
    """<a+ a> of the family-j state at |alpha|, as a direct 50-digit sum.

    The state's weights are w_k = x^k / (3k+j)!, x = |alpha|^2, and
    <a+ a> = sum (3k+j) w_k / sum w_k. The sum runs over the weights'
    window: from k = 0 until, past their peak, a weight falls below
    10^-(DIGITS + 10) of the running total. No series acceleration is used
    (``mpmath.nsum`` is off by factors of 2 to 570 on these sums).
    """
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
