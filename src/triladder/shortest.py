"""The text ``repr`` gives a float64, for a whole array at once.

``cells(values)`` returns one row of ASCII bytes per value. Deleting the NUL
bytes of a row leaves exactly ``repr(float(value))``: the shortest decimal
that reads back to the same double, of those the closest, in CPython's
layout (exponent form when the decimal point would sit more than 16 places
right of the first digit or more than 3 zeros left of it, else positional
with at least one digit after the point). A NUL stands where this value has
no character and another value of the array has one, so a writer can lay
the rows of several arrays side by side and delete the NULs of the whole
block at once.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) in the 128-bit form of A. Bolz's ``schubfach_64``, run in
uint64 over the whole array. For v = c 2^q, a table entry g ~ 10^-k 2^-r
with 2^127 <= g < 2^128 turns c and its two rounding boundaries into
4 v / 10^k rounded to odd, and comparisons pick the shortest digits inside
the rounding interval. The boundaries 4c + 2 and 4c - 2 (4c - 1 when the
lower one is closer) are found from the one exact 192-bit product g 4c 2^h
by adding and subtracting g shifted. Zero is laid out with the rest; NaN,
the infinities and subnormal values go through ``repr`` one element at a
time.
"""

import numpy as np

__all__ = ["cells"]

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_P10 = np.array([10**i for i in range(18)], _U)
_K_MIN, _K_MAX = -324, 292  # k = floor(log10(2^q)) over the exponents q of normal doubles


def _floor_log2_pow10(e):
    """floor(log2(10^e)) for |e| <= 1650 (exact integer arithmetic on arrays too)."""
    return (e * 1741647) >> 19


def _pow10_limbs():
    """g = floor(10^-k 2^-r) + 1 for k = _K_MIN.._K_MAX, with r = floor(log2(10^-k))
    - 127 so that 2^127 <= g < 2^128: one row per 32-bit limb, low first, then
    one per 64-bit word."""
    table = bytearray()
    for k in range(_K_MIN, _K_MAX + 1):
        e = 127 - k - _floor_log2_pow10(-k)  # 10^-k 2^-r = 5^-k 2^e
        if k <= 0:
            g = 5**-k << e if e >= 0 else 5**-k >> -e
        else:
            g = (1 << e) // 5**k
        table += (g + 1).to_bytes(16, "little")
    limbs = np.frombuffer(table, "<u4").reshape(-1, 4).T.astype(_U)
    words = np.frombuffer(table, "<u8").reshape(-1, 2).T.astype(_U)
    return np.concatenate([limbs, words])


def _words(texts, width=8):
    """Each text of at most ``width`` bytes as a row of ``width // 8`` uint64
    words, its first byte lowest."""
    joined = b"".join(t.ljust(width, b"\0") for t in texts)
    return np.frombuffer(joined, "<u8").astype(_U).reshape(-1, width // 8)


_G = _pow10_limbs()
# looked up per value, by the decimal point's place decpt (the value is 0.ddd 10^decpt):
# the suffix "e-05", "e+16".. of the exponent form by decpt + 329, for decpt - 1 from
# -330 to 330, and the "0." and zeros of 0.000ddd by decpt + 4 clipped to 0..5
_EXPONENT = _words(f"e{x:+03d}".encode() if not -4 <= x <= 15 else b""
                   for x in range(-330, 331))[:, 0]
_LEAD = _words([b"", b"0.000", b"0.00", b"0.0", b"0.", b""])[:, 0]
# masks keeping the first c bytes of 2 and of 3 words, by c
_KEEP_INT = _words([b"\xff" * c for c in range(17)], 16)
_KEEP_FRAC = _words([b"\xff" * c for c in range(18)], 24)
_ASCII_0 = _U(0x3030303030303030)


def _mul(x0, x1, y0, y1):
    """(high, low) 64-bit words of x y, for 32-bit limbs x = x1 2^32 + x0 and
    y = y1 2^32 + y0 with y1 < 2^27, so that no partial sum overflows."""
    p00 = x0 * y0
    p10 = x1 * y0
    mid = (p00 >> _U(32)) + (p10 & _M32) + x0 * y1
    return x1 * y1 + (p10 >> _U(32)) + (mid >> _U(32)), (mid << _U(32)) | (p00 & _M32)


def _shift_left(g0, g1, s):
    """The 192-bit words, low first, of g << s for 128-bit g = (g0, g1), 0 < s < 64."""
    return g0 << s, (g1 << s) | (g0 >> (_U(64) - s)), g1 >> (_U(64) - s)


def _digits(a):
    """Shortest round-trip digits of positive normal doubles ``a``: (d, k) with
    d 10^k the closest of the shortest decimals that read back to ``a``, and
    10^14 <= d < 10^17."""
    bits = a.view(_U)
    frac = bits & _U((1 << 52) - 1)
    ieee_exp = (bits >> _U(52)).astype(np.int64)
    c = frac | _U(1 << 52)
    q = ieee_exp - 1075
    closer = (frac == 0) & (ieee_exp > 1)  # the lower boundary is half as far
    k = (q * 1262611 - closer * 524031) >> 22  # floor(log10(2^q)), of (3/4) 2^q if closer
    h = (q + _floor_log2_pow10(-k) + 1).astype(_U)  # 1..4
    g0, g1, g2, g3, lo, hi = np.take(_G, k - _K_MIN, axis=1)
    # 4c 2^h < 2^59 in 32-bit limbs; the 192-bit product e = g 4c 2^h
    cp = c << (h + _U(2))
    cp0, cp1 = cp & _M32, cp >> _U(32)
    a1, e0 = _mul(g0, g1, cp0, cp1)
    e2, b0 = _mul(g2, g3, cp0, cp1)
    e1 = a1 + b0
    e2 += e1 < b0
    # the boundaries: 4c + 2 and 4c - 2 (4c - 1 when closer), times 2^h
    r0, r1, r2 = _shift_left(lo, hi, h + _U(1))
    l0, l1, l2 = _shift_left(lo, hi, h + _U(1) - closer)
    # round to odd: the top word, its last bit set when the middle word exceeds 1
    vb = e2 | (e1 > _U(1))
    x1 = e1 + r1
    y1 = x1 + ((e0 + r0) < e0)
    vbr = (e2 + r2 + ((x1 < e1) | (y1 < x1))) | (y1 > _U(1))
    borrow = e0 < l0
    x1 = e1 - l1
    y1 = x1 - borrow
    vbl = (e2 - l2 - ((e1 < l1) | (x1 < borrow))) | (y1 > _U(1))
    odd = c & _U(1)  # an even c keeps its boundaries
    lower = vbl + odd
    upper = vbr - odd
    s = vb >> _U(2)
    # one digit shorter, if exactly one candidate of that length is inside
    sp = s // _U(10)
    up_in = lower <= sp * _U(40)
    wp_in = sp * _U(40) + _U(40) <= upper
    shorter = up_in != wp_in
    u_in = lower <= s << _U(2)
    w_in = (s << _U(2)) + _U(4) <= upper
    mid = (s << _U(2)) + _U(2)
    round_up = (vb > mid) | ((vb == mid) & ((s & _U(1)) != 0))
    d = np.where(shorter, sp + wp_in, s + np.where(u_in != w_in, w_in, round_up))
    return d, k + shorter


def _digits8(x):
    """The 8 decimal digits of each x < 10^8, one per byte, first digit in the lowest byte."""
    hi = x // _U(10000)
    v = hi | ((x - hi * _U(10000)) << _U(32))  # two 4-digit lanes
    q = ((v * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)  # each lane // 100
    v = q | ((v - q * _U(100)) << _U(16))  # four 2-digit lanes
    q = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # each lane // 10
    return q | ((v - q * _U(10)) << _U(8))


def cells(values) -> np.ndarray:
    """The text of ``repr(float(v))`` for each v of ``values``, one uint8 row
    per value, with NUL bytes where the row has no character."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    m = v.size
    if m == 0:
        return np.zeros((0, 0), np.uint8)
    bits = v.view(_U)
    neg = bits >> _U(63)
    ieee_exp = (bits >> _U(52)) & _U(0x7FF)
    zero = (bits << _U(1)) == 0
    slow = np.flatnonzero((ieee_exp == 0x7FF) | ((ieee_exp == 0) & ~zero))
    a = np.abs(v)
    a[slow] = 1.0
    a[zero] = 1.0  # laid out as 1.0, then its digit set to 0
    d, k = _digits(a)
    ndig = 15 + (d >= _P10[15]) + (d >= _P10[16])
    decpt = ndig + k  # the value is 0.(digits) 10^decpt
    decpt[zero] = 1
    d17 = d * _P10[17 - ndig]  # 17 digits, the first not 0
    d17[zero] = 0
    n = ndig.copy()  # significant digits: less the trailing zeros, found where d ends in 0
    ends = np.flatnonzero(d == (d // _U(10)) * _U(10))
    r = d[ends]
    for z in (16, 8, 4, 2, 1):
        cut = r // _P10[z]
        divides = cut * _P10[z] == r
        r = np.where(divides, cut, r)
        n[ends] -= divides * z
    expo = (decpt > 16) | (decpt < -3)
    small = ~expo & (decpt <= 0)  # 0.000ddd
    ip = np.where(expo, 1, np.where(small, 0, decpt))  # digits before the point
    fp = np.where(expo, n - ip, np.maximum(n - ip, 1))  # digits after it
    # the 17 digits as three words, first digit in the lowest byte
    top = d17 // _U(10**9)
    rest = d17 - top * _U(10**9)
    mid = rest // _U(10)
    text = np.empty((m, 3), _U)
    text[:, 0] = _digits8(top)
    text[:, 1] = _digits8(mid)
    text[:, 2] = rest - mid * _U(10)
    # the digits after the point: the text moved ip bytes towards the start, a
    # word at once when ip >= 8, then 0 to 8 bytes (numpy shifts by 64 give 0)
    big = ip >= 8
    u0 = np.where(big, text[:, 1], text[:, 0])
    u1 = np.where(big, text[:, 2], text[:, 1])
    u2 = np.where(big, 0, text[:, 2])
    shift = (8 * (ip - 8 * big)).astype(_U)
    frac = np.empty((m, 3), _U)
    frac[:, 0] = (u0 >> shift) | (u1 << (_U(64) - shift))
    frac[:, 1] = (u1 >> shift) | (u2 << (_U(64) - shift))
    frac[:, 2] = u2 >> shift
    texts = [repr(x).encode("ascii") for x in v[slow].tolist()]
    sign_w = int(neg.any())
    lead_w = 2 - int(decpt[small].min()) if small.any() else 0
    int_w = int(ip.max())
    point = (fp > 0) & ~small
    point_w = int(point.any())
    frac_w = int(fp.max())
    exp_w = 4 + int((np.abs(decpt[expo] - 1) >= 100).any()) if expo.any() else 0
    width = max([sign_w + lead_w + int_w + point_w + frac_w + exp_w, *map(len, texts)])
    # Each piece is stored as whole words from its first column. Its bytes past
    # its own width are 0, and the next piece, stored after it, overwrites them.
    out = np.empty((m, width + 24), np.uint8)

    def store(col, piece_w):
        """The words a piece ``piece_w`` bytes wide stores at ``col``, and the next column."""
        return out[:, col : col + 8 * -(-piece_w // 8)].view(_U), col + piece_w

    out[:, 0] = neg * ord("-")
    col = sign_w
    if lead_w:
        view, col = store(col, lead_w)
        view[:, 0] = np.take(_LEAD, np.clip(decpt + 4, 0, 5))
    if int_w:
        view, col = store(col, int_w)
        w = view.shape[1]
        np.bitwise_and(text[:, :w] | _ASCII_0, np.take(_KEEP_INT, ip, axis=0)[:, :w], out=view)
    if point_w:
        out[:, col] = point * ord(".")
        col += 1
    view, col = store(col, frac_w)
    w = view.shape[1]
    np.bitwise_and(frac[:, :w] | _ASCII_0, np.take(_KEEP_FRAC, fp, axis=0)[:, :w], out=view)
    if exp_w:
        view, col = store(col, exp_w)
        view[:, 0] = np.take(_EXPONENT, decpt + 329)
    # a fallback text may be wider than the pieces, which left the rest unset
    out = out[:, :width]
    out[:, col:] = 0
    for i, t in zip(slow.tolist(), texts):
        out[i] = 0
        out[i, : len(t)] = np.frombuffer(t, np.uint8)
    return out
