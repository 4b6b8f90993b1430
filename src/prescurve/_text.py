"""Decimal text of float and integer arrays, byte for byte equal to ``repr``.

``rows_text(values, sep, row_sep)`` returns
``row_sep.join(sep.join(repr(v) for v in row) for row in values.tolist())``
for a finite (N, K) float array or an (N, K) integer array.  It works on
blocks of values with uint64 arithmetic instead of one ``repr`` call per
value.

Digits.  ``repr`` writes the shortest decimal that reads back as the same
float and, of those, the one nearest to it.  For v = c 2^q (c the 53-bit
significand) Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) finds it from v and the two ends of its rounding interval,
each times 10^-k with k = floor(log10 2^q) and rounded to odd.  On the
positional range that this module handles, 1e-4 <= |v| < 1e16, k lies in
[-20, 0], so 10^-k = 5^-k 2^-k and 5^-k < 2^47 are exact: each scaled
value is the high word of one 64 x 64-bit product, and the rounding to
odd is exact too.

Text.  Every value becomes six 8-byte words (the ASCII text with NUL
bytes where a character is absent), followed by its separator's words;
one pass that drops the NUL bytes joins them.  Values off the positional
range -- 0.0, -0.0, subnormals, |v| < 1e-4 and |v| >= 1e16, which
``repr`` writes as "0.0" or with an exponent -- take ``repr`` one at a
time into their own words.

Integers.  A value 0 <= v < 10^8 is one word: its eight digits from the
same lanes as a float's, leading zeros dropped.  Any other integer takes
``repr`` one at a time into three words, which every value of an array
holding one gets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rows_text"]

#: Values per block: the temporaries of one block stay at a few hundred KB.
BLOCK = 4096

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_ZEROS = _U(0x3030303030303030)  # "00000000"

# Per binary exponent q = -66..1 of the positional range: k =
# floor(log10 2^q) (Schubfach's integer form), 10^-k as 5^-k 2^-k with
# 5^-k shifted into [2^63, 2^64), and the shift h that puts 4 c 2^q 10^-k
# into the high word of (4 c << h) * g.  Schubfach narrows the interval
# below a power of two (c = 2^52) and takes k of 3/4 2^q there; on this
# range the regular interval gives the same digits for all 67 powers of
# two, which the tests check one by one, so every value takes it.
_Q_MIN = -66
_G, _H, _K = [], [], []
for _q in range(_Q_MIN, 2):
    _k = (_q * 661971961083) >> 41
    _p5 = 5**-_k
    _G.append(_p5 << (64 - _p5.bit_length()))
    _H.append(_q - _k + _p5.bit_length())
    _K.append(_k)
_G = np.array(_G, dtype=_U)
_H = np.array(_H, dtype=_U)
_K = np.array(_K, dtype=np.int64)
del _q, _k, _p5


def _low_bytes(n: int) -> int:
    """Mask of the first n bytes of a little-endian word."""
    return (1 << (8 * n)) - 1


# Per decimal-point position d = -3..16 (v = 0.D x 10^d for the 17 digits
# D = d0 d1 ... d16, d0 != 0): the bytes of the word of d1..d8 and of the
# word of d9..d16 that lie before the point, whether d0 does, and the
# point word ".", "." "0", "." "00" or "." "000" (the fraction's leading
# zeros when d < 0).
_D_MIN = -3
_INT1 = np.array([_low_bytes(min(max(d - 1, 0), 8)) for d in range(-3, 17)], dtype=_U)
_INT2 = np.array([_low_bytes(min(max(d - 9, 0), 8)) for d in range(-3, 17)], dtype=_U)
_INT_D0 = np.array([d >= 1 for d in range(-3, 17)], dtype=_U)
_POINT = np.array(
    [0x2E | (0x303030 & _low_bytes(max(-d, 0))) << 8 for d in range(-3, 17)], dtype=_U
)


def _mulhi_odd(cp, g0, g1, g):
    """High word of cp * g, its last bit set when the low word is not zero
    (so rounded to odd); g = g1 2^32 + g0 and cp < 2^63."""
    c0 = cp & _M32
    c1 = cp >> _U(32)
    p00 = c0 * g0
    p01 = c0 * g1
    p10 = c1 * g0
    mid = (p00 >> _U(32)) + (p01 & _M32) + (p10 & _M32)
    hi = c1 * g1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))
    return hi | (cp * g != _U(0))


def _digits(bits):
    """Shortest digits of positional-range floats given by their bits (sign
    bit clear): the 17-digit integer D (trailing zeros added) and the point
    d, so that |v| reads 0.D x 10^d."""
    c = (bits & _U((1 << 52) - 1)) | _U(1 << 52)
    row = (bits >> _U(52)).astype(np.int64) - (1075 + _Q_MIN)
    g = _G[row]
    h = _H[row]
    k = _K[row]
    g0 = g & _M32
    g1 = g >> _U(32)
    cb = c << _U(2)
    out = c & _U(1)  # an odd c's interval is open
    vb = _mulhi_odd(cb << h, g0, g1, g)
    vbl = _mulhi_odd((cb - _U(2)) << h, g0, g1, g) + out
    vbr = _mulhi_odd((cb + _U(2)) << h, g0, g1, g) - out
    # Schubfach's choice: the one multiple of 10 10^k in the interval if
    # there is one, else the nearer of s 10^k and (s + 1) 10^k (s even on a
    # tie), or the one of them in the interval
    s = vb >> _U(2)
    sp = s // _U(10) * _U(10)
    s4 = s << _U(2)
    sp4 = sp << _U(2)
    upin = vbl <= sp4
    wpin = sp4 + _U(40) <= vbr
    uin = vbl <= s4
    win = s4 + _U(4) <= vbr
    mid = s4 + _U(2)
    near_s = (vb < mid) | ((vb == mid) & (s & _U(1) == _U(0)))
    take_s = np.where(uin != win, uin, near_s)
    f = np.where(upin != wpin, sp + wpin * _U(10), s + ~take_s)
    # f >= s >= c >= 2^52 > 10^15 and f < 10^17: 16 or 17 digits
    short = f < _U(10**16)
    return f + short * (f * _U(9)), k + 17 - short


def _ascii8(x):
    """Decimal digits of each x < 10^8 as bytes 0..9 (not yet ASCII), the
    first digit in the low byte, by halving in lanes: 4 + 4, 2 + 2, 1 + 1."""
    hi = x // _U(10000)
    y = hi | ((x - hi * _U(10000)) << _U(32))
    hi = ((y * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)  # lane // 100
    y = hi | ((y - hi * _U(100)) << _U(16))
    hi = ((y * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # lane // 10
    return hi | ((y - hi * _U(10)) << _U(8))


def _smear(x):
    """Byte i of the result is nonzero iff a byte i.. of x is."""
    x = x | (x >> _U(8))
    x = x | (x >> _U(16))
    return x | (x >> _U(32))


def _nonzero_bytes(x):
    """0xFF in each byte of x that is not zero; bytes of x are < 0x80."""
    return (((x + _U(0x7F7F7F7F7F7F7F7F)) & _U(0x8080808080808080)) >> _U(7)) * _U(0xFF)


def _fill(words, values):
    """Write the text of each value of a 1-D finite float64 array into the
    six words of its row of ``words``: the sign and the digit before
    the point ("0" when |v| < 1); the digits d1..d16 before the point; the
    point, with the fraction's leading zeros and d0 when |v| < 1; the
    digits d1..d16 after it without trailing zeros.  NUL fills the rest."""
    size = np.abs(values)
    fast = (size >= 1e-4) & (size < 1e16)
    slow = np.flatnonzero(~fast)
    bits = np.where(fast, values, 1.0).view(_U)
    digits, point = _digits(bits & _U((1 << 63) - 1))
    i = point - _D_MIN
    d0 = digits // _U(10**16)
    rest = digits - d0 * _U(10**16)
    hi = rest // _U(10**8)
    w1, w2 = _ascii8(np.stack([hi, rest - hi * _U(10**8)]))
    int1 = _INT1[i]
    int2 = _INT2[i]
    int_d0 = _INT_D0[i]
    # fraction digits, trailing zeros dropped: keep a byte when it or a
    # later digit is not zero
    f1 = w1 & ~int1
    f2 = w2 & ~int2
    later = _smear(f2)
    keep2 = _nonzero_bytes(later) & ~int2
    keep1 = _nonzero_bytes(_smear(f1 | ((later & _U(0xFF)) << _U(56)))) & ~int1
    # the fraction reads "0" when no digit falls after the point
    empty = ((f1 | f2) == _U(0)) & (int_d0 == _U(1))
    words[:, 0] = ((bits >> _U(63)) * _U(0x2D)) | ((_U(0x30) + d0 * int_d0) << _U(8))
    words[:, 1] = (w1 | _ZEROS) & int1
    words[:, 2] = (w2 | _ZEROS) & int2
    words[:, 3] = (
        _POINT[i]
        | (((_U(0x30) + d0) * (_U(1) - int_d0)) << _U(32))
        | (empty * _U(0x3000))
    )
    words[:, 4] = (w1 | _ZEROS) & keep1
    words[:, 5] = (w2 | _ZEROS) & keep2
    if slow.size:  # at most 24 characters each
        text = b"".join(repr(v).encode("ascii").ljust(48, b"\0") for v in values[slow].tolist())
        words[slow] = np.frombuffer(text, dtype="<u8").reshape(-1, 6)


def _fill_int(words, values):
    """Write the text of each value of a 1-D integer array into its row of
    ``words``, one word or three: the digits of 0 <= v < 10^8 without
    leading zeros, ``repr`` of any other value (three words only).  NUL
    fills the rest."""
    fast = (values >= 0) & (values < 10**8)
    digits = _ascii8(np.where(fast, values, 0).astype(_U))
    # keep the last digit and every byte from the first nonzero one on
    lead = digits | _U(1 << 56)
    lead = lead | (lead << _U(8))
    lead = lead | (lead << _U(16))
    lead = lead | (lead << _U(32))
    words[:, 0] = (digits | _ZEROS) & _nonzero_bytes(lead)
    words[:, 1:] = 0
    slow = np.flatnonzero(~fast)
    if slow.size:  # at most 20 characters each
        text = b"".join(repr(v).encode("ascii").ljust(24, b"\0") for v in values[slow].tolist())
        words[slow] = np.frombuffer(text, dtype="<u8").reshape(-1, 3)


def _sep_words(text: str, n_words: int):
    raw = text.encode("ascii")
    if b"\0" in raw:
        raise ValueError("separators must not contain NUL")
    return np.frombuffer(raw.ljust(8 * n_words, b"\0"), dtype="<u8")


def rows_text(values, sep: str, row_sep: str) -> str:
    """``row_sep.join(sep.join(repr(v) for v in row) for row in
    values.tolist())`` for an (N, K) array: of integers, or of floats
    (anything else is taken as float64), where a value that is not finite
    raises ``ValueError``.  Separators are ASCII without NUL."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"values must have shape (N, K), got {values.shape}")
    if values.dtype.kind in "iu":
        fill = _fill_int
        width = 1 if values.size == 0 or (values.min() >= 0 and values.max() < 10**8) else 3
    else:
        values = values.astype(np.float64, copy=False)
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        fill, width = _fill, 6
    n, k = values.shape
    if n == 0 or k == 0:
        return row_sep.join([""] * n)
    n_sep = -(-max(len(sep), len(row_sep), 1) // 8)
    seps = np.stack([_sep_words(sep, n_sep)] * (k - 1) + [_sep_words(row_sep, n_sep)])
    rows = min(n, max(1, BLOCK // k))
    buffer = np.empty((rows, k, width + n_sep), dtype="<u8")
    buffer[:, :, width:] = seps
    chunks = []
    for start in range(0, n, rows):
        block = values[start : start + rows]
        words = buffer[: len(block)]
        fill(words.reshape(-1, width + n_sep)[:, :width], np.ascontiguousarray(block).reshape(-1))
        chunks.append(words.tobytes().translate(None, b"\0"))
    text = b"".join(chunks).decode("ascii")
    return text[: len(text) - len(row_sep)]
