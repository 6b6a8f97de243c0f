"""Text of float64 arrays, byte for byte the text ``repr`` gives each value.

CPython's ``repr`` of a float is David Gay's bignum ``dtoa`` in mode 0: the
shortest decimal that reads back to the same double, the nearest such one
to the double when several are that short, ties to an even last digit.  It
costs about 1 us a value.  The same digits come exactly from 64-bit integer
arithmetic by Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; the algorithm of the JDK's Double.toString), which this
module runs on uint64 arrays, CHUNK values at a time.

**Digits.**  A normal double is v = c 2^q, 2^52 <= c < 2^53.  Every real of
its rounding interval R_v reads back as v: R_v runs from (4c - 2) 2^(q-2)
to (4c + 2) 2^(q-2), or from (4c - 1) 2^(q-2) at c = 2^52 above the
lowest binade, where the spacing below v halves, and holds its ends iff c
is even, as the round-half-even read-back takes a midpoint to the even
neighbour.  With k = floor(log10 2^q) (floor(log10 (3/4) 2^q) where the
spacing halves) the width of R_v is at least 10^k and below 10^(k+1)
(Giulietti, section 9), so:

- R_v holds at most one multiple of 10^(k+1).  If it holds one, that one
  is the shortest decimal in R_v.
- Otherwise the shortest decimals in R_v are among s 10^k and (s + 1) 10^k,
  s = floor(v / 10^k), and at least one of the two lies in R_v.  The
  answer is the one in R_v or, when both are, the nearer to v, and s on a
  tie if s is even.

That is Gay's choice too: mode 0 takes an end of R_v only for an even c and
rounds a tie to the even digit.  The scaled value 4 v / 10^k and the two
ends on the same scale are round-to-odd products rop(g c' 2^h / 2^127),
c' = 4c, 4c - 2 (4c - 1) and 4c + 2, with h = q + floor(-k log2 10) + 2
and g = floor(10^-k 2^-r) + 1 the 126-bit scale of 10^-k, 2^125 <= g <
2^126 (Giulietti's figure 8 and section 9.9 show that these products order
the candidates as the exact values do).  The table of g holds 617 entries,
k = -324 .. 292, as two uint64 arrays of 63-bit halves, built from Python
ints on first use, as are the text tables below.  A 64 x 64 -> 128-bit high
product comes from 32-bit halves.  Every operand is a uint64 array or an
explicit np.uint64 constant, so numpy 1.x and 2.x promote alike, and no
arithmetic runs on numpy scalars, whose overflow would warn.

**Text.**  With the digits d_1 .. d_n (trailing zeros dropped) and the
decimal exponent E of d_1, repr writes ``[-]d_1[.d_2..d_n]e<sign>XX[X]``
(at least two exponent digits) when E < -4 or E >= 16, and positional text
otherwise (CPython's 'r' format code, float_repr_style 'short').  Here only
the exponent form is written, chosen by E itself, which is repr's own test:
for normal doubles that is |x| < 1e-4 or |x| >= 1e16.  The other values go
to ``repr``: positional ones, subnormals (c < 2^52 breaks the width bound;
the JDK prints 4.9E-324 where Python prints 5e-324), infinities and NaN.
+0.0 and -0.0 are the literals ``0.0`` and ``-0.0``.  So every value gets
repr's text: the digits by the argument above, the layout by repr's rule.
tests/test_floattext.py checks it value for value against repr.  A text is
at most 24 bytes, the length of ``repr(-2.2250738585072014e-308)``, and the
result is an 'S24' array, whose items read back without their NUL padding.
"""

from __future__ import annotations

import functools

import numpy as np

K_MIN, K_MAX = -324, 292    # decimal exponents k of the g table
CHUNK = 4096                # values per pass of the kernel: its temporaries stay in cache
# below this many values float_text calls repr per value.  On a 2-core Xeon
# with numpy 2.4 the kernel costs about 0.23 ms per call plus 0.2 us a value
# and repr about 1.4 us a value: the crossover is near 160 values when all
# are in exponent form and near 330 when a third are positional.  Above 512
# the kernel wins on either mix
VECTOR_MIN = 512

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_C_MIN = _U(1 << 52)
_T_MASK = _U((1 << 52) - 1)
_POW10 = np.array([10**j for j in range(17)], dtype=np.uint64)
_ZERO, _MINUS_ZERO = (_U(int.from_bytes(t, "little")) for t in (b"0.0", b"-0.0"))
_LOW_BYTES = np.array([(1 << 8 * j) - 1 for j in range(9)], dtype=np.uint64)


def _flog2pow10(e):
    """floor(e log2 10), exact for |e| <= 1233."""
    return (e * 217_706) >> 16


@functools.cache
def _g_table():
    """g for k = K_MIN .. K_MAX as two uint64 arrays of 63-bit halves."""
    g1, g0 = [], []
    for k in range(K_MIN, K_MAX + 1):
        # 10^-k = beta 2^r with 2^125 <= beta < 2^126, and g = floor(beta) + 1
        r = _flog2pow10(-k) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        num, den = (num << -r, den) if r < 0 else (num, den << r)
        g = num // den + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


@functools.cache
def _text_tables():
    """The exponent texts e-308 .. e+308 and the 4-digit groups 0000 ..
    9999 as little-endian uint64 words, the first character in the low
    byte, and each group's length up to its last nonzero digit (0 for 0000).
    """
    exps = np.array([b"e%+03d" % e for e in range(-308, 309)], dtype="S8")
    # uint32 temporaries of 40 kB each: below glibc's mmap threshold, so
    # building the tables does not grow the heap by its freed blocks
    i = np.arange(10_000, dtype=np.uint32)
    quads = np.zeros(10_000, dtype=np.uint64)
    last = np.zeros(10_000, dtype=np.intp)
    for j, p in enumerate((1000, 100, 10, 1)):
        digit = i // p % 10
        quads |= (digit + ord("0")).astype(np.uint64) << _U(8 * j)
        last = np.where(digit != 0, j + 1, last)
    return exps.view("<u8").astype(np.uint64), quads, last


def _mulhi(a, b):
    """floor(a b / 2^64) of uint64 arrays, from 32-bit halves."""
    a0, a1 = a & _M32, a >> _U(32)
    b0, b1 = b & _M32, b >> _U(32)
    lh, hl = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U(32)) + (lh & _M32) + (hl & _M32)
    return a1 * b1 + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32))


def _rop(g1, g0, cp):
    """Round to odd of g cp / 2^127, g = g1 2^63 + g0 (Giulietti's rop)."""
    x1 = _mulhi(g0, cp)
    z = ((g1 * cp) >> _U(1)) + x1
    vbp = _mulhi(g1, cp) + (z >> _U(63))
    return vbp | (((z & _M63) + _M63) >> _U(63))


def _digits(bits):
    """Shortest digits d and exponent k, v = d 10^k, of normal doubles.

    ``bits`` are the doubles' uint64 patterns; the sign bit is ignored.
    """
    g1_table, g0_table = _g_table()
    t = bits & _T_MASK
    be = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    c = t | _C_MIN
    q = be - 1075
    irregular = (t == 0) & (be > 1)
    # floor(log10 2^q), or floor(log10 (3/4) 2^q) where the spacing halves
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = g1_table[k - K_MIN], g0_table[k - K_MIN]
    out = c & _U(1)    # 1 where the ends of R_v are out of it
    cb = c << _U(2)
    # 4 v / 10^k and the two ends of R_v on the same scale, in one product
    cps = np.stack([cb, cb - _U(2) + irregular.astype(np.uint64), cb + _U(2)])
    vb, vbl, vbr = _rop(g1, g0, cps << h)
    s = vb >> _U(2)
    # one digit fewer: the multiples s' 10^(k+1) and (s' + 1) 10^(k+1),
    # s' = floor(s / 10), at most one of them in R_v
    sp10 = s // _U(10) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = (tp10 << _U(2)) + out <= vbr
    # s 10^k and (s + 1) 10^k
    t1 = s + _U(1)
    uin = vbl + out <= s << _U(2)
    win = (t1 << _U(2)) + out <= vbr
    twice = (s + t1) << _U(1)
    nearer_s = (vb < twice) | ((vb == twice) & ((s & _U(1)) == _U(0)))
    d = np.where(uin != win, np.where(uin, s, t1), np.where(nearer_s, s, t1))
    d = np.where(upin != wpin, np.where(upin, sp10, tp10), d)
    return d, k


def _exponent_text(bits):
    """Exponent-form text of normal doubles as (len, 3) little-endian words.

    The 24 bytes of each row hold its text, NUL-padded.  Returns the words
    and a mask of the values whose repr is positional instead; their rows
    are left for the caller.
    """
    exp_words, quad_words, last_digit = _text_tables()
    d, k = _digits(bits)
    # scale d to exactly 17 digits d_1 .. d_17, trailing zeros included
    ndig = np.searchsorted(_POW10, d, side="right")
    d17 = d * _POW10[17 - ndig]
    e10 = k + ndig - 1
    # d_2 .. d_17 as four 4-digit groups, each 4 ASCII bytes from a table
    tail = d17 % _POW10[16]
    hi, lo = tail // _POW10[8], tail % _POW10[8]
    groups = [x.astype(np.intp) for x in
              (hi // _POW10[4], hi % _POW10[4], lo // _POW10[4], lo % _POW10[4])]
    w = [quad_words[x] for x in groups]
    words = np.empty((len(d), 3), dtype="<u8")
    first = d17 // _POW10[16] + _U(ord("0"))
    words[:, 0] = first | _U(ord(".") << 8) | (w[0] << _U(16)) | (w[1] << _U(48))
    words[:, 1] = (w[1] >> _U(16)) | (w[2] << _U(16)) | (w[3] << _U(48))
    words[:, 2] = w[3] >> _U(16)
    # the text is d_1 '.' d_2 .. up to the last nonzero digit, or d_1 alone:
    # keep its first mlen bytes, then write the exponent from byte mlen on
    mlen = np.ones(len(d), dtype=np.intp)
    for j, x in enumerate(groups):
        last = last_digit[x]
        mlen = np.where(last != 0, 2 + 4 * j + last, mlen)
    for i in range(3):
        words[:, i] &= _LOW_BYTES[np.clip(mlen - 8 * i, 0, 8)]
    exp = exp_words[e10 + 308]
    at = np.arange(0, 24 * len(d), 24) + mlen
    flat = words.view(np.uint8).reshape(-1)
    for j in range(5):
        flat[at + j] = exp >> _U(8 * j)
    # a minus sign shifts the row one byte up
    neg = np.flatnonzero(bits >> _U(63))
    w = words[neg]
    words[neg, 0] = (w[:, 0] << _U(8)) | _U(ord("-"))
    words[neg, 1] = (w[:, 1] << _U(8)) | (w[:, 0] >> _U(56))
    words[neg, 2] = (w[:, 2] << _U(8)) | (w[:, 1] >> _U(56))
    return words, (e10 >= -4) & (e10 < 16)


def float_text(values) -> np.ndarray:
    """The text ``repr`` gives each value, as ASCII in an 'S24' array.

    The values go CHUNK at a time, so beside the result no temporary holds
    more than a chunk.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    flat = x.reshape(-1)
    if flat.size < VECTOR_MIN:
        return np.array([repr(v) for v in flat.tolist()], dtype="S24").reshape(x.shape)
    out = np.zeros(flat.size, dtype="S24")
    words = out.view("<u8").reshape(-1, 3)
    fallback = []
    for lo in range(0, flat.size, CHUNK):
        bits = flat[lo : lo + CHUNK].view(np.uint64)
        be = (bits >> _U(52)) & _U(0x7FF)
        normal = (be != _U(0)) & (be != _U(0x7FF))
        zero = (bits << _U(1)) == _U(0)
        chunk = words[lo : lo + CHUNK]
        chunk[normal], positional = _exponent_text(bits[normal])
        chunk[zero, 0] = np.where(bits[zero] == _U(0), _ZERO, _MINUS_ZERO)
        # repr for subnormals, infinities, NaN and positional values
        other = ~(normal | zero)
        other[normal] = positional
        fallback.append(lo + np.flatnonzero(other))
    fallback = np.concatenate(fallback)
    out[fallback] = [repr(v) for v in flat[fallback].tolist()]
    return out.reshape(x.shape)
