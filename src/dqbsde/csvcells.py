"""CSV cells as uint64 words: every float as CPython's ``repr``, every
integer as ``str``, from integer arithmetic only.

``float_words`` turns float64 bit patterns into cells, four little-endian
uint64 words per value whose bytes, NULs dropped, are ``"," +
repr(value)``:

* word 0: ``,``, a ``-`` for a negative value, then ``0.`` and up to three
  ``0`` when the decimal point comes before the first digit; for inf and
  nan the whole text (``,-inf``, ``,nan``), and words 1-3 are 0;
* words 1-3: the significand's 17 digits with a ``.`` after digit ``q``,
  made by inserting a 0 digit there and lowering it by 2, the bytes past
  the last one ``repr`` prints cleared, and the exponent (``e+22``,
  ``e-324``) in bytes 18-22; byte 23 stays 0, free for a newline.

It runs on a scratch of ``_WORK`` separate uint64 rows, allocated by the
caller for as many values as it passes at a time, and every step writes
into a scratch row (``out`` or in place): a call allocates nothing of its
length.

``repr`` writes the decimal point position ``p`` (value = 0.d1d2... *
10**p) in fixed notation when -4 < p <= 16, with ``.0`` on an integral
value, and otherwise as ``d.ddd`` and an exponent of at least two digits.
Its digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020): the shortest decimal in the value's rounding interval, of
two such the closer one, and on a tie the even one.  Python, unlike Java,
allows a single digit, so Java's ``s >= 100`` guard and its ``10*c`` path
for tiny subnormals are left out.  The 64x128-bit products are summed from
32-bit limbs in the scratch, a low limb cut by shifts (``x << 32 >> 32``, in
place) where ``certs._mulhilo`` uses ``&``: a solve runs no bitwise loop.

No float operation touches a value, so the bytes do not depend on the
host's SIMD.  The cells use only integer ``+ - *``, shifts, ``%``, table
lookups and a conversion to float64 whose exponent gives a bit length: no
comparison, boolean array, bitwise operation or integer ``//``, whose
numpy loops a solve never runs and whose code pages would add to the peak
RSS.  ``_below`` compares by a sign bit, and an exact division by 10**j is
a shift by j and a product with the inverse of 5**j modulo 2**64.  Every
constant that meets a uint64 array is a uint64 (``_u``), so numpy before
2.0 cannot promote a result to float64.

Kept apart from ``csvrows``, the table writer, so that neither module
passes the 4,096 tokens at which Python's parser doubles its token array:
compiled from source, a module past it took ~0.1 MB more peak RSS.
"""

from __future__ import annotations

import functools

import numpy as np

_WORK = 14  # rows of a scratch

_U = np.uint64
_I = np.int64


@functools.cache
def _u(v: int) -> np.ndarray:
    """The uint64 constant v as a read-only 0-d array, which numpy
    dispatches faster than a scalar."""
    constant = np.array(v, dtype=_U)
    constant.flags.writeable = False
    return constant


_ONE = _u(1)
_S32 = _u(32)
_S63 = _u(63)
_ONE_BITS = _u(0x3FF0000000000000)  # 1.0, computed in place of 0, inf and nan
_INF_BITS = _u(0x7FF0000000000000)
_COMMA = _u(ord(","))
_K_MIN, _K_MAX = -324, 292  # floor(log10(2**q)) over the float64 exponents q
_INVERSE5 = {j: _u(pow(5 ** j, -1, 2 ** 64)) for j in (8, 16)}  # of 5**j modulo 2**64


def _word(text: str, at: int = 0) -> int:
    return int.from_bytes(text.encode("ascii"), "little") << (8 * at)


def _g(e: int) -> int:
    """floor(10**e * 2**(125 - floor(e * log2(10)))) + 1, exactly."""
    r = 125 - ((e * 913124641741) >> 38)
    if e >= 0:
        return (10 ** e << r if r >= 0 else 10 ** e >> -r) + 1
    return (1 << r) // 10 ** -e + 1


def _at_point(p: int) -> list:
    """By decimal point position p: 10**(17 - q) for the point after digit
    q (17: none), 19 * q, the bytes kept at least (one past the point of an
    integral value), the exponent, and word 0 of a positive and of a
    negative value."""
    fixed, whole = -4 < p <= 16, 0 < p <= 16
    q = p if whole else 17 if fixed else 1
    lead = "0." + "0" * -p if fixed and not whole else ""
    return [10 ** (17 - q), 19 * q, (p + 2) * whole, 0 if fixed else _word(f"e{p - 1:+03d}", 2),
            _word("," + lead), _word(",-" + lead)]


@functools.cache
def _tables():
    """Built on first use, so that a command writing no CSV builds none."""
    # g = g1 * 2**63 + g0 by k, as rows g0 and g1
    gtab = np.array([[_g(-k) % 2 ** 63 for k in range(_K_MIN, _K_MAX + 1)],
                     [_g(-k) >> 63 for k in range(_K_MIN, _K_MAX + 1)]], dtype=_U)
    pairs = np.array([i // 10 + (i % 10 << 8) for i in range(100)], dtype=_U)
    quads = (pairs[:, None] + (pairs[None, :] << _u(16))).reshape(-1)  # digits of 0..9999
    # By point position q (17: none) and bytes kept n: "0" on each kept
    # byte, and "." (= "0" - 2) on byte q, for the digit values to add to.
    text = [_word("0" * n) - (2 << (8 * q) if q < n else 0) for q in range(18) for n in range(19)]
    chars = np.array([[t >> (64 * w) & (2 ** 64 - 1) for t in text] for w in range(3)], dtype=_U)
    pow10 = np.array([10 ** i for i in range(18)], dtype=_U)
    points = range(_K_MIN + 1, _K_MAX + 18)
    by_point = np.empty((6, len(points)), dtype=_U)
    for j, p in enumerate(points):
        by_point[:, j] = _at_point(p)
    zpad = np.array([0x3030303030303030 >> 8 * z << 8 * z for z in range(9)], dtype=_U)
    return gtab, quads, chars, pow10, by_point, zpad


def _take(table, index, out, axis=None):
    """table[index] into out (the method, and "clip", let numpy write out
    directly)."""
    return table.take(index.view(np.intp), axis, out, "clip")


def _below(a, b, out):
    """1 where a < b, else 0, for uint64 a and b below 2**63, into out."""
    return np.right_shift(np.subtract(a, b, out), _S63, out)


def _bit0(x, out):
    return np.right_shift(np.left_shift(x, _S63, out), _S63, out)


def _ndigits(v, out, t):
    """Decimal digits of each v in [1, 2**57) into out, from its bit length."""
    np.copyto(out.view(np.float64), v, casting="unsafe")
    out >>= _u(52)
    out -= _u(1022)
    out *= _u(1233)
    out >>= _u(12)
    _take(_tables()[3], out, t)
    out += _ONE
    return np.subtract(out, _below(v, t, t), out)


def _digits8(v, out, t):
    """The 8 decimal digits of each v < 10**8 into out, one a byte, the most
    significant in the lowest byte; v and t are overwritten."""
    quads = _tables()[1]
    np.multiply(v, _u(109951163), out)
    out >>= _u(40)  # v // 10**4
    v -= np.multiply(out, _u(10 ** 4), t)
    _take(quads, out, t)
    _take(quads, v, out)
    out <<= _S32
    return np.add(out, t, out)


def _rop(top0, top1, low):
    """Java's rop: the 128-bit products (high words top0 and top1, of g0 and
    g1, and g1's low word low) over 2**127, rounded to odd, into low; top0
    and top1 are overwritten."""
    low >>= _ONE
    low += top0
    np.right_shift(low, _S63, top0)
    top0 += top1
    low <<= _ONE
    low >>= _ONE
    _below(_u(0), low, low)
    low *= np.subtract(_ONE, _bit0(top0, top1), top1)
    return np.add(low, top0, low)


def _rop_moved(op, g, low, top, h, step, carry, end):
    """_rop of the 128-bit products (top, low) op g << h (op: np.add or
    np.subtract) into end, with rows step and carry (two) as scratch; as
    bit 0 of g << h is 0, the carry or borrow out of a low word is bit 63
    of the sum or difference of the halves."""
    op(low[1], np.left_shift(g[1], h, step), end)
    for gj, lj, cj in zip(g, low, carry):
        np.right_shift(np.left_shift(gj, h, step), _ONE, step)
        op(np.right_shift(lj, _ONE, cj), step, cj)
        cj >>= _S63
    np.subtract(_u(64), h, h)
    for gj, tj, cj in zip(g, top, carry):
        op(tj, np.right_shift(gj, h, step), step)
        op(step, cj, cj)
    np.subtract(_u(64), h, h)
    return _rop(*carry, end)


def _shortest(w):
    """(d, k): Schubfach's shortest decimal d * 10**k, d < 10**17, of the
    positive finite float64 bit patterns in w[1], whose significands have
    the parity of w[0]'s; k is int64, and w[1:] is scratch."""
    gtab = _tables()[0]
    bits, c, k, h, irregular, a_hi, g0, g1, top0, top1, x0, x1, x2, x3 = w
    k = k.view(_I)
    np.right_shift(c, _u(52), h)
    c <<= _u(12)
    c >>= _u(12)
    # a power of two: closer left end
    np.multiply(_below(c, _ONE, irregular), _below(_ONE, h, a_hi), irregular)
    c += np.left_shift(_below(_u(0), h, a_hi), _u(52), a_hi)
    q = h.view(_I)
    np.maximum(q, 1, out=q)
    q -= 1075
    np.multiply(q, 661971961083, k)
    k -= np.multiply(irregular.view(_I), 274743187321, a_hi.view(_I))
    k >>= 41
    q += np.right_shift(np.multiply(k, -913124641741, a_hi.view(_I)), 38, a_hi.view(_I))
    q += 4  # h: Schubfach's h + 2, 4..7
    # the 128-bit products of g0 and g1 with a = 4c * 2**h: the high words
    # from 32-bit limbs, g split in place and looked up again, then the low
    a = np.left_shift(c, h, c)
    np.right_shift(a, _S32, a_hi)
    a <<= _S32
    a >>= _S32
    index = np.subtract(k, _K_MIN, x3.view(_I))
    for g, g_by_k, top in ((g0, gtab[0], top0), (g1, gtab[1], top1)):
        g_hi = np.right_shift(_take(g_by_k, index, g), _S32, x0)
        g <<= _S32
        g >>= _S32
        mid = np.multiply(a, g, x1)
        mid >>= _S32
        mid += np.multiply(a_hi, g, top)
        np.right_shift(mid, _S32, top)
        mid <<= _S32
        mid >>= _S32
        mid += np.multiply(a, g_hi, g)
        mid >>= _S32
        top += mid
        top += np.multiply(a_hi, g_hi, g_hi)
        _take(g_by_k, index, g)
    a += np.left_shift(a_hi, _S32, a_hi)
    low = np.multiply(a, g0, x0), np.multiply(a, g1, x1)
    # and with the ends of the rounding interval, 2**(h+1) away (2**h left
    # of a power of two), by sums with g << (h+1)
    g, top = (g0, g1), (top0, top1)
    h -= _ONE
    vbr = _rop_moved(np.add, g, low, top, h, c, (a_hi, x2), x3)
    h -= irregular
    vbl = _rop_moved(np.subtract, g, low, top, h, c, (a_hi, x2), irregular)
    vb = _rop(top0, top1, low[1])
    odd = _bit0(bits, g0)
    vbl += odd
    vbr -= odd
    s = np.right_shift(vb, _u(2), h)
    sp10 = np.subtract(s, np.remainder(s, _u(10), c), c)
    four = np.left_shift(s, _u(2), a_hi)
    four10 = np.left_shift(sp10, _u(2), x2)
    # exactly one of the shorter neighbours sp10, sp10 + 10 out of the
    # interval: the other one; else s or s + 1: the one inside, else the
    # closer one, else the even one (vb + s % 2 > 4s + 2: s + 1)
    out_u = _below(four10, vbl, g1)
    short = np.subtract(out_u, _below(vbr, np.add(four10, _u(40), top0), top0), top0)
    short *= short
    inside = _below(np.add(four, _u(3), top1), vbr, top1)
    up = _below(four, vbl, vbl)
    four += _u(2)
    vb += _bit0(s, g0)
    np.maximum(up, _below(four, vb, vb), out=up)
    up *= inside
    s += up
    sp10 += np.multiply(out_u, _u(10), out_u)
    sp10 -= s
    sp10 *= short
    s += sp10
    return s, k


def float_words(w):
    """The cells of the float64 bit patterns in w[0]: returns the rows of
    their words 0 and 1-3; w is _WORK uint64 rows of one length, the
    scratch of every step."""
    quads, chars, pow10, by_point = _tables()[1:5]
    bits, mag = w[0], w[1]
    np.right_shift(np.left_shift(bits, _ONE, mag), _ONE, mag)
    special = np.add(_below(mag, _ONE, w[2]), _ONE, w[2])
    special -= _below(mag, _INF_BITS, w[3])  # 1 on 0, inf and nan
    mag += np.multiply(special, np.subtract(_ONE_BITS, mag, w[3]), special)
    d, point = _shortest(w)  # 0, inf and nan as 1.0; d and point in w[3] and w[2]
    t0, t1, b0, b1, b2, digits = w[1], w[4], w[5], w[6], w[7], w[8:11]
    ndig = _ndigits(d, t0, t1)
    point += ndig.view(_I)
    point -= _K_MIN + 1  # by_point's column
    scale = _take(pow10, np.subtract(_u(17), ndig, ndig), t1)
    nonzero = np.right_shift(np.left_shift(bits, _ONE, t0), _ONE, t0)
    d *= np.multiply(scale, _below(_u(0), nonzero, nonzero), scale)  # 17 digits; 0: all 0
    # 18 digits: a 0 inserted after digit q, to become the point
    cut = np.remainder(d, _take(by_point[0], point, t0), t0)
    d *= _u(10)
    d -= np.multiply(cut, _u(9), cut)
    octet = np.remainder(d, _u(10 ** 16), t0)
    d -= octet
    d >>= _u(16)
    d *= _INVERSE5[16]  # the first digit
    tail = np.remainder(octet, _u(10 ** 8), t1)
    octet -= tail
    octet >>= _u(8)
    octet *= _INVERSE5[8]
    head = _digits8(octet, b0, b1)
    tail = _digits8(tail, b2, b1)
    d0, d1, d2 = digits
    _take(quads, d, d0)
    d0 >>= _u(16)
    d0 += np.left_shift(head, _u(16), b1)
    np.right_shift(head, _u(48), d1)
    d1 += np.left_shift(tail, _u(16), b1)
    np.right_shift(tail, _u(48), d2)
    # bytes repr prints: to the last nonzero digit, and one past the point
    kept = _take(by_point[2], point, t0).view(_I)
    top = b0.view(_I)
    for word, offset in zip(digits, (1, 9, 17)):
        np.copyto(top.view(np.float64), word, casting="unsafe")
        top >>= 52
        top -= 1023 - 8 * offset
        top >>= 3
        np.maximum(kept, top, out=kept)
    kept += _take(by_point[1], point, t1).view(_I)
    for word, char in zip(digits, chars):
        word += _take(char, kept, t1)
    d2 += _take(by_point[3], point, t1)
    lead = np.right_shift(bits, _S63, t1)
    lead *= _u(by_point.shape[1])
    lead += point.view(_U)
    lead = _take(by_point[4:].reshape(-1), lead, b0)
    finite = _below(np.right_shift(np.left_shift(bits, _ONE, t1), _ONE, t1), _INF_BITS, t1)
    if np.subtract(_ONE, finite, finite).max():
        at = finite.astype(bool)
        text = [",nan" if v << _ONE != _INF_BITS << _ONE else ",-inf" if v >> _S63 else ",inf"
                for v in bits[at]]
        for word in digits:
            word[at] = 0
        lead[at] = [_word(s) for s in text]
    return lead, digits


def new_scratch(m: int) -> list:
    """A scratch for passes of up to m values: _WORK separate rows of m
    words (see the module docstring)."""
    return [np.empty(m, dtype=_U) for _ in range(_WORK)]


def cells(x: np.ndarray, out: np.ndarray, scratch=None) -> None:
    """Write the cells of the float64 values x into out, a uint64 array (or
    view into a row matrix) of shape x.shape + (4,), through a scratch of
    at least x.size values."""
    x = np.asarray(x, dtype=np.float64)
    w = [row[:x.size] for row in scratch or new_scratch(x.size)]
    w[0][...] = x.reshape(-1).view(_U)
    lead, digits = float_words(w)
    for j, word in enumerate((lead, *digits)):
        out[..., j] = word.reshape(x.shape)


def int_cells(v: np.ndarray, words: int) -> np.ndarray:
    """(len(v), words) uint64 cells of ``"," + str(v)`` for integers
    0 <= v < 10**(8 * words - 1), leading zeros as NULs."""
    v = np.array(v, dtype=np.int64).view(_U)
    t = np.empty((3, len(v)), dtype=_U)
    zeros = np.subtract(8 * words, _ndigits(np.maximum(v, _ONE, out=t[0]), t[1], t[2]).view(_I))
    groups = np.empty((words, len(v)), dtype=_U)
    for i in reversed(range(words)):  # 8 digits a word, the last ones last
        octet = np.remainder(v, _u(10 ** 8), t[0]) if i else v
        if i:
            v -= octet
            v >>= _u(8)
            v *= _INVERSE5[8]
        _digits8(octet, groups[i], t[1])
        # "0" on the bytes past the word's leading zero bytes
        groups[i] += _tables()[5][np.minimum(np.maximum(zeros - 8 * i, 0), 8)]
    groups[0] += _COMMA
    return groups.T
