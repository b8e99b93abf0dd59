"""CSV rows as bytes, every float as CPython's ``repr``, from integer arithmetic only.

``solution_rows`` and ``float_rows`` build a block of rows at a time as a
matrix of NUL-padded cells and drop the NULs in one pass.  ``cells(x, out)``
writes, for each float64 of ``x``, four little-endian uint64 words whose
bytes, NULs dropped, are ``"," + repr(value)``:

* word 0: ``,``, a ``-`` for a negative value, then ``0.`` and up to three
  ``0`` when the decimal point comes before the first digit; for inf and
  nan the whole text (``,-inf``, ``,nan``), and words 1-3 are 0;
* words 1-3: the significand's 17 digits with a ``.`` after digit ``q``,
  made by inserting a 0 digit there and lowering it by 2, the bytes past
  the last one ``repr`` prints cleared, and the exponent (``e+22``,
  ``e-324``) in bytes 18-22; byte 23 stays 0, free for a newline.

``repr`` writes the decimal point position ``p`` (value = 0.d1d2... *
10**p) in fixed notation when -4 < p <= 16, with ``.0`` on an integral
value, and otherwise as ``d.ddd`` and an exponent of at least two digits.
Its digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020): the shortest decimal in the value's rounding interval, of
two such the closer one, and on a tie the even one.  Python, unlike Java,
allows a single digit, so Java's ``s >= 100`` guard and its ``10*c`` path
for tiny subnormals are left out.  The 64x128-bit products are
``certs._mulhilo``'s.

No float operation touches a value, so the bytes do not depend on the
host's SIMD.  ``cells`` and ``int_cells`` use only integer ``+ - *``,
shifts, ``%``, table lookups and a conversion to float64 whose exponent
gives a bit length: no comparison, boolean array, bitwise operation or
integer ``//``, whose numpy loops a solve never runs and whose code pages
would add to the peak RSS.  ``_below`` compares by a sign bit, ``_low``
masks by shifts, and ``_exact`` divides a multiple of a power of ten
through the inverse of a power of five modulo 2**64.  Every constant that
meets a uint64 array is a uint64 (``_u``), so numpy before 2.0 cannot
promote a result to float64.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from .certs import _mulhilo

_U = np.uint64


@functools.cache
def _u(v: int) -> np.ndarray:
    """The uint64 constant v as a read-only 0-d array, which numpy
    dispatches faster than a scalar."""
    constant = np.array(v, dtype=_U)
    constant.flags.writeable = False
    return constant


_ONE = _u(1)
_S63 = _u(63)
_ONE_BITS = _u(0x3FF0000000000000)  # 1.0, computed in place of 0, inf and nan
_INF_BITS = _u(0x7FF0000000000000)
_ZEROS = _u(0x3030303030303030)  # "00000000"
_COMMA = _u(ord(","))
_NEWLINE = _u(ord("\n") << 56)  # the free last byte of a row's last cell
_K_MIN, _K_MAX = -324, 292  # floor(log10(2**q)) over the float64 exponents q
_LEADS = ("", "0.", "0.0", "0.00", "0.000")


def _word(text: str, at: int = 0) -> int:
    return int.from_bytes(text.encode("ascii"), "little") << (8 * at)


def _g(e: int) -> int:
    """floor(10**e * 2**(125 - floor(e * log2(10)))) + 1, exactly."""
    r = 125 - ((e * 913124641741) >> 38)
    if e >= 0:
        return (10 ** e << r if r >= 0 else 10 ** e >> -r) + 1
    return (1 << r) // 10 ** -e + 1


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
    exps = np.array([0] + [_word(f"e{e:+03d}", 2) for e in range(_K_MIN - 1, 310)], dtype=_U)
    leads = np.array([_word(s + t) for s in (",", ",-") for t in _LEADS], dtype=_U)
    pow10 = np.array([10 ** i for i in range(18)], dtype=_U)
    return gtab, quads, chars, exps, leads, pow10


def _below(a, b):
    """1 where a < b, else 0, for uint64 a and b below 2**63."""
    return (a - b) >> _S63


def _bit0(x):
    return (x << _S63) >> _S63


def _low(x, n):
    """The low n bytes of each uint64 x, 0 <= n <= 8 (as uint64)."""
    n = n << _u(2)
    return x - ((((x >> n) >> n) << n) << n)


_INVERSE5 = {j: _u(pow(5 ** j, -1, 2 ** 64)) for j in (8, 16)}  # of 5**j modulo 2**64


def _exact(x, j: int):
    """x / 10**j for multiples x of 10**j (j = 8, 16): by 2**j, then times
    the inverse of 5**j modulo 2**64."""
    return (x >> _u(j)) * _INVERSE5[j]


def _ndigits(v, pow10):
    """Decimal digits of each v in [1, 2**57), from its bit length."""
    n = ((((v.astype(np.float64).view(_U) >> _u(52)) - _u(1022)) * _u(1233)) >> _u(12))
    return n + _ONE - _below(v, pow10[n.view(np.intp)])


def _digits8(v, quads):
    """The 8 decimal digits of each v < 10**8, one a byte, the most
    significant in the lowest byte."""
    hi = (v * _u(109951163)) >> _u(40)  # v // 10**4
    return quads[hi.view(np.intp)] + (quads[(v - hi * _u(10 ** 4)).view(np.intp)] << _u(32))


def _rop(top, low):
    """Java's rop: the 128-bit products (high words top, low words low, of
    g0 and g1) over 2**127, rounded to odd."""
    z = (low[1] >> _ONE) + top[0]
    v = top[1] + (z >> _S63)
    return v + _below(_u(0), (z << _ONE) >> _ONE) * (_ONE - _bit0(v))


def _shortest(mag, gtab):
    """(d, k): Schubfach's shortest decimal d * 10**k, d < 10**17, of
    positive finite float64 bit patterns (overwritten)."""
    bq = mag >> _u(52)
    c = (mag << _u(12)) >> _u(12)
    irregular = _below(c, _ONE) * _below(_ONE, bq)  # a power of two: closer left end
    c += _below(_u(0), bq) * _u(2 ** 52)
    q = np.maximum(bq.view(np.int64), 1) - 1075
    del bq
    k = (q * 661971961083 - irregular.view(np.int64) * 274743187321) >> 41
    q += ((-k * 913124641741) >> 38) + 4
    h = q.view(_U)  # Schubfach's h + 2, 4..7
    g = np.take(gtab, k - _K_MIN, axis=1)
    g_hi = g >> _u(32)
    # 128-bit products of g0 and g1 with 4c * 2**h, and with the ends of the
    # rounding interval, 2**(h+1) away (2**h left of a power of two), by
    # sums with g << (h+1); as bit 0 of g << (h+1) is 0, the carry or borrow
    # out of the low word is bit 63 of the sum or difference of the halves
    top, low = _mulhilo(np.left_shift(c, h, out=mag), (g, g - (g_hi << _u(32)), g_hi))
    del g_hi
    vb = _rop(top, low)
    h -= _ONE
    step = g << h
    end = low + step
    carry = ((low >> _ONE) + (step >> _ONE)) >> _S63
    vbr = _rop(top + (g >> (_u(64) - h)) + carry, end)
    h -= irregular
    np.left_shift(g, h, out=step)
    np.subtract(low, step, out=end)
    carry = ((low >> _ONE) - (step >> _ONE)) >> _S63
    vbl = _rop(top - (g >> (_u(64) - h)) - carry, end)
    del top, low, step, end, carry, g
    odd = _bit0(c)
    vbl += odd
    vbr -= odd
    s = vb >> _u(2)
    sp10 = s - s % _u(10)
    four, four10 = s << _u(2), sp10 << _u(2)
    # exactly one of the shorter neighbours sp10, sp10 + 10 out of the
    # interval: the other one; else s or s + 1: the one inside, else the
    # closer one, else the even one (vb + s % 2 > 4s + 2: s + 1)
    out_u, out_w = _below(four10, vbl), _below(vbr, four10 + _u(40))
    short = (out_u - out_w) * (out_u - out_w)
    s += (_ONE - _below(vbr, four + _u(4))) \
        * np.maximum(_below(four, vbl), _below(four + _u(2), vb + _bit0(s)))
    s += short * (sp10 + _u(10) - _u(10) * out_w - s)
    return s, k


def cells(x: np.ndarray, out: np.ndarray) -> None:
    """Write the cells of the float64 values x into out, a uint64 array (or
    view into a row matrix) of shape x.shape + (4,)."""
    gtab, quads, chars, exps, leads, pow10 = _tables()
    bits = np.ascontiguousarray(x, dtype=np.float64).reshape(-1).view(_U)
    mag = (bits << _ONE) >> _ONE
    zero = _below(mag, _ONE)
    nonfinite = _ONE - _below(mag, _INF_BITS)
    mag += (zero + nonfinite) * (_ONE_BITS - mag)
    d, k = _shortest(mag, gtab)  # 0, inf and nan as 1.0
    del mag
    ndig = _ndigits(d, pow10)
    point = k
    point += ndig.view(np.int64)
    d *= pow10[(_u(17) - ndig).view(np.intp)] * (_ONE - zero)  # 17 digits; 0: all 0
    del ndig
    fixed = (1 + ((point + 3) >> 63)) * (1 + ((16 - point) >> 63))
    whole = fixed * (1 + ((point - 1) >> 63))
    q = whole * point + 1 - fixed + 17 * (fixed - whole)  # the point follows digit q
    # 18 digits: a 0 inserted after digit q, to become the point
    d = d * _u(10) - _u(9) * (d % pow10[17 - q])
    octet = d % _u(10 ** 16)
    lead = _exact(d - octet, 16)
    tail = octet % _u(10 ** 8)
    head = _digits8(_exact(octet - tail, 8), quads)
    tail = _digits8(tail, quads)
    digits = np.empty((3, len(d)), dtype=_U)
    np.add(quads[lead.view(np.intp)] >> _u(16), head << _u(16), out=digits[0])
    np.add(head >> _u(48), tail << _u(16), out=digits[1])
    np.right_shift(tail, _u(48), out=digits[2])
    del d, octet, lead, head, tail
    # bytes repr prints: to the last nonzero digit, and one past the point
    top = ((digits.astype(np.float64).view(np.int64) >> 52) - 1023) >> 3
    top += np.array([[1], [9], [17]])
    kept = np.maximum(top.max(axis=0), whole * (point + 2))
    digits += np.take(chars, q * 19 + kept, axis=1)
    digits[2] += exps[(1 - fixed) * (point - _K_MIN + 1)]
    shape = x.shape
    out[..., 0] = leads[(bits >> _S63).view(np.int64) * 5
                        + (fixed - whole) * (1 - point)].reshape(shape)
    out[..., 1:] = digits.T.reshape(shape + (3,))
    if nonfinite.max():
        at = nonfinite.astype(bool)
        text = [",nan" if b << _ONE != _INF_BITS << _ONE else ",-inf" if b >> _S63 else ",inf"
                for b in bits[at]]
        at = at.reshape(shape)
        out[at] = 0
        out[at, 0] = [_word(s) for s in text]


def int_cells(v: np.ndarray, words: int) -> np.ndarray:
    """(len(v), words) uint64 cells of ``"," + str(v)`` for integers
    0 <= v < 10**(8 * words - 1), leading zeros as NULs."""
    v = np.asarray(v, dtype=np.int64).view(_U)
    quads, pow10 = _tables()[1], _tables()[5]
    lead = 8 * words - _ndigits(np.maximum(v, _ONE), pow10).view(np.int64)
    lead = np.clip(lead - 8 * np.arange(words)[:, None], 0, 8).view(_U)  # zero bytes
    groups = np.empty((words, len(v)), dtype=_U)
    for i in reversed(range(words)):  # 8 digits a word, the last ones last
        octet = v % _u(10 ** 8) if i else v
        groups[i] = _digits8(octet, quads)
        if i:
            v = _exact(v - octet, 8)
    groups += _ZEROS - _low(_ZEROS, lead)  # "0" past the leading zero bytes
    groups[0] += _COMMA
    return groups.T


def _text(rows: np.ndarray) -> bytes:
    """The CSV bytes of a block of rows of cells: the first cell's comma and
    every NUL dropped, a newline ending each row."""
    rows[:, 0] -= _COMMA
    rows[:, -1] += _NEWLINE
    return rows.tobytes().translate(None, b"\0")


def float_rows(block: int, *columns):
    """Chunks of CSV rows whose cells are the broadcast float columns in C
    order, `block` rows per chunk."""
    columns = np.broadcast_arrays(*columns)
    for lo in range(0, columns[0].size, block):
        values = np.stack([c.flat[lo:lo + block] for c in columns], -1)
        rows = np.empty((len(values), 4 * len(columns)), dtype="<u8")
        cells(values, rows.reshape(values.shape + (4,)))
        yield _text(rows)


def _int_words(top: int) -> int:
    """Words of an int_cells cell that holds 0..top."""
    return (len(str(top)) + 8) // 8


def solution_rows(block: int, field, lattice):
    """Chunks of solution.csv rows ``k,idx,t,W..,Y..,Z..`` in flat node
    order, `block` rows per chunk; the terminal layer's Z cells are empty."""
    n, d, steps = field.n, lattice.d, lattice.grid.steps
    starts = [lattice.rows(k).start for k in range(steps + 1)] + [len(field.y)]
    first_row = np.array(starts)
    kw, iw = _int_words(steps), _int_words(lattice.layer_size(steps) - 1)
    k_cells = int_cells(np.arange(steps + 1), kw)
    # t per layer, and the 2N+1 values W = (2u - k) sqrt(dt) at 2u - k + N
    tw = np.empty((3 * steps + 2, 4), dtype=_U)
    cells(np.concatenate([np.arange(steps + 1) * lattice.grid.dt,
                          np.arange(-steps, steps + 1) * math.sqrt(lattice.grid.dt)]), tw)
    t_cells, w_cells = tw[:steps + 1], tw[steps + 1:]
    cols = n + n * d
    at = kw + iw + 4 + 4 * d  # the first Y cell's word
    for lo in range(0, len(field.y), block):
        hi = min(lo + block, len(field.y))
        first, last = (bisect.bisect_right(starts, r) - 1 for r in (lo, hi - 1))
        k = np.repeat(np.arange(first, last + 1),
                      np.diff(np.clip(first_row[first:last + 2], lo, hi)))
        idx = np.arange(lo, hi) - first_row[k]
        rows = np.empty((hi - lo, at + 4 * cols), dtype="<u8")
        rows[:, :kw] = k_cells[k]
        rows[:, kw:kw + iw] = int_cells(idx, iw)
        rows[:, kw + iw:kw + iw + 4] = t_cells[k]
        rest = idx  # its digits in base k + 1 are the up-counts u_1 .. u_d
        for j in reversed(range(d)):
            u = rest % (k + 1)
            rows[:, kw + iw + 4 + 4 * j:kw + iw + 8 + 4 * j] = w_cells[2 * u - k + steps]
            if j:
                rest = ((rest - u) / (k + 1)).astype(np.int64)  # exact: below 2**53
        z = field.z[lo:hi].reshape(-1, n * d)
        values = np.zeros((hi - lo, cols))
        values[:, :n] = field.y[lo:hi]
        values[:len(z), n:] = z
        cells(values, rows[:, at:].reshape(hi - lo, cols, 4))
        rows[len(z):, at + 4 * n:] = 0  # the terminal layer: commas only
        rows[len(z):, at + 4 * n::4] = ord(",")
        yield _text(rows)
