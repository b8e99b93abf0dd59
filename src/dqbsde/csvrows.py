"""CSV rows as bytes: the solution table and the check scans, their
cells from ``csvcells``.

``solution_rows`` and ``float_rows`` write a table in passes of whole
rows, about ``PASS`` values each.  A file's writer allocates its memory
once: a ``csvcells`` scratch, uint64 rows of a pass's length (32 KiB each
at ``PASS`` values, so that malloc takes them from the heap's free space
rather than from fresh pages), one rows matrix and, for the solution
table, one layer of Z; no buffer outlives the file.  One
``csvcells.float_words`` call makes a pass's cells, the rows' prefix
(layer, node index, t, W) is indexed once per pass, and the pass goes out
in chunks of at most ``2 * PASS`` words, NULs dropped in one go per chunk.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .csvcells import _COMMA, _U, _u, cells, float_words, int_cells, new_scratch

PASS = 4096  # values per digit pass, the one size the writer's memory follows
_NEWLINE = _u(ord("\n") << 56)  # the free last byte of a row's last cell


def _pass(cols: int) -> int:
    """Values in a pass over rows of `cols` cells: the whole rows that fit
    in PASS, one at least."""
    return max(1, PASS // cols) * cols


def _table(n_rows: int, cols: int, values, scratch, words: int = 0, prefix=None, blank=None):
    """Chunks of CSV text of n_rows rows of `words` prefix words and then
    `cols` float cells, through a ``csvcells.new_scratch``.  Pass by pass,
    values(lo, hi, out) writes the float64 values of rows lo..hi into out,
    (hi - lo, cols), and prefix(lo, hi) returns fill(a, b, out), which
    writes the prefix words of the pass's rows a..b into out; on the rows
    from blank[0] on, the cells from column blank[1] on are empty."""
    per_pass = len(scratch[0]) // cols
    width = words + 4 * cols
    parts = -(-per_pass * width // (2 * PASS))  # rows matrices of at most 2 * PASS words
    chunk = -(-per_pass // parts)  # that divide a pass evenly
    text = bytearray(8 * chunk * width)
    out = np.frombuffer(text, dtype="<u8").reshape(chunk, width)
    cell = out[:, words:].reshape(chunk, cols, 4)
    for lo in range(0, n_rows, per_pass):
        r = min(per_pass, n_rows - lo)
        w = [row[:r * cols] for row in scratch]
        values(lo, lo + r, w[0].view(np.float64).reshape(r, cols))
        lead, digits = float_words(w)
        pass_words = [word.reshape(r, cols) for word in (lead, *digits)]
        if blank:
            for j, word in enumerate(pass_words):
                word[max(0, blank[0] - lo):, blank[1]:] = _COMMA if j == 0 else 0
        pass_words[3][:, -1] += _NEWLINE
        fill = prefix(lo, lo + r) if prefix else None
        for a in range(0, r, chunk):
            b = min(r, a + chunk)
            if fill:
                fill(a, b, out[:b - a, :words])
            for j, word in enumerate(pass_words):
                cell[:b - a, :, j] = word[a:b]
            out[:b - a, 0] -= _COMMA
            if b - a < chunk:
                out[b - a:] = 0
            yield text.translate(None, b"\0")


def float_rows(*columns):
    """Chunks of CSV rows whose cells are the broadcast float columns in C
    order."""
    columns = np.broadcast_arrays(*columns)

    def values(lo, hi, out):
        for j, c in enumerate(columns):
            out[:, j] = c.flat[lo:hi]

    return _table(columns[0].size, len(columns), values, new_scratch(_pass(len(columns))))


def _int_words(top: int) -> int:
    """Words of an int_cells cell that holds 0..top."""
    return (len(str(top)) + 8) // 8


def solution_rows(field):
    """Chunks of solution.csv rows ``k,idx,t,W..,Y..,Z..`` in flat node
    order; the terminal layer's Z cells are empty.  Each layer's Z is
    derived once, into one buffer sized for the largest layer."""
    lattice = field.lattice
    n, d, steps = field.n, lattice.d, lattice.grid.steps
    y, z, z_end = field.y, field.z, lattice.rows(0, steps).stop
    z_buf = np.empty((lattice.layer_size(steps - 1), n, d))
    held = [-1, None]  # the layer whose Z z_buf holds, and its rows of it
    scratch = new_scratch(_pass(n + n * d))
    first_row = np.array([lattice.rows(k).start for k in range(steps + 1)] + [len(y)])
    starts = memoryview(first_row)
    kw, iw = _int_words(steps), _int_words(lattice.layer_size(steps) - 1)
    k_cells = int_cells(np.arange(steps + 1), kw)
    # t per layer, and the 2N+1 values W = (2u - k) sqrt(dt) at 2u - k + N
    tw = np.empty((3 * steps + 2, 4), dtype=_U)
    x = np.concatenate([np.arange(steps + 1) * lattice.grid.dt,
                        np.arange(-steps, steps + 1) * math.sqrt(lattice.grid.dt)])
    m = len(scratch[0])
    for lo in range(0, len(x), m):
        cells(x[lo:lo + m], tw[lo:lo + m], scratch)
    t_cells, w_cells = tw[:steps + 1], tw[steps + 1:]

    def values(lo, hi, out):
        out[:, :n] = y[lo:hi]
        out[:, n:] = 0.0
        first, stop = bisect.bisect_right(starts, lo) - 1, bisect.bisect_left(starts, hi)
        for k in range(first, min(stop, steps)):  # the layers of rows lo..hi that have Z
            if held[0] != k:  # passes walk forward, so each layer is derived once
                held[:] = k, z.layer(k, out=z_buf[:lattice.layer_size(k)]).reshape(-1, n * d)
            a, b = max(lo, starts[k]), min(hi, starts[k + 1])
            out[a - lo:b - lo, n:] = held[1][a - starts[k]:b - starts[k]]

    def prefix(lo, hi):
        first, last = (bisect.bisect_right(starts, r) - 1 for r in (lo, hi - 1))
        edges = [lo, *starts[first + 1:last + 1], hi]
        k = np.repeat(np.arange(first, last + 1), [b - a for a, b in zip(edges, edges[1:])])
        idx = np.arange(lo, hi) - first_row[k]
        idx_cells = int_cells(idx, iw)
        w_at = []  # the W cells' rows, 2u - k + N, by coordinate
        rest = idx  # its digits in base k + 1 are the up-counts u_1 .. u_d
        for j in reversed(range(d)):
            u = rest % (k + 1) if j else rest
            if j:
                rest = ((rest - u) / (k + 1)).astype(np.int64)  # exact: below 2**53
            u *= 2
            u -= k
            u += steps
            w_at.insert(0, u)

        def fill(a, b, out):
            out[:, :kw] = k_cells.take(k[a:b], 0)
            out[:, kw:kw + iw] = idx_cells[a:b]
            out[:, kw + iw:kw + iw + 4] = t_cells.take(k[a:b], 0)
            for j, at in enumerate(w_at):
                out[:, kw + iw + 4 + 4 * j:kw + iw + 8 + 4 * j] = w_cells.take(at[a:b], 0)

        return fill

    return _table(len(y), n + n * d, values, scratch, kw + iw + 4 + 4 * d, prefix, (z_end, n))
