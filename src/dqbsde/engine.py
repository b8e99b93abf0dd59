"""Recombining lattice for d-dimensional Brownian motion and the
backward-induction / Picard solvers.

A node at layer k is a d-tuple of up-counts (u_1..u_d) with 0 <= u_j <= k,
indexed lexicographically (C-order over the (k+1)^d grid).  Each component
moves by +-sqrt(dt) independently, so a node has 2^d children, each with
weight 2^-d, and conditional expectations are exact weighted sums.  The
discrete martingale-representation row is recovered by regressing children
against the increment: z_j = E[child * dW_j] / dt.

The per-step scheme is implicit in y (inner fixed-point iteration from the
conditional expectation) and explicit in z.  Summation order over children
is fixed, so identical inputs give bit-identical fields.

Kernel layout: in C order on the (k+2)^d child grid, the child of a node
through corner c in {0,1}^d sits o(c) = sum_j c_j (k+2)^(d-1-j) nodes on, so
corner c's block is the flat child array shifted by o(c) (times the value
size), and all 2^d blocks are contiguous windows of one length.  Kernels
sweep the windows in slabs of whole u_1-planes.  A slab multiplies its child
rows (o(1,...,1) past its windows) once by each weight, w = 2^-d and
q = 2^-d / sqrt(dt), so each corner's w * block and q * block is a view into
a product, summed in lexicographic corner order into slab buffers made once
per call, and its layer nodes are gathered from there.  project adds q * block
to z_j when c_j = 1 and subtracts it when c_j = 0 (the first corner by
negation): (-a)*b == -(a*b) and x + (-p) == x - p in IEEE 754, so this is bit
for bit the sum of ((2 c_j - 1) 2^-d / sqrt(dt)) * block over the corners.
Slabs and products change no bit: each element is the same product of the
same operands, folded in the same order, and + - * round each on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from .gendsl import (EvalEnv, EvalError, EvalPlan, GeneratorModel, STRUCTURED, eval_expr,
                     norm, sum_squares)
from .model import ProblemInstance, TimeGrid

DEFAULT_NODE_BUDGET = 2_000_000


class NodeBudgetError(Exception):
    """Lattice would exceed the configured node budget."""


class SolverError(Exception):
    """Base class for solver failures."""


class InnerNonconvergenceError(SolverError):
    def __init__(self, layer: int, node: int, residual: float):
        super().__init__(
            f"inner y-iteration did not converge at layer {layer}, node {node} "
            f"(residual {residual:.3e})")
        self.layer = layer
        self.node = node
        self.residual = residual


class NonFiniteError(SolverError):
    def __init__(self, layer: int, node: int):
        super().__init__(f"non-finite value at layer {layer}, node {node}")
        self.layer = layer
        self.node = node


class PicardNonconvergenceError(SolverError):
    def __init__(self, trace: list, partial=None):
        super().__init__(
            f"Picard iteration did not converge in {len(trace)} iterations "
            f"(last change {trace[-1]:.3e})")
        self.trace = trace
        self.partial = partial


class PicardDivergenceError(SolverError):
    def __init__(self, trace: list):
        super().__init__(
            f"Picard iteration diverging after {len(trace)} iterations "
            f"(change {trace[-1]:.3e} vs initial {trace[0]:.3e})")
        self.trace = trace


@dataclass(frozen=True)
class LatticeModel:
    d: int
    grid: TimeGrid

    def layer_size(self, k: int) -> int:
        return (k + 1) ** self.d

    @cached_property
    def _offsets(self) -> tuple:
        # Layer k's first row in a flat field, k = 0..N+1 (the last is the row count).
        return tuple(accumulate(map(self.layer_size, range(self.grid.steps + 1)), initial=0))

    def rows(self, k: int, stop: Optional[int] = None, base: int = 0) -> slice:
        """Rows of layers k .. stop-1 (layer k alone by default) in flat
        storage whose row 0 is the first node of layer base."""
        o = self._offsets
        return slice(o[k] - o[base], o[k + 1 if stop is None else stop] - o[base])

    @property
    def total_nodes(self) -> int:  # no offsets yet: build_lattice checks the budget first
        return sum(self.layer_size(k) for k in range(self.grid.steps + 1))

    @property
    def child_weight(self) -> float:
        return 0.5 ** self.d

    def up_counts(self, k: int) -> np.ndarray:
        """(m, d) integer up-counts in lexicographic node order."""
        return np.indices((k + 1,) * self.d).reshape(self.d, -1).T

    def brownian(self, k: int) -> np.ndarray:
        """(m, d) Brownian values W_j = (2 u_j - k) sqrt(dt)."""
        return (2.0 * self.up_counts(k) - k) * math.sqrt(self.grid.dt)


def build_lattice(grid: TimeGrid, d: int, max_nodes: int = DEFAULT_NODE_BUDGET) -> LatticeModel:
    if d < 1:
        raise ValueError(f"lattice dimension must be >= 1, got {d}")
    lattice = LatticeModel(d=d, grid=grid)
    if lattice.total_nodes > max_nodes:
        raise NodeBudgetError(
            f"lattice needs {lattice.total_nodes} nodes, budget is {max_nodes}")
    return lattice


SLAB = 16384  # the kernels' scratch holds at most (1 + outputs) * SLAB values


def _sweep(lattice: LatticeModel, k: int, child_values, fold, scales=(), columns=False, out=None,
           mean=True):
    """Return layer k's y (None without ``mean``) and, with ``columns``, its
    z (``out`` or new; None without columns), made slab by slab: each factor
    in ``scales`` multiplies the slab's child rows once, and fold(windows,
    total, zs) gets each product's 2^d corner windows (the child's own
    without scales) in lexicographic corner order and writes the slab's rows
    of y into total (None without mean) and of each z[..., j] into zs[j].
    The slab of planes u_1 in [a, b) is the window rows [a S, min(b S, L)),
    S = (k+2)^(d-1), and y's rows [a s, b s), s = (k+1)^(d-1); for d = 1
    these are the same rows, so fold writes straight into y and z.  The slab
    buffers and the products hold at most (1 + outputs) * SLAB values, unless
    one plane alone takes more."""
    if not (0 <= k < lattice.grid.steps):
        raise ValueError(f"layer {k} out of range")
    d = lattice.d
    child = np.ascontiguousarray(child_values, dtype=float)
    shape = child.shape[1:]
    offsets, plane = [0], 1  # o(c) for each corner c, in lexicographic order
    for _ in range(d):
        offsets, plane = offsets + [o + plane for o in offsets], plane * (k + 2)
    child = child.reshape((plane,) + shape)
    plane, sub, reach = plane // (k + 2), (k + 1) ** (d - 1), offsets[-1]
    y = np.empty((sub * (k + 1),) + shape) if mean else None
    z = (np.empty((sub * (k + 1),) + shape + (d,)) if out is None else out) if columns else None
    outs = ([y] if mean else []) + ([z[..., j] for j in range(d)] if columns else [])
    slabbed = 0 if d == 1 else len(outs)
    # A slab's plane takes a row in bufs and in each product (the raw child counts as one).
    budget = (1 + len(outs)) * SLAB // (math.prod(shape) or 1) - len(scales) * reach
    per = min(k + 1, max(budget // ((slabbed + max(len(scales), 1)) * plane), 1))  # planes a slab
    # No zero-size scratch: such allocations cost a d = 1 CSV dump ~70 KB of peak RSS.
    bufs = np.empty((slabbed, per * plane) + shape) if slabbed else None
    products = np.empty((len(scales), per * plane + reach) + shape) if scales else ()
    for a in range(0, k + 1, per):
        lo, hi = a * plane, min((a + per) * plane, len(child) - reach)
        rows = child[lo:hi + reach]
        blocks = [np.multiply(rows, s, out=p[:len(rows)]) for s, p in zip(scales, products)]
        windows = [[b[o:o + hi - lo] for o in offsets] for b in blocks or [rows]]
        dsts = ([dst[lo:hi] for dst in outs] if per <= k else outs) if d == 1 else bufs[:, :hi - lo]
        fold(windows, dsts[0] if mean else None, dsts[mean:])
        if d == 1:  # fold wrote straight into y and z
            continue
        b = min(a + per, k + 1)  # the last slab's last node is its window's last row
        nodes = (slice(b - a),) + (slice(k + 1),) * (d - 1)
        for buf, dst in zip(bufs, outs):  # splitting dst's leading axis: a view
            dst[a * sub:b * sub].reshape((b - a,) + (k + 1,) * (d - 1) + shape)[...] = \
                buf.reshape((per,) + (k + 2,) * (d - 1) + shape)[nodes]
    return y, z


def _fold(windows, total, columns):
    """_sweep's fold for cond_exp, project and project_z: total (unless
    None) sums the first product's windows over the corners, and each column
    z_j adds the last product's window when c_j = 1 and subtracts it when
    c_j = 0 (the first corner by negation)."""
    if total is not None:
        np.add(windows[0][0], windows[0][1], out=total)
        for window in windows[0][2:]:
            np.add(total, window, out=total)
    for column in columns:
        np.negative(windows[-1][0], out=column)
    for i, window in enumerate(windows[-1][1:], 1):
        for j, column in enumerate(columns):  # c_j of corner i is bit d-1-j of i
            op = np.add if i >> (len(columns) - 1 - j) & 1 else np.subtract
            op(column, window, out=column)


def cond_exp(lattice: LatticeModel, k: int, child_values) -> np.ndarray:
    """Exact one-step conditional expectation from layer k+1 to layer k."""
    return _sweep(lattice, k, child_values, _fold, (lattice.child_weight,))[0]


def log_cond_exp(lattice: LatticeModel, k: int, child_log_values) -> np.ndarray:
    """Conditional expectation carried in natural log space:
    log E[exp(V) | node] computed by log-sum-exp over the children."""
    def fold(windows, total, _):
        np.logaddexp(windows[0][0], windows[0][1], out=total)
        for window in windows[0][2:]:
            np.logaddexp(total, window, out=total)
        np.add(total, math.log(lattice.child_weight), out=total)

    return _sweep(lattice, k, child_log_values, fold)[0]


def project(lattice: LatticeModel, k: int, child_values, out=None):
    """One-step conditional expectation and increment regression.

    Returns (cond_exp, z) where z_j = sum of weight * child * dW_j / dt;
    z has one trailing axis of length d beyond the child value shape and is
    written into ``out`` when one is given.
    """
    scales = (lattice.child_weight, _regression_weight(lattice))
    return _sweep(lattice, k, child_values, _fold, scales, True, out)


def project_z(lattice: LatticeModel, k: int, child_values, out=None) -> np.ndarray:
    """project's z alone, bit for bit: the regression's windows are folded
    into z, and no expectation is formed."""
    return _sweep(lattice, k, child_values, _fold, (_regression_weight(lattice),), True, out,
                  False)[1]


def _regression_weight(lattice: LatticeModel) -> float:
    if lattice.grid.dt == 0.0:
        raise ValueError("project undefined on a zero-step grid (dt = 0)")
    return lattice.child_weight / math.sqrt(lattice.grid.dt)


@dataclass(frozen=True)
class Chunk:
    start_layer: int   # terminal side (high)
    end_layer: int     # boundary side (low)
    changes: list      # the sup-change of each pass; [0.0] for one backward induction


@dataclass(frozen=True)
class Halving:
    before: float      # the chunk horizon of the attempt that failed
    after: float       # the horizon of the retry
    changes: list      # the sup-change of each pass of the failed attempt


@dataclass
class RunTrace:
    """What one solve did: the inner y-iterations and z-clips of its
    ``backward_range`` calls, one ``Chunk`` per chunk of its march (a Picard
    solve is one chunk) and one ``Halving`` per failed attempt."""

    inner_iterations: int = 0
    z_clips: int = 0
    chunks: list = field(default_factory=list)
    halvings: list = field(default_factory=list)

    @property
    def changes(self) -> list:
        return [c.changes for c in self.chunks]


@dataclass
class SolutionField:
    """Y in flat storage, shape (total_nodes, n), layer k the row range
    ``lattice.rows(k)``, with what deriving Z needs: the lattice and the
    z-truncation threshold of the solve that wrote it (None: no clipping)."""

    y: np.ndarray
    lattice: LatticeModel
    z_truncation: Optional[float] = None
    trace: RunTrace = field(default_factory=RunTrace)

    @property
    def n(self) -> int:
        return self.y.shape[-1]

    @property
    def z(self) -> ZLayers:
        """Z of layers 0..N-1, each derived from Y when it is read."""
        return ZLayers(self.lattice, self.y, 0, self.lattice.grid.steps, self.z_truncation)


@dataclass(frozen=True)
class ZLayers:
    """Z of layers k_lo..k_hi-1 of Y rows laid out as ``backward_range``'s,
    derived when read: item j is layer k = k_lo + j's z, a fresh
    (layer_size(k), n, d) array, ``project_z(lattice, k, y[rows(k+1)])``
    (project's z) clipped by ``_truncate_rows`` when ``z_truncation`` is set
    (zeros when dt = 0), which is the z every solver staged at layer k's last
    build."""

    lattice: LatticeModel
    y: np.ndarray = field(repr=False)
    k_lo: int
    k_hi: int
    z_truncation: Optional[float] = None

    def __len__(self) -> int:
        return self.k_hi - self.k_lo

    def __getitem__(self, j: int) -> np.ndarray:
        return self.layer(range(self.k_lo, self.k_hi)[j])

    def layer(self, k: int, out=None) -> np.ndarray:
        """Layer k's z, written into ``out`` when one is given and dt > 0."""
        lattice = self.lattice
        if lattice.grid.dt == 0.0:
            return np.zeros((lattice.layer_size(k), self.y.shape[1], lattice.d))
        with np.errstate(over="ignore", invalid="ignore"):  # as in the solve that projected it
            z = project_z(lattice, k, self.y[lattice.rows(k + 1, base=self.k_lo)], out=out)
        if self.z_truncation is not None:
            _truncate_rows(z, self.z_truncation)
        return z


def zero_field(lattice: LatticeModel, n: int) -> SolutionField:
    return SolutionField(np.zeros((lattice.total_nodes, n)), lattice)


def sup_norm_y(y: np.ndarray) -> float:
    """Max over the rows of y (nodes, n) of the Euclidean norm, reduced in
    blocks of rows: whole-field temporaries would set a solve's peak memory."""
    return math.sqrt(max(float(sum_squares(y[i:i + 4096]).max())
                         for i in range(0, len(y), 4096)))


def estimate_bmo(field_: SolutionField) -> float:
    """Discrete BMO estimate of Z: sqrt of the max over (layer, node) of the
    conditional remaining quadratic variation E[sum_{j>=k} |Z_j|^2 dt | node],
    each layer's Z derived as the walk reaches it.

    The supremum runs over grid times only, a restriction of the general
    stopping-time supremum.
    """
    lattice = field_.lattice
    N = lattice.grid.steps
    dt = lattice.grid.dt
    acc = np.zeros(lattice.layer_size(N))
    best = 0.0
    for k in range(N - 1, -1, -1):
        quad = sum_squares(field_.z[k], 2) * dt
        acc = quad + cond_exp(lattice, k, acc)
        best = max(best, float(acc.max()))
    return math.sqrt(best)


# ---------------------------------------------------------------------------
# Driver compilation and terminal evaluation
# ---------------------------------------------------------------------------

def compile_driver(gen: GeneratorModel) -> tuple:
    """Return (driver, y_dependent).  driver(k, t, z (m,n,d)) stages layer k
    at time t and returns its stage, values(y (m,n)) -> (m,n); the layer
    index k lets composed drivers substitute already-solved fields.
    ``y_dependent`` is the plan's ``reads_y``: whether values(y) reads y.

    The schemes are explicit in z and implicit in y, so a solver stages a
    layer once and calls its stage on every inner y-iteration.  All
    components run through one ``EvalPlan``: staging runs the plan's t/z
    stage, and values(y) its y stage.  Whenever that fast run gives up,
    values(y) evaluates with the plan's checked run, which raises the
    ``EvalError``; staging never raises it.  A structured component is
    g + h added outside the plan with a plain add, so an overflow there is
    a non-finite value for the solver to report, not an ``EvalError``.
    """
    n = gen.n
    structured = gen.kind == STRUCTURED
    plan = EvalPlan([e.root for e in (gen.g + gen.h if structured else gen.k)])

    def driver(k, t, z):
        tz = plan.stage_tz(t, z)

        def values(y):
            out = None if tz is None else plan.stage_y(tz, y)
            if out is None:
                out = plan.evaluate(t, y, z)
            f = np.empty((y.shape[0], n))
            for i in range(n):
                if structured:
                    np.add(out[i], out[n + i], out=f[:, i])
                else:
                    f[:, i] = out[i]
            return f

        return values

    return driver, plan.reads_y


def terminal_values(instance: ProblemInstance, lattice: LatticeModel) -> np.ndarray:
    """Evaluate the terminal condition on the last layer; enforces the
    declared sup-norm bound and finiteness at every node."""
    W = lattice.brownian(lattice.grid.steps)
    env = EvalEnv(t=lattice.grid.horizon, w=W)
    m = W.shape[0]
    cols = []
    for i, expr in enumerate(instance.terminal.exprs, start=1):
        try:
            v = np.broadcast_to(np.asarray(eval_expr(expr, env), dtype=float), (m,))
        except EvalError as err:
            raise ValueError(f"terminal component {i}: {err}") from err
        if not np.all(np.isfinite(v)):
            raise ValueError(f"terminal component {i} is non-finite at a lattice node")
        cols.append(v)
    out = np.stack(cols, axis=-1)
    bound = instance.terminal.declared_bound
    worst = float(np.abs(out).max()) if out.size else 0.0
    if worst > bound + 1e-9:
        raise ValueError(
            f"terminal values exceed declared bound: max |xi| = {worst} > {bound}")
    return out


# ---------------------------------------------------------------------------
# Core range solvers (shared by the public API and the global drivers)
# ---------------------------------------------------------------------------

DriverFn = Callable[[int, float, np.ndarray], Callable[[np.ndarray], np.ndarray]]


def _truncate_rows(z: np.ndarray, threshold: float) -> int:
    norms = norm(z)
    mask = norms > threshold
    count = int(mask.sum())
    if count:
        z[mask] *= (threshold / norms[mask])[:, None]
    return count


def _degenerate_layers(lattice: LatticeModel, terminal: np.ndarray, k_lo: int, k_hi: int,
                       ys: np.ndarray) -> None:
    # dt = 0: every node sits at W = 0 and the driver integral vanishes.
    ys[lattice.rows(k_lo, k_hi, k_lo)] = terminal[0]
    ys[lattice.rows(k_hi, base=k_lo)] = terminal


def backward_range(lattice: LatticeModel, driver: DriverFn, y_dependent: bool,
                   terminal: np.ndarray, k_lo: int, k_hi: int, *, out: np.ndarray,
                   inner_tol: float = 1e-12, inner_max_iter: int = 200,
                   z_truncation: Optional[float] = None, trace: Optional[RunTrace] = None):
    """Backward induction on layers k_hi .. k_lo with given terminal values.

    Writes each layer once into ``out``, the y rows of layers k_lo..k_hi
    (the last layer's are the given terminal) that the function owning the
    field passes down, in flat storage whose row 0 is layer k_lo's first
    node (``lattice.rows(k, base=k_lo)``); each layer's z lives in one layer
    buffer.  Inner y-iterations and z-clips are added to ``trace``.  The
    step is implicit in y when ``y_dependent``, else explicit: it stages the
    driver at the y that layer k's rows hold until it writes them (a frozen
    iterate, or anything for a driver that reads no y) and returns the
    largest |new - old| over the layers it wrote (0.0 when none, NaN when
    rows held NaN).
    """
    if inner_max_iter < 1:
        raise ValueError("inner_max_iter must be >= 1")
    dt = lattice.grid.dt
    ys = out
    if dt == 0.0:
        _degenerate_layers(lattice, terminal, k_lo, k_hi, ys)
        return 0.0
    trace = trace or RunTrace()
    z_buf = np.empty((lattice.layer_size(k_hi - 1), ys.shape[1], lattice.d))  # largest layer
    ys[lattice.rows(k_hi, base=k_lo)] = terminal
    change = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite y raises below
        for k in range(k_hi - 1, k_lo - 1, -1):
            r = lattice.rows(k, base=k_lo)
            expectation, z = project(lattice, k, ys[lattice.rows(k + 1, base=k_lo)],
                                     out=z_buf[:lattice.layer_size(k)])
            if z_truncation is not None:
                trace.z_clips += _truncate_rows(z, z_truncation)
            try:
                values = driver(k, lattice.grid.time(k), z)
                if y_dependent:
                    y = expectation
                    for it in range(inner_max_iter):
                        y_next = expectation + values(y) * dt
                        delta_vec = np.abs(y_next - y)
                        delta = float(delta_vec.max())
                        y = y_next
                        if delta <= inner_tol:
                            break
                    else:
                        node = int(np.argmax(delta_vec.max(axis=-1)))
                        raise InnerNonconvergenceError(k, node, delta)
                    trace.inner_iterations += it + 1
                else:
                    y = np.add(expectation, values(ys[r]) * dt, out=expectation)
                    np.abs(np.subtract(y, ys[r], out=ys[r]), out=ys[r])  # rows that y overwrites
                    change = float(np.maximum(change, ys[r].max()))  # NaN stays NaN
                    trace.inner_iterations += 1
            except EvalError as err:
                raise SolverError(f"driver evaluation failed at layer {k}: {err}") from err
            del values  # freed before the next layer's project
            ys[r] = y
            if not np.all(np.isfinite(y)):
                node = int(np.argmax(~np.isfinite(y).all(axis=-1)))
                raise NonFiniteError(k, node)
    return change


def _drive(driver: DriverFn, k: int, t: float, y, z, dt: float, out) -> Optional[EvalError]:
    """Write driver(k, t, z)(y) * dt into out; return the EvalError instead
    of raising it."""
    try:
        np.multiply(driver(k, t, z)(y), dt, out=out)
    except EvalError as err:
        return err
    return None


def picard_range(lattice: LatticeModel, driver: DriverFn, terminal: np.ndarray,
                 k_lo: int, k_hi: int, *, out: np.ndarray, tol: float = 1e-10,
                 max_iter: int = 200, init_y: Optional[np.ndarray] = None):
    """Fixed-point iteration: each pass solves the linear equation obtained by
    freezing the driver arguments at the previous field.

    ``out`` and ``init_y`` are y rows laid out as ``backward_range``'s.  One
    iterate is live, in ``out``: a pass writes layer k over the previous
    field once it has built it (it reads only old layer k and new layer k+1).
    ``init_y`` is read, never written, so the result does not alias it.

    A pass reads the previous pass's ``Z_k`` only through the driver value
    ``f(y_k, z_k)``.  So the driver is evaluated once a layer is built, at
    its new (y, z), and the value (times dt) is kept in one Y-shaped buffer
    that the next pass reads, while z lives in one buffer sized for the
    largest layer; pass 0 reads the values at init, z_k = project(init
    y_{k+1}) (zero y and z without ``init_y``).  An ``EvalError`` at a kept
    value is held and raised when that layer is next built, the layer and
    pass where evaluating it then would raise.

    A layer whose three inputs are bit-identical to those of the previous
    pass is not rebuilt, since its output would be the previous pass's.
    ``same[j]``: this pass's y_j has the previous pass's bits; ``kept[j]``:
    when layer j was last built, its y and its z (= project(y_{j+1})) came
    out unchanged.  Pass 0 trusts nothing, as init's values come from no
    build.  So ``driver(k, t, z)(y)`` must be a pure function of (k, t, y, z).

    Returns (ys, ZLayers of ys, trace); raises PicardNonconvergenceError
    (carrying the trace and the last complete pass as (ys, ZLayers)) or
    PicardDivergenceError.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    dt = lattice.grid.dt
    span = k_hi - k_lo
    ys = out
    zs = ZLayers(lattice, ys, k_lo, k_hi)
    if dt == 0.0:
        _degenerate_layers(lattice, terminal, k_lo, k_hi, ys)
        return ys, zs, [0.0]
    # Only init is read in pass 0, never what the rows held (terminal may be their top rows).
    top, below = lattice.rows(k_hi, base=k_lo), lattice.rows(k_lo, k_hi, k_lo)
    ys[below] = 0.0 if init_y is None else init_y[below]
    z_buf = np.empty((lattice.layer_size(k_hi - 1), ys.shape[1], lattice.d))
    f_dt = np.empty((below.stop, ys.shape[1]))
    failed = [None] * span  # the EvalError of layer j's kept driver value
    term = np.asarray(terminal, dtype=float)
    trace = []
    same = [False] * (span + 1)
    kept = [False] * span
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite y raises below
        if init_y is None:
            z_buf[...] = 0.0
        for k in range(k_lo, k_hi):  # the values at init, which pass 0 reads
            r = lattice.rows(k, base=k_lo)
            z = z_buf[:lattice.layer_size(k)]
            if init_y is not None:
                project_z(lattice, k, init_y[lattice.rows(k + 1, base=k_lo)], out=z)
            failed[k - k_lo] = _drive(driver, k, lattice.grid.time(k), ys[r], z, dt, f_dt[r])
        for m in range(max_iter):
            prev = ys[top] if m > 0 else 0.0 if init_y is None else init_y[top]
            change = float(np.abs(term - prev).max()) if term.size else 0.0
            ys[top] = term
            same[-1] = m > 0
            for k in range(k_hi - 1, k_lo - 1, -1):
                j = k - k_lo
                if same[j + 1] and kept[j]:  # adds |y - y| = 0 to the change
                    same[j] = True
                    continue
                r = lattice.rows(k, base=k_lo)
                t_k = lattice.grid.time(k)
                if failed[j] is not None:
                    raise SolverError(
                        f"driver evaluation failed at layer {k}: {failed[j]}") from failed[j]
                expectation, z = project(lattice, k, ys[lattice.rows(k + 1, base=k_lo)],
                                         out=z_buf[:lattice.layer_size(k)])
                y = np.add(expectation, f_dt[r], out=expectation)  # project's y is fresh
                if not np.all(np.isfinite(y)):
                    node = int(np.argmax(~np.isfinite(y).all(axis=-1)))
                    raise NonFiniteError(k, node)
                diff = np.subtract(y, ys[r])
                delta = float(np.abs(diff, out=diff).max())
                del diff  # freed before the driver runs on the new layer
                change = max(change, delta)
                # delta > 0 settles it; delta == 0 also holds for 0.0 against -0.0.
                # Bytes rather than a uint64 view, whose numpy loops cost ~0.15 MB RSS.
                same[j] = m > 0 and delta == 0.0 and y.tobytes() == ys[r].tobytes()
                kept[j] = same[j] and same[j + 1]
                ys[r] = y
                failed[j] = _drive(driver, k, t_k, ys[r], z, dt, f_dt[r])
            trace.append(change)
            converged = change <= tol
            if converged:
                break
            if len(trace) >= 2 and trace[0] > 0 and change > 10.0 * trace[0]:
                raise PicardDivergenceError(trace)
    if not converged:
        raise PicardNonconvergenceError(trace, partial=(ys, zs))
    return ys, zs, trace


# ---------------------------------------------------------------------------
# Public instance-level solvers
# ---------------------------------------------------------------------------

def backward_solve(instance: ProblemInstance, lattice: LatticeModel,
                   inner_tol: float = 1e-12, inner_max_iter: int = 200,
                   z_truncation: Optional[float] = None) -> SolutionField:
    """One-pass backward induction from the terminal condition to layer 0.
    The field's trace counts the inner y-iterations and z-clips, and its Z
    is clipped at ``z_truncation`` as the solve clipped it."""
    _check_dims(instance, lattice)
    driver, y_dep = compile_driver(instance.generator)
    term = terminal_values(instance, lattice)
    field_ = zero_field(lattice, instance.n)
    field_.z_truncation = z_truncation
    backward_range(lattice, driver, y_dep, term, 0, lattice.grid.steps,
                   inner_tol=inner_tol, inner_max_iter=inner_max_iter,
                   z_truncation=z_truncation, trace=field_.trace, out=field_.y)
    return field_


def picard_solve(instance: ProblemInstance, lattice: LatticeModel,
                 init: Optional[SolutionField] = None,
                 tol: float = 1e-10, max_iter: int = 200):
    """Global fixed-point iteration; returns (field, trace of sup-changes),
    the field's trace one chunk of layers N..0 holding those changes.  Pass
    0 reads ``init``'s Y and the Z projected from it."""
    _check_dims(instance, lattice)
    driver, _ = compile_driver(instance.generator)
    term = terminal_values(instance, lattice)
    field_ = zero_field(lattice, instance.n)
    trace = picard_range(lattice, driver, term, 0, lattice.grid.steps, tol=tol,
                         max_iter=max_iter, init_y=None if init is None else init.y,
                         out=field_.y)[2]
    field_.trace.chunks.append(Chunk(lattice.grid.steps, 0, trace))
    return field_, trace


def _check_dims(instance: ProblemInstance, lattice: LatticeModel) -> None:
    if lattice.d != instance.d:
        raise ValueError(f"lattice dimension {lattice.d} != problem dimension {instance.d}")
    if lattice.grid != instance.grid:
        raise ValueError("lattice grid differs from the instance grid")
