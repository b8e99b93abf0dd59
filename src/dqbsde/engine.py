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
size), and all 2^d blocks are contiguous windows of one length.  Kernels sum
the windows in lexicographic corner order into buffers and gather the
(k+1)^d layer nodes once.  project adds q * block, q = 2^-d / sqrt(dt), to z_j
when c_j = 1 and subtracts it when c_j = 0 (the first corner by negation):
(-a)*b == -(a*b) and x + (-p) == x - p in IEEE 754, so this is bit for bit
the sum of ((2 c_j - 1) 2^-d / sqrt(dt)) * block over the corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .gendsl import (Bin, EvalEnv, EvalError, EvalPlan, GeneratorModel, STRUCTURED, eval_expr,
                     sum_squares)
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

    @property
    def layers(self) -> int:
        return self.grid.steps

    def layer_size(self, k: int) -> int:
        return (k + 1) ** self.d

    @property
    def total_nodes(self) -> int:
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


def _corner_windows(lattice: LatticeModel, k: int, child_values):
    """Return the child layer's corner windows, each of shape (length,) +
    value_shape, in lexicographic corner order, and gather.  gather(buf)
    returns the layer nodes of a buffer of shape (length,) + trailing as a
    new (m,) + trailing array (for d = 1 the window is the layer: buf
    itself); gather(buf, out) copies them into out instead."""
    if not (0 <= k < lattice.grid.steps):
        raise ValueError(f"layer {k} out of range")
    steps = [(k + 2) ** (lattice.d - 1 - j) for j in range(lattice.d)]
    child = np.ascontiguousarray(child_values, dtype=float)
    child = child.reshape((steps[0] * (k + 2),) + child.shape[1:])
    offsets = [0]
    for st in steps:
        offsets = [o + c for o in offsets for c in (0, st)]

    def gather(buf, out=None):
        if lattice.d > 1:
            buf = as_strided(buf, (k + 1,) * lattice.d + buf.shape[1:],
                             tuple(st * buf.strides[0] for st in steps) + buf.strides[1:])
        if out is None:
            return buf if lattice.d == 1 else buf.copy().reshape((-1,) + buf.shape[lattice.d:])
        out.reshape(buf.shape)[...] = buf  # splits out's leading axis: a view, never a copy

    return [child[o:o + len(child) - offsets[-1]] for o in offsets], gather


def cond_exp(lattice: LatticeModel, k: int, child_values) -> np.ndarray:
    """Exact one-step conditional expectation from layer k+1 to layer k."""
    windows, gather = _corner_windows(lattice, k, child_values)
    return gather(reduce(np.add, (lattice.child_weight * window for window in windows)))


def log_cond_exp(lattice: LatticeModel, k: int, child_log_values) -> np.ndarray:
    """Conditional expectation carried in natural log space:
    log E[exp(V) | node] computed by log-sum-exp over the children."""
    windows, gather = _corner_windows(lattice, k, child_log_values)
    return gather(reduce(np.logaddexp, windows)) + math.log(lattice.child_weight)


def project(lattice: LatticeModel, k: int, child_values):
    """One-step conditional expectation and increment regression.

    Returns (cond_exp, z) where z_j = sum of weight * child * dW_j / dt;
    z has one trailing axis of length d beyond the child value shape.
    """
    windows, gather = _corner_windows(lattice, k, child_values)
    if lattice.grid.dt == 0.0:
        raise ValueError("project undefined on a zero-step grid (dt = 0)")
    w = lattice.child_weight
    q = w / math.sqrt(lattice.grid.dt)
    expectation, tmp = w * windows[0], q * windows[0]
    columns = np.negative(tmp, out=np.empty((lattice.d,) + tmp.shape))
    for i, window in enumerate(windows[1:], 1):
        expectation += np.multiply(window, w, out=tmp)
        np.multiply(window, q, out=tmp)
        for j, column in enumerate(columns):  # c_j of corner i is bit d-1-j of i
            (np.add if i >> (lattice.d - 1 - j) & 1 else np.subtract)(column, tmp, out=column)
    z = np.empty((lattice.layer_size(k),) + tmp.shape[1:] + (lattice.d,))
    for j, column in enumerate(columns):
        gather(column, z[..., j])
    return gather(expectation), z


@dataclass
class SolutionField:
    """Per-layer solution values: y[k] has shape ((k+1)^d, n) for k = 0..N,
    z[k] has shape ((k+1)^d, n, d) for k = 0..N-1."""

    y: list
    z: list
    metadata: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.y[0].shape[-1]

    def copy(self) -> "SolutionField":
        return SolutionField([a.copy() for a in self.y], [a.copy() for a in self.z],
                             dict(self.metadata))

    def shifted(self, delta: float) -> "SolutionField":
        out = self.copy()
        out.y = [a + delta for a in out.y]
        return out


def zero_field(lattice: LatticeModel, n: int) -> SolutionField:
    N = lattice.grid.steps
    return SolutionField(
        y=[np.zeros((lattice.layer_size(k), n)) for k in range(N + 1)],
        z=[np.zeros((lattice.layer_size(k), n, lattice.d)) for k in range(N)],
    )


def field_sup_diff(a: SolutionField, b: SolutionField) -> float:
    """Sup over (layer, node, component) of |Y_a - Y_b|."""
    return max(float(np.max(np.abs(ya - yb))) if ya.size else 0.0
               for ya, yb in zip(a.y, b.y))


def sup_norm_y(field_: SolutionField) -> float:
    """Max over (layer, node) of the Euclidean norm of the Y vector."""
    best = 0.0
    for ya in field_.y:
        if ya.size:
            best = max(best, float(np.sqrt(sum_squares(ya)).max()))
    return best


def estimate_bmo(field_: SolutionField, lattice: LatticeModel) -> float:
    """Discrete BMO estimate of Z: sqrt of the max over (layer, node) of the
    conditional remaining quadratic variation E[sum_{j>=k} |Z_j|^2 dt | node].

    The supremum runs over grid times only, a restriction of the general
    stopping-time supremum.
    """
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
    """Return (driver, y_dependent) with driver(k, t, y (m,n), z (m,n,d)) -> (m,n);
    the layer index k lets composed drivers substitute already-solved fields.

    The driver evaluates all components through one ``EvalPlan`` and keeps
    the plan's t/z stage of its last call, keyed on k, t and the identity
    of z, so the inner y-iteration reruns only the y-dependent ops.
    Callers must therefore not mutate z in place between calls that pass
    the same array; a new array is always recomputed.  Whenever the plan
    gives up, the call is evaluated by the interpreter, which raises the
    ``EvalError``.
    """
    n = gen.n
    if gen.kind == STRUCTURED:
        plan = EvalPlan([Bin("+", g.root, h.root) for g, h in zip(gen.g, gen.h)])
    else:
        plan = EvalPlan([e.root for e in gen.k])
    last = [None, None, None, None]  # k, t, z and the t/z stage

    def interpreted(t, y, z):
        env = EvalEnv(t=t, y=y, z=z)
        for i in range(n):
            if gen.kind == STRUCTURED:
                yield np.asarray(eval_expr(gen.g[i], env)) + np.asarray(eval_expr(gen.h[i], env))
            else:
                yield eval_expr(gen.k[i], env)

    def driver(k, t, y, z):
        if last[2] is not z or last[0] != k or last[1] != t:
            last[:] = k, t, z, None  # free the old stage before building the next
            last[3] = plan.stage_tz(t, z)
        values = None if last[3] is None else plan.stage_y(last[3], y)
        if values is None:
            values = interpreted(t, y, z)
        out = np.empty((y.shape[0], n))
        for i, v in enumerate(values):
            out[:, i] = v
        return out

    return driver, gen.y_dependent()


def terminal_values(instance: ProblemInstance, lattice: LatticeModel) -> np.ndarray:
    """Evaluate the terminal condition on the last layer; enforces the
    declared sup-norm bound and finiteness at every node."""
    W = lattice.brownian(lattice.grid.steps)
    env = EvalEnv(t=lattice.grid.horizon, w=W)
    m = W.shape[0]
    cols = []
    for i, expr in enumerate(instance.terminal.exprs, start=1):
        v = np.broadcast_to(np.asarray(eval_expr(expr, env), dtype=float), (m,))
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

DriverFn = Callable[[int, float, np.ndarray, np.ndarray], np.ndarray]


def _truncate_rows(z: np.ndarray, threshold: float) -> int:
    norms = np.sqrt(sum_squares(z))
    mask = norms > threshold
    count = int(mask.sum())
    if count:
        z[mask] *= (threshold / norms[mask])[:, None]
    return count


def _degenerate_layers(lattice: LatticeModel, terminal: np.ndarray, k_lo: int, k_hi: int):
    # dt = 0: every node sits at W = 0 and the driver integral vanishes.
    n = terminal.shape[-1]
    ys = [np.tile(terminal[0], (lattice.layer_size(k), 1)) for k in range(k_lo, k_hi)]
    ys.append(np.asarray(terminal, dtype=float))
    zs = [np.zeros((lattice.layer_size(k), n, lattice.d)) for k in range(k_lo, k_hi)]
    return ys, zs


def backward_range(lattice: LatticeModel, driver: DriverFn, y_dependent: bool,
                   terminal: np.ndarray, k_lo: int, k_hi: int,
                   inner_tol: float = 1e-12, inner_max_iter: int = 200,
                   z_truncation: Optional[float] = None, stats: Optional[dict] = None):
    """Backward induction on layers k_hi .. k_lo with given terminal values.

    Returns (ys, zs) where ys[j] is layer k_lo + j (so ys[-1] is the given
    terminal) and zs[j] pairs with ys[j] for j < k_hi - k_lo.
    """
    dt = lattice.grid.dt
    if dt == 0.0:
        return _degenerate_layers(lattice, terminal, k_lo, k_hi)
    stats = stats if stats is not None else {}
    stats.setdefault("inner_iterations", 0)
    stats.setdefault("z_clips", 0)
    ys = [None] * (k_hi - k_lo + 1)
    zs = [None] * (k_hi - k_lo)
    ys[-1] = np.asarray(terminal, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite y raises below
        for k in range(k_hi - 1, k_lo - 1, -1):
            expectation, z = project(lattice, k, ys[k - k_lo + 1])
            if z_truncation is not None:
                stats["z_clips"] += _truncate_rows(z, z_truncation)
            t_k = lattice.grid.time(k)
            try:
                if y_dependent:
                    y = expectation
                    for it in range(inner_max_iter):
                        y_next = expectation + driver(k, t_k, y, z) * dt
                        delta_vec = np.abs(y_next - y)
                        delta = float(delta_vec.max())
                        y = y_next
                        stats["inner_iterations"] += 1
                        if delta <= inner_tol:
                            break
                    else:
                        node = int(np.argmax(delta_vec.max(axis=-1)))
                        raise InnerNonconvergenceError(k, node, delta)
                else:
                    y = expectation + driver(k, t_k, expectation, z) * dt
                    stats["inner_iterations"] += 1
            except EvalError as err:
                raise SolverError(f"driver evaluation failed at layer {k}: {err}") from err
            if not np.all(np.isfinite(y)):
                node = int(np.argmax(~np.isfinite(y).all(axis=-1)))
                raise NonFiniteError(k, node)
            ys[k - k_lo] = y
            zs[k - k_lo] = z
    return ys, zs


def picard_range(lattice: LatticeModel, driver: DriverFn, terminal: np.ndarray,
                 k_lo: int, k_hi: int, tol: float = 1e-10, max_iter: int = 200,
                 init_y: Optional[list] = None, init_z: Optional[list] = None):
    """Fixed-point iteration: each pass solves the linear equation obtained by
    freezing the driver arguments at the previous field.

    One iterate is live: a pass replaces layer k of the previous field once
    it has built the new one (it reads only old layer k and new layer k+1),
    and no array is written in place, so ``init`` is neither copied nor mutated.

    Returns (ys, zs, trace); raises PicardNonconvergenceError (carrying the
    trace and the last complete pass) or PicardDivergenceError.
    """
    dt = lattice.grid.dt
    if dt == 0.0:
        ys, zs = _degenerate_layers(lattice, terminal, k_lo, k_hi)
        return ys, zs, [0.0]
    span = k_hi - k_lo
    n = terminal.shape[-1]
    ys = (list(init_y) if init_y is not None
          else [np.zeros((lattice.layer_size(k_lo + j), n)) for j in range(span + 1)])
    zs = (list(init_z) if init_z is not None
          else [np.zeros((lattice.layer_size(k_lo + j), n, lattice.d)) for j in range(span)])
    term = np.asarray(terminal, dtype=float)
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite y raises below
        for m in range(max_iter):
            change = float(np.abs(term - ys[-1]).max()) if term.size else 0.0
            ys[-1] = term
            for k in range(k_hi - 1, k_lo - 1, -1):
                j = k - k_lo
                expectation, z = project(lattice, k, ys[j + 1])
                t_k = lattice.grid.time(k)
                try:
                    f_val = driver(k, t_k, ys[j], zs[j])
                except EvalError as err:
                    raise SolverError(f"driver evaluation failed at layer {k}: {err}") from err
                y = expectation + f_val * dt
                if not np.all(np.isfinite(y)):
                    node = int(np.argmax(~np.isfinite(y).all(axis=-1)))
                    raise NonFiniteError(k, node)
                change = max(change, float(np.abs(y - ys[j]).max()))
                ys[j], zs[j] = y, z
            trace.append(change)
            if change <= tol:
                return ys, zs, trace
            if len(trace) >= 2 and trace[0] > 0 and change > 10.0 * trace[0]:
                raise PicardDivergenceError(trace)
    raise PicardNonconvergenceError(trace, partial=(ys, zs))


# ---------------------------------------------------------------------------
# Public instance-level solvers
# ---------------------------------------------------------------------------

def backward_solve(instance: ProblemInstance, lattice: LatticeModel,
                   inner_tol: float = 1e-12, inner_max_iter: int = 200,
                   z_truncation: Optional[float] = None) -> SolutionField:
    """One-pass backward induction from the terminal condition to layer 0."""
    _check_dims(instance, lattice)
    driver, y_dep = compile_driver(instance.generator)
    term = terminal_values(instance, lattice)
    stats = {}
    ys, zs = backward_range(lattice, driver, y_dep, term, 0, lattice.grid.steps,
                            inner_tol=inner_tol, inner_max_iter=inner_max_iter,
                            z_truncation=z_truncation, stats=stats)
    meta = {"scheme": "direct", **stats}
    return SolutionField(y=ys, z=zs, metadata=meta)


def picard_solve(instance: ProblemInstance, lattice: LatticeModel,
                 init: Optional[SolutionField] = None,
                 tol: float = 1e-10, max_iter: int = 200):
    """Global fixed-point iteration; returns (field, trace of sup-changes)."""
    _check_dims(instance, lattice)
    driver, _ = compile_driver(instance.generator)
    term = terminal_values(instance, lattice)
    init_y = init.y if init is not None else None
    init_z = init.z if init is not None else None
    ys, zs, trace = picard_range(lattice, driver, term, 0, lattice.grid.steps,
                                 tol=tol, max_iter=max_iter,
                                 init_y=init_y, init_z=init_z)
    meta = {"scheme": "picard", "iterations": len(trace),
            "final_change": trace[-1] if trace else 0.0}
    return SolutionField(y=ys, z=zs, metadata=meta), trace


def _check_dims(instance: ProblemInstance, lattice: LatticeModel) -> None:
    if lattice.d != instance.d:
        raise ValueError(f"lattice dimension {lattice.d} != problem dimension {instance.d}")
    if lattice.grid != instance.grid:
        raise ValueError("lattice grid differs from the instance grid")
