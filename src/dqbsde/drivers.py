"""Global solution constructors and reference oracles.

Three construction strategies sit on top of the engine core:

* ``solve_stitched`` — solve a chunk adjacent to the terminal time, feed
  its boundary layer to the next chunk as terminal data, repeat down to 0.
  In adaptive mode a failed chunk halves its horizon and retries, which is
  the artifact's stand-in for the (externally cited) local-existence
  horizon.
* ``solve_triangular`` — solve components in order, substituting the
  already-solved components node-wise, each via ``frozen_y_contraction``.
* ``frozen_y_contraction`` — iterate the map that freezes the y-argument
  and solves the resulting y-independent equation; contraction holds on
  sub-intervals no longer than 1/(2 beta).  It marches through them with
  the same ``_march`` as ``solve_stitched``.

The oracles (exponential transform, linear closed form, tight joint
Picard) run on the same lattice as the solver under test, so comparisons
isolate scheme error from discretization error.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

import numpy as np

from . import certs
from .engine import (Chunk, Halving, LatticeModel, PicardDivergenceError, PicardNonconvergenceError,
                     SolutionField, SolverError, _check_dims, backward_range, compile_driver,
                     cond_exp, log_cond_exp, picard_range, picard_solve, project_z,
                     terminal_values, zero_field)
from .gendsl import (Bin, EvalPlan, GeneratorModel, Norm, Num, STRUCTURED, TRIANGULAR, YVar,
                     check_triangular_deps, scan_refs)
from .model import ProblemInstance


class AdaptiveFloorError(SolverError):
    """Adaptive stitching reached a one-layer chunk and still failed."""


# ---------------------------------------------------------------------------
# The backward march and the stitched global solve
# ---------------------------------------------------------------------------

def _march(field_: SolutionField, terminal: np.ndarray, L: int, solve_chunk: Callable,
           adaptive: bool = False):
    """Solve layers N..0 into the y rows of ``field_`` in chunks of at most
    L layers, terminal side first, recording each chunk and halving in its
    trace.  ``solve_chunk(term, k_lo, k_hi, ys)`` writes the chunk into its
    rows ys (laid out as ``backward_range``'s) and returns the sup-change of
    each of its passes; layer k_lo's rows are the next chunk's terminal.
    With ``adaptive`` a chunk whose Picard iteration fails is retried at
    half the length, down to one layer, and the failed attempt's passes are
    kept in its ``Halving``."""
    lattice, y, trace = field_.lattice, field_.y, field_.trace
    dt = lattice.grid.dt
    k_hi = lattice.grid.steps
    while k_hi > 0:
        k_lo = max(0, k_hi - L)
        try:
            changes = solve_chunk(terminal, k_lo, k_hi, y[lattice.rows(k_lo, k_hi + 1)])
        except (PicardNonconvergenceError, PicardDivergenceError) as err:
            if not adaptive:
                raise
            if L <= 1:
                raise AdaptiveFloorError(
                    "chunk of one layer still fails to converge") from None
            trace.halvings.append(Halving(L * dt, L // 2 * dt, err.trace))
            L //= 2
            continue
        trace.chunks.append(Chunk(k_hi, k_lo, changes))
        terminal = y[lattice.rows(k_lo)]
        k_hi = k_lo


def solve_stitched(instance: ProblemInstance, lattice: LatticeModel,
                   horizon: Union[str, float] = "adaptive", mode: str = "picard",
                   tol: float = 1e-10, max_iter: int = 200):
    """Solve backward in chunks; returns (field, field.trace).

    ``horizon`` is a chunk length in time units aligned to grid layers, or
    "adaptive" (start with the full horizon, halve on Picard failure).
    ``mode`` "picard" iterates each chunk to its fixed point; "direct" runs
    plain backward induction per chunk (chunking is then exactly neutral).
    """
    _check_dims(instance, lattice)
    if mode not in ("picard", "direct"):
        raise ValueError(f"unknown stitch mode {mode!r}")
    dt = lattice.grid.dt
    adaptive = horizon == "adaptive"
    if adaptive or dt == 0.0:
        L = lattice.grid.steps
    else:
        ratio = float(horizon) / dt
        if not math.isfinite(ratio):
            raise ValueError(f"chunk horizon {horizon} is not finite")
        L = int(round(ratio))
        if L < 1:
            raise ValueError(f"chunk horizon {horizon} is below one layer (dt={dt})")
        if abs(ratio - L) > 1e-9 * max(1.0, ratio):
            raise ValueError(f"chunk horizon {horizon} does not align with grid layers")

    driver, y_dep = compile_driver(instance.generator)
    field_ = zero_field(lattice, instance.n)

    def solve_chunk(term, k_lo, k_hi, ys):
        if mode == "picard":
            return picard_range(lattice, driver, term, k_lo, k_hi,
                                tol=tol, max_iter=max_iter, out=ys)[2]
        backward_range(lattice, driver, y_dep, term, k_lo, k_hi, out=ys,
                       trace=field_.trace)
        return [0.0]

    _march(field_, terminal_values(instance, lattice), L, solve_chunk, adaptive)
    return field_, field_.trace


# ---------------------------------------------------------------------------
# Frozen-y contraction and the sequential triangular solve
# ---------------------------------------------------------------------------

def frozen_y_contraction(driver: Callable, terminal: np.ndarray, lip_beta: float,
                         lattice: LatticeModel, tol: float = 1e-10, max_outer: int = 200,
                         out: Optional[np.ndarray] = None, y_dependent: bool = True):
    """Solve the scalar equation of ``driver`` (staged as ``compile_driver``'s
    with n = 1) and ``terminal`` (m_N, 1) by iterating the y-freezing map on
    sub-intervals of length min(1/(2*lip_beta), T); returns (y, z, trace)
    with y in flat storage covering layers 0..N, z its ``ZLayers``, and a
    trace chunk per sub-interval holding the sup-change of each outer
    iteration.  y is ``out`` when the function that owns the field passes
    its y there, such as one component's column view.  The
    chunk's y rows hold the frozen iterate (zero at first), and an outer
    iteration is one explicit ``backward_range`` over the chunk: it stages
    the driver at the old y_k that the rows hold, writes the new layer over
    it and returns the largest change.  Without ``y_dependent`` (``driver``'s
    stage reads no y) the map is constant, so its first image is the fixed
    point: a chunk takes that one outer iteration, and its trace holds that
    one change, whatever ``tol``.
    """
    if lip_beta < 0:
        raise ValueError("lip_beta must be >= 0")
    if max_outer < 1:
        raise ValueError("max_outer must be >= 1")
    dt = lattice.grid.dt
    H = certs.contraction_horizon(lip_beta)
    if dt == 0.0 or not math.isfinite(H) or H >= lattice.grid.horizon:
        L = lattice.grid.steps
    else:
        L = int(math.floor(H / dt + 1e-9))
        if L < 1:
            raise ValueError(
                f"contraction horizon {H} is shorter than one grid step {dt}")

    def solve_chunk(term, k_lo, k_hi, ys):
        ys[lattice.rows(k_lo, k_hi, k_lo)] = 0.0
        change = float(np.abs(term).max())  # the terminal against the zero iterate
        changes = []
        for _ in range(max_outer):
            changes.append(max(change, backward_range(lattice, driver, False, term,
                                                      k_lo, k_hi, out=ys)))
            if changes[-1] <= tol or not y_dependent:
                return changes
            change = 0.0  # the terminal's rows no longer change
        raise PicardNonconvergenceError(changes)

    field_ = zero_field(lattice, 1) if out is None else SolutionField(out, lattice)
    _march(field_, np.asarray(terminal, dtype=float), L, solve_chunk)
    return field_.y, field_.z, field_.trace


def scalar_problem(instance: ProblemInstance, lattice: LatticeModel) -> tuple:
    """A one-component instance's (driver, terminal), the first arguments of
    ``frozen_y_contraction``."""
    _check_dims(instance, lattice)
    if instance.n != 1:
        raise ValueError("scalar_problem requires n = 1")
    driver, _ = compile_driver(instance.generator)
    return driver, terminal_values(instance, lattice)


def solve_triangular(instance: ProblemInstance, lattice: LatticeModel,
                     tol: float = 1e-10, max_outer: int = 200) -> SolutionField:
    """Solve components in order, substituting solved components node-wise.

    Component i sees y1..y_{i-1} and z rows 1..i-1 as known per-node
    fields, reducing to a scalar equation in (y_i, z_i) handled by
    ``frozen_y_contraction`` with the instance's own-component Lipschitz
    constant.  The full field is allocated once and component i's solve
    writes straight into its column ``y[:, i-1:i]``.  The driver therefore
    evaluates on the field's own y rows of layer k: when
    ``frozen_y_contraction`` stages it there and calls the stage, column i-1
    holds the y passed, and the columns of components after i still hold
    zeros.

    The field's trace holds each component's chunks in turn; every
    component marches the same sub-intervals.  A component's
    ``SolverError`` goes up as it is, its class and fields kept, with
    ``component i: `` before its message.

    The driver gets layer k's z from one layer buffer whose column i-1 holds
    the z it is staged with.  A component that reads an earlier z (``normz``
    reads every z) gets columns 0..i-2 there at staging as ``project_z`` of
    the solved components' ``Y_{k+1}``, the field's derived Z.  No later
    column is read, since component i may read no later z.  A component
    that reads no own y (no y_i, no normy) has a constant frozen-y map, so
    it takes one outer iteration per sub-interval.
    """
    _check_dims(instance, lattice)
    gen = instance.generator
    if gen.kind != TRIANGULAR:
        raise ValueError("solve_triangular requires a triangular generator")
    violations = check_triangular_deps(gen)
    if violations:
        msgs = "; ".join(f"component {v.component} references {v.name}" for v in violations)
        raise ValueError(f"triangular dependency violation: {msgs}")

    field_ = zero_field(lattice, instance.n)
    top = lattice.rows(lattice.grid.steps)
    field_.y[top] = terminal_values(instance, lattice)
    z_layer = np.empty((lattice.layer_size(lattice.grid.steps - 1), instance.n, lattice.d))

    for i in range(1, instance.n + 1):
        plan = EvalPlan([gen.k[i - 1].root])
        refs = scan_refs(gen.k[i - 1].root)
        earlier = refs.uses_normz and i > 1 or min(refs.z_indices, default=i) < i

        def drv(k, t, z, _plan=plan, _i=i, _earlier=earlier):
            m = z.shape[0]
            z_k = z_layer[:m]
            z_k[:, _i - 1:_i] = z
            if _earlier:  # the earlier components' z, as their solves projected it
                project_z(lattice, k, field_.y[lattice.rows(k + 1), :_i - 1],
                          out=z_k[:, :_i - 1])

            def values(y):
                out = _plan.evaluate(t, field_.y[lattice.rows(k)], z_k)[0]
                return np.broadcast_to(np.asarray(out, dtype=float), (m,)).reshape(m, 1)

            return values

        try:
            field_.trace.chunks += frozen_y_contraction(
                drv, field_.y[top, i - 1:i], instance.params.lip_beta, lattice, tol=tol,
                max_outer=max_outer, out=field_.y[:, i - 1:i],
                y_dependent=i in refs.y_indices or refs.uses_normy)[2].chunks
        except SolverError as err:
            err.args = (f"component {i}: {err}",)  # same class, trace, partial and layer
            raise
    return field_


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def oracle_pure_quadratic(gamma: float, terminal: np.ndarray, lattice: LatticeModel):
    """Exponential-transform solution of the driver (gamma/2)|z|^2 (scalar):
    Y = (1/gamma) log E[exp(gamma xi) | node], exact lattice sums carried in
    log space.  Returns (y0, y) with y of shape (total_nodes,), layer k at
    ``lattice.rows(k)``.

    This is the continuous-time solution evaluated on the lattice measure,
    so lattice schemes must converge to it as the grid refines.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    term = np.asarray(terminal, dtype=float).reshape(-1)
    N = lattice.grid.steps
    y = np.empty(lattice.total_nodes)
    logs = gamma * term
    for k in range(N, -1, -1):
        if k < N:
            logs = log_cond_exp(lattice, k, logs)
        np.divide(logs, gamma, out=y[lattice.rows(k)])
    return float(y[0]), y


def oracle_linear(a: float, c: float, terminal: np.ndarray, lattice: LatticeModel):
    """Closed form for the scalar driver f = a y + c:
    Y_t = e^{a (T-t)} E[xi | node] + (c/a)(e^{a (T-t)} - 1), with the a -> 0
    limit c (T-t); returns y of shape (total_nodes,), layer k at
    ``lattice.rows(k)``."""
    term = np.asarray(terminal, dtype=float).reshape(-1)
    N = lattice.grid.steps
    y = np.empty(lattice.total_nodes)
    expectation = term
    for k in range(N, -1, -1):
        if k < N:
            expectation = cond_exp(lattice, k, expectation)
        tau = lattice.grid.horizon - lattice.grid.time(k)
        if a == 0.0:
            y[lattice.rows(k)] = expectation + c * tau
        else:
            factor = math.exp(a * tau)
            y[lattice.rows(k)] = factor * expectation + c / a * (factor - 1.0)
    return y


def oracle_joint_picard(instance: ProblemInstance, lattice: LatticeModel,
                        tight_tol: float = 1e-12, max_iter: int = 2000) -> SolutionField:
    """Brute-force reference: whole-system fixed point at a tight tolerance
    with a raised iteration budget; no structural shortcuts."""
    return picard_solve(instance, lattice, tol=tight_tol, max_iter=max_iter)[0]


# ---------------------------------------------------------------------------
# Driver-shape recognition for oracle applicability
# ---------------------------------------------------------------------------

def _is_zero(node) -> bool:
    return isinstance(node, Num) and node.value == 0.0


def match_pure_quadratic(gen: GeneratorModel) -> Optional[float]:
    """Recognize f^i = c |z^i|^2 with h = 0; returns gamma = 2c."""
    if gen.kind != STRUCTURED:
        return None
    coeff = None
    for i, (g, h) in enumerate(zip(gen.g, gen.h), start=1):
        if not _is_zero(h.root):
            return None
        node = g.root
        if not isinstance(node, Bin) or node.op != "*":
            return None
        num, norm = node.left, node.right
        if isinstance(norm, Num):
            num, norm = norm, num
        if not (isinstance(num, Num) and isinstance(norm, Norm)
                and norm.squared and norm.row.index == i and num.value > 0):
            return None
        if coeff is None:
            coeff = num.value
        elif coeff != num.value:
            return None
    return None if coeff is None else 2.0 * coeff


def match_linear(gen: GeneratorModel) -> Optional[tuple]:
    """Recognize f^i = a y_i + c with g = 0; returns (a, c)."""
    if gen.kind != STRUCTURED:
        return None
    found = None
    for i, (g, h) in enumerate(zip(gen.g, gen.h), start=1):
        if not _is_zero(g.root):
            return None
        a, c = _linear_shape(h.root, i)
        if a is None:
            return None
        if found is None:
            found = (a, c)
        elif found != (a, c):
            return None
    return found


def _linear_shape(node, i):
    if isinstance(node, Num):
        return 0.0, node.value
    if isinstance(node, YVar) and node.index == i:
        return 1.0, 0.0
    if isinstance(node, Bin) and node.op == "*":
        lhs, rhs = node.left, node.right
        if isinstance(rhs, Num):
            lhs, rhs = rhs, lhs
        if isinstance(lhs, Num) and isinstance(rhs, YVar) and rhs.index == i:
            return lhs.value, 0.0
        return None, None
    if isinstance(node, Bin) and node.op == "+":
        a, c = _linear_shape(node.left, i)
        if a is not None and isinstance(node.right, Num):
            return a, c + node.right.value
        return None, None
    return None, None


def match_zero(gen: GeneratorModel) -> bool:
    exprs = gen.k if gen.kind == TRIANGULAR else tuple(gen.g) + tuple(gen.h)
    return all(_is_zero(e.root) for e in exprs)
