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
  sub-intervals no longer than 1/(2 beta).

The oracles (exponential transform, linear closed form, tight joint
Picard) run on the same lattice as the solver under test, so comparisons
isolate scheme error from discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import certs
from .engine import (LatticeModel, PicardDivergenceError, PicardNonconvergenceError,
                     SolutionField, SolverError, backward_range, compile_driver,
                     cond_exp, log_cond_exp, picard_range, terminal_values)
from .gendsl import (Bin, EvalEnv, EvalPlan, GeneratorModel, Norm, Num, STRUCTURED,
                     TRIANGULAR, YVar, check_triangular_deps, eval_expr, sum_squares)
from .model import ProblemInstance


class AdaptiveFloorError(SolverError):
    """Adaptive stitching reached a one-layer chunk and still failed."""


@dataclass(frozen=True)
class ChunkRecord:
    start_layer: int   # terminal side (high)
    end_layer: int     # boundary side (low)
    horizon: float
    iterations: int
    final_change: float
    sup_y: float


@dataclass
class StitchPlan:
    chunks: list
    halvings: list     # (horizon_before, horizon_after)
    mode: str
    lambda_bound: float
    sup_y: float
    within_lambda: bool


@dataclass
class ContractionTrace:
    sub_intervals: list  # (end_layer, start_layer, length in time)
    changes: list        # one list of outer-iteration sup-changes per sub-interval


@dataclass
class ScalarProblem:
    """A one-component equation: driver(k, t, y (m,1), z (m,1,d)) -> (m,1)
    plus terminal values on the last layer, shape (m_N, 1)."""

    driver: Callable
    terminal: np.ndarray


# ---------------------------------------------------------------------------
# Stitched global solve
# ---------------------------------------------------------------------------

def solve_stitched(instance: ProblemInstance, lattice: LatticeModel,
                   horizon: Union[str, float] = "adaptive", mode: str = "picard",
                   tol: float = 1e-10, max_iter: int = 200,
                   inner_tol: float = 1e-12, inner_max_iter: int = 200,
                   z_truncation: Optional[float] = None):
    """Solve backward in chunks; returns (field, plan).

    ``horizon`` is a chunk length in time units aligned to grid layers, or
    "adaptive" (start with the full horizon, halve on Picard failure).
    ``mode`` "picard" iterates each chunk to its fixed point; "direct" runs
    plain backward induction per chunk (chunking is then exactly neutral).
    """
    if mode not in ("picard", "direct"):
        raise ValueError(f"unknown stitch mode {mode!r}")
    N = lattice.grid.steps
    dt = lattice.grid.dt
    adaptive = horizon == "adaptive"
    if adaptive or dt == 0.0:
        L = N
    else:
        ratio = float(horizon) / dt
        L = int(round(ratio))
        if L < 1:
            raise ValueError(f"chunk horizon {horizon} is below one layer (dt={dt})")
        if abs(ratio - L) > 1e-9 * max(1.0, ratio):
            raise ValueError(f"chunk horizon {horizon} does not align with grid layers")

    driver, y_dep = compile_driver(instance.generator)
    term = terminal_values(instance, lattice)
    n = instance.n
    ys_full = [None] * (N + 1)
    zs_full = [None] * N
    ys_full[N] = term
    chunks = []
    halvings = []

    k_hi = N
    while k_hi > 0:
        k_lo = max(0, k_hi - L)
        try:
            if mode == "picard":
                ys, zs, trace = picard_range(lattice, driver, term, k_lo, k_hi,
                                             tol=tol, max_iter=max_iter)
                iters, final = len(trace), trace[-1]
            else:
                stats = {}
                ys, zs = backward_range(lattice, driver, y_dep, term, k_lo, k_hi,
                                        inner_tol=inner_tol, inner_max_iter=inner_max_iter,
                                        z_truncation=z_truncation, stats=stats)
                iters, final = 1, 0.0
        except (PicardNonconvergenceError, PicardDivergenceError):
            if not adaptive:
                raise
            if L <= 1:
                raise AdaptiveFloorError(
                    "chunk of one layer still fails to converge") from None
            new_L = max(1, L // 2)
            halvings.append((L * dt, new_L * dt))
            L = new_L
            continue
        ys_full[k_lo:k_hi + 1] = ys
        zs_full[k_lo:k_hi] = zs
        sup = max(float(np.sqrt(sum_squares(a)).max()) for a in ys)
        chunks.append(ChunkRecord(start_layer=k_hi, end_layer=k_lo,
                                  horizon=(k_hi - k_lo) * dt,
                                  iterations=iters, final_change=final, sup_y=sup))
        term = ys[0]
        k_hi = k_lo

    cert = certs.build_certificate(instance)
    sup_total = max((c.sup_y for c in chunks), default=float(np.sqrt(sum_squares(term)).max()))
    plan = StitchPlan(chunks=chunks, halvings=halvings, mode=mode,
                      lambda_bound=cert.lambda_bound, sup_y=sup_total,
                      within_lambda=all(c.sup_y <= cert.lambda_bound for c in chunks))
    meta = {"scheme": f"stitched/{mode}", "chunks": len(chunks),
            "halvings": len(halvings)}
    field_ = SolutionField(y=ys_full, z=zs_full, metadata=meta)
    return field_, plan


# ---------------------------------------------------------------------------
# Frozen-y contraction and the sequential triangular solve
# ---------------------------------------------------------------------------

def frozen_y_contraction(problem: ScalarProblem, lip_beta: float, lattice: LatticeModel,
                         tol: float = 1e-10, max_outer: int = 200,
                         inner_tol: float = 1e-12, inner_max_iter: int = 200):
    """Solve a scalar equation by iterating the y-freezing map on
    sub-intervals of length min(1/(2*lip_beta), T); returns
    (y_layers, z_layers, trace) with layer lists covering 0..N.
    An outer iteration holds the previous ys, which the frozen map reads, and
    not the previous zs; no array is written in place.
    """
    if lip_beta < 0:
        raise ValueError("lip_beta must be >= 0")
    N = lattice.grid.steps
    dt = lattice.grid.dt
    horizon = lattice.grid.horizon
    H = certs.contraction_horizon(lip_beta)
    if dt == 0.0 or not math.isfinite(H) or H >= horizon:
        L = N
    else:
        L = int(math.floor(H / dt + 1e-9))
        if L < 1:
            raise ValueError(
                f"contraction horizon {H} is shorter than one grid step {dt}")

    ys_full = [None] * (N + 1)
    zs_full = [None] * N
    term = np.asarray(problem.terminal, dtype=float)
    ys_full[N] = term
    trace = ContractionTrace(sub_intervals=[], changes=[])

    k_hi = N
    while k_hi > 0:
        k_lo = max(0, k_hi - L)
        span = k_hi - k_lo
        frozen = [np.zeros((lattice.layer_size(k_lo + j), 1)) for j in range(span + 1)]
        changes = []
        for outer in range(max_outer):
            def drv(k, t, y, z, _frozen=frozen, _k_lo=k_lo):
                return problem.driver(k, t, _frozen[k - _k_lo], z)

            zs = None  # free the previous Z: the frozen map reads only the previous ys
            ys, zs = backward_range(lattice, drv, False, term, k_lo, k_hi,
                                    inner_tol=inner_tol, inner_max_iter=inner_max_iter)
            change = max(float(np.abs(a - b).max()) for a, b in zip(ys, frozen))
            changes.append(change)
            frozen = ys
            if change <= tol:
                break
        else:
            raise PicardNonconvergenceError(changes)
        trace.sub_intervals.append((k_lo, k_hi, span * dt))
        trace.changes.append(changes)
        ys_full[k_lo:k_hi + 1] = ys
        zs_full[k_lo:k_hi] = zs
        term = ys[0]
        k_hi = k_lo

    return ys_full, zs_full, trace


def scalar_problem(instance: ProblemInstance, lattice: LatticeModel) -> ScalarProblem:
    """Wrap a one-component instance as a ScalarProblem."""
    if instance.n != 1:
        raise ValueError("scalar_problem requires n = 1")
    driver, _ = compile_driver(instance.generator)
    return ScalarProblem(driver=driver, terminal=terminal_values(instance, lattice))


def solve_triangular(instance: ProblemInstance, lattice: LatticeModel,
                     tol: float = 1e-10, max_outer: int = 200,
                     inner_tol: float = 1e-12, inner_max_iter: int = 200) -> SolutionField:
    """Solve components in order, substituting solved components node-wise.

    Component i sees y1..y_{i-1} and z rows 1..i-1 as known per-node
    fields, reducing to a scalar equation in (y_i, z_i) handled by
    ``frozen_y_contraction`` with the instance's own-component Lipschitz
    constant.  Each component's layers are released once copied into the
    full field, so solving component i holds the full field and its iterate.
    """
    gen = instance.generator
    if gen.kind != TRIANGULAR:
        raise ValueError("solve_triangular requires a triangular generator")
    violations = check_triangular_deps(gen)
    if violations:
        msgs = "; ".join(f"component {v.component} references {v.name}" for v in violations)
        raise ValueError(f"triangular dependency violation: {msgs}")

    N = lattice.grid.steps
    n, d = instance.n, instance.d
    term = terminal_values(instance, lattice)
    y_full = [np.zeros((lattice.layer_size(k), n)) for k in range(N + 1)]
    z_full = [np.zeros((lattice.layer_size(k), n, d)) for k in range(N)]
    y_full[N] = term.copy()
    traces = []

    for i in range(1, n + 1):
        expr = gen.k[i - 1]
        plan = EvalPlan([expr.root])

        def drv(k, t, y, z, _i=i, _expr=expr, _plan=plan):
            m = y.shape[0]
            Y = np.zeros((m, n))
            Y[:, :_i - 1] = y_full[k][:, :_i - 1]
            Y[:, _i - 1] = y[:, 0]
            Z = np.zeros((m, n, d))
            if k < N:
                Z[:, :_i - 1, :] = z_full[k][:, :_i - 1, :]
            Z[:, _i - 1, :] = z[:, 0, :]
            values = _plan.run(t, Y, Z)
            out = values[0] if values is not None else eval_expr(_expr, EvalEnv(t=t, y=Y, z=Z))
            return np.broadcast_to(np.asarray(out, dtype=float), (m,)).reshape(m, 1)

        problem = ScalarProblem(driver=drv, terminal=term[:, i - 1:i])
        try:
            ys, zs, trace = frozen_y_contraction(
                problem, instance.params.lip_beta, lattice,
                tol=tol, max_outer=max_outer,
                inner_tol=inner_tol, inner_max_iter=inner_max_iter)
        except SolverError as err:
            raise SolverError(f"component {i}: {err}") from err
        traces.append(trace)
        for k in range(N + 1):
            y_full[k][:, i - 1] = ys[k][:, 0]
        for k in range(N):
            z_full[k][:, i - 1, :] = zs[k][:, 0, :]
        del ys, zs

    meta = {"scheme": "triangular",
            "component_outer_iterations": [sum(len(c) for c in tr.changes) for tr in traces],
            "component_traces": traces}
    return SolutionField(y=y_full, z=z_full, metadata=meta)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def oracle_pure_quadratic(gamma: float, terminal: np.ndarray, lattice: LatticeModel):
    """Exponential-transform solution of the driver (gamma/2)|z|^2 (scalar):
    Y = (1/gamma) log E[exp(gamma xi) | node], exact lattice sums carried in
    log space.  Returns (y0, y_layers) with y_layers[k] of shape (m_k,).

    This is the continuous-time solution evaluated on the lattice measure,
    so lattice schemes must converge to it as the grid refines.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    term = np.asarray(terminal, dtype=float).reshape(-1)
    N = lattice.grid.steps
    logs = [None] * (N + 1)
    logs[N] = gamma * term
    for k in range(N - 1, -1, -1):
        logs[k] = log_cond_exp(lattice, k, logs[k + 1])
    ys = [lv / gamma for lv in logs]
    return float(ys[0][0]), ys


def oracle_linear(a: float, c: float, terminal: np.ndarray, lattice: LatticeModel):
    """Closed form for the scalar driver f = a y + c:
    Y_t = e^{a (T-t)} E[xi | node] + (c/a)(e^{a (T-t)} - 1), with the a -> 0
    limit c (T-t); returns y_layers with y_layers[k] of shape (m_k,)."""
    term = np.asarray(terminal, dtype=float).reshape(-1)
    N = lattice.grid.steps
    expectations = [None] * (N + 1)
    expectations[N] = term
    for k in range(N - 1, -1, -1):
        expectations[k] = cond_exp(lattice, k, expectations[k + 1])
    ys = []
    for k in range(N + 1):
        tau = lattice.grid.horizon - lattice.grid.time(k)
        if a == 0.0:
            ys.append(expectations[k] + c * tau)
        else:
            factor = math.exp(a * tau)
            ys.append(factor * expectations[k] + c / a * (factor - 1.0))
    return ys


def oracle_joint_picard(instance: ProblemInstance, lattice: LatticeModel,
                        tight_tol: float = 1e-12, max_iter: int = 2000) -> SolutionField:
    """Brute-force reference: whole-system fixed point at a tight tolerance
    with a raised iteration budget; no structural shortcuts."""
    driver, _ = compile_driver(instance.generator)
    term = terminal_values(instance, lattice)
    ys, zs, trace = picard_range(lattice, driver, term, 0, lattice.grid.steps,
                                 tol=tight_tol, max_iter=max_iter)
    return SolutionField(y=ys, z=zs,
                         metadata={"scheme": "joint_picard", "iterations": len(trace)})


# ---------------------------------------------------------------------------
# Driver-shape recognition for oracle applicability
# ---------------------------------------------------------------------------

def _is_zero(node) -> bool:
    return isinstance(node, Num) and node.value == 0.0


def match_pure_quadratic(gen: GeneratorModel) -> Optional[float]:
    """Recognize f^i = c |z^i|^2 with h = 0 (catalog shape); returns gamma = 2c."""
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
    """Recognize f^i = a y_i + c with g = 0 (catalog shape); returns (a, c)."""
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
