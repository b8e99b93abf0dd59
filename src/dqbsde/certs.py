"""Closed-form certificates and inequality verification.

Everything here is computable from problem data alone, before (or
without) solving: the a priori sup-norm bound for Y, the budget check on
the coefficient integrals, the BMO-type bound for Z (carried in natural
log space because it scales like exp(gamma*lambda)), the contraction
horizon of the frozen-y map, and sample-based falsification of the
structural growth/Lipschitz conditions.

Falsification is deliberately one-sided: the conditions quantify over
unbounded domains, so a found violation is certain while a clean report
is only evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .gendsl import EvalEnv, EvalPlan, Expr, STRUCTURED, norm
from .model import CoefficientFunction, ProblemInstance

_LOG_OVERFLOW = 709.0  # ln of the largest double, minus slack
_VIOLATION_TOL = 1e-9  # absolute slack before a sample counts as a violation


@dataclass(frozen=True)
class Certificate:
    """All closed-form constants derivable from one problem instance."""

    c1: float
    lambda_bound: float        # +inf when only the log form is representable
    lambda_log: float          # natural log of the bound, always finite
    lambda_log_space: bool     # True when lambda_bound overflowed
    ks_integral: float
    h3_budget: float
    h3_satisfied: bool
    bmo_bound_log: float       # natural log of the squared-BMO bound for Z
    contraction_horizon: float  # 1/(2*lip_beta), +inf when lip_beta == 0


# ---------------------------------------------------------------------------
# The logarithmic-growth inequality  C log(1+x) <= x^2 y + y/3 + (C/2) log(1+C/y)
# ---------------------------------------------------------------------------

def _log_residual(X, Y, C):
    """rhs - lhs of the log-growth inequality, elementwise."""
    return X * X * Y + Y / 3.0 + C / 2.0 * np.log1p(C / Y) - C * np.log1p(X)


def _at_point(formula, *values) -> float:
    """`formula` at one point, on one-element arrays, so on the numpy loops
    of a scan and with that scan's bits.  A term past the double range is
    IEEE inf, so the result is +-inf, or NaN where both sides overflow."""
    with np.errstate(over="ignore"):
        return float(formula(*np.array(values, dtype=float)[:, None])[0])


def check_log_inequality(x: float, y: float, C: float) -> float:
    """Residual (rhs - lhs) of the log-growth inequality; >= 0 when it holds.

    scan_log_inequality's cell at (x, y, C), bit for bit.  Overflow gives
    IEEE +-inf, like lambda's saturation: (1e308, 1e-300, 1) gives +inf.
    """
    if not (0 < x < math.inf and 0 < y < math.inf and 0 < C < math.inf):  # NaN fails too
        raise ValueError("check_log_inequality needs x, y, C > 0")
    return _at_point(_log_residual, x, y, C)


@dataclass(frozen=True)
class LogScanResult:
    min_residual: float
    argmin: tuple                 # (x, y, C)
    stationarity_residual: float  # max over (y,C) slices of |2x* - k/(1+x*)|, k = C/y
    max_argmin_cell_offset: int   # grid cells between the slice argmin and the
    # exact minimizer x0 solving 2*x0^2 + 2*x0 = k (clamped to the grid)
    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)
    cs: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)  # shape (len(xs), len(ys), len(cs))


def _log_axis(spec, name: str) -> np.ndarray:
    lo, hi, count = spec
    if count < 1:
        raise ValueError(f"{name}: empty range")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name}: bounds must be finite")
    if lo <= 0 or hi <= 0:
        raise ValueError(f"{name}: bounds must be positive")
    if lo > hi:
        raise ValueError(f"{name}: inverted range")
    return np.geomspace(lo, hi, int(count))


def scan_log_inequality(x_range, y_range, c_range) -> LogScanResult:
    """Exhaustive residual scan over a log-spaced (x, y, C) grid.

    Besides the global minimum, checks the first-order condition of the
    per-slice minimizer: for fixed (y, C) the residual is strictly convex
    in x with stationary point 2*x0^2 + 2*x0 = C/y, so the grid argmin
    must land within one cell of x0 (or of the grid edge nearest to it).
    Overflow gives IEEE +-inf (or NaN), as in check_log_inequality.
    """
    xs = _log_axis(x_range, "x")
    ys = _log_axis(y_range, "y")
    cs = _log_axis(c_range, "C")
    with np.errstate(over="ignore"):
        residuals = _log_residual(xs[:, None, None], ys[None, :, None], cs[None, None, :])
        slice_arg = np.argmin(residuals, axis=0)            # (ny, nc)
        xstar = xs[slice_arg]
        k = cs[None, :] / ys[:, None]
        stationarity = np.abs(2.0 * xstar - k / (1.0 + xstar))
        x0 = (-1.0 + np.sqrt(1.0 + 2.0 * k)) / 2.0

    flat = int(np.argmin(residuals))
    ix, iy, ic = np.unravel_index(flat, residuals.shape)
    min_residual = float(residuals[ix, iy, ic])

    if len(xs) > 1:
        step = (math.log(xs[-1]) - math.log(xs[0])) / (len(xs) - 1)
        j0 = np.rint((np.log(x0) - math.log(xs[0])) / step)
        j0 = np.clip(j0, 0, len(xs) - 1).astype(int)
    else:
        j0 = np.zeros_like(slice_arg)
    offset = int(np.max(np.abs(slice_arg - j0)))

    return LogScanResult(
        min_residual=min_residual,
        argmin=(float(xs[ix]), float(ys[iy]), float(cs[ic])),
        stationarity_residual=float(np.max(stationarity)),
        max_argmin_cell_offset=offset,
        xs=xs, ys=ys, cs=cs, residuals=residuals,
    )


# ---------------------------------------------------------------------------
# A priori sup-norm bound for Y and the coefficient-budget check
# ---------------------------------------------------------------------------

def compute_c1_lambda(n: int, gamma: float, c0: float, T: float) -> tuple:
    """Constants (C1, lambda) of the a priori bound ||Y||_sup <= lambda.

    C1 = (n/gamma) log(2 e^{c0} + 2) + gamma T/3 + n (1 + 2n/gamma)(c0 + 2T) + 3 n c0
    lambda = C1 exp(n c0 (gamma + 2)), returned as +inf past the double range
    (the log form stays available via compute_lambda_log).  Where 2 e^{c0} + 2
    overflows a double (c0 above ~709.08), its log is c0 + log 2 + log1p(e^{-c0});
    C1 is +inf only where its own sums overflow (c0 near 1e308).
    """
    return _c1_lambda(n, gamma, c0, T, "compute_c1_lambda")[:2]


def compute_lambda_log(n: int, gamma: float, c0: float, T: float) -> float:
    """Natural log of lambda; finite even when lambda overflows a double, and
    +inf where C1 or the exponent n c0 (gamma + 2) overflows."""
    return _c1_lambda(n, gamma, c0, T, "compute_lambda_log")[2]


def _c1_lambda(n: int, gamma: float, c0: float, T: float, caller: str) -> tuple:
    """(C1, lambda, log lambda); `caller` is the entry point errors name."""
    if n < 1 or gamma <= 0 or c0 < 0 or T < 0:
        raise ValueError(f"{caller} needs n >= 1, gamma > 0, c0 >= 0, T >= 0")
    try:
        grow = 2.0 * math.exp(c0) + 2.0
    except OverflowError:  # e^{c0} alone is past the double range
        grow = math.inf
    log_grow = (math.log(grow) if grow < math.inf
                else c0 + math.log(2.0) + math.log1p(math.exp(-c0)))
    c1 = (n / gamma * log_grow
          + gamma * T / 3.0
          + n * (1.0 + 2.0 * n / gamma) * (c0 + 2.0 * T)
          + 3.0 * n * c0)
    log_lam = math.log(c1) + n * c0 * (gamma + 2.0)
    return c1, (math.exp(log_lam) if log_lam <= _LOG_OVERFLOW else math.inf), log_lam


def compute_ks_integral(eta: CoefficientFunction, gamma: float, n: int, T: float) -> float:
    """Exact integral over [0, T] of the pointwise rate
    gamma/(6n) + (eta/2) (1 + log(eta+1) + 2n/gamma), eta piecewise constant."""
    if gamma <= 0 or n < 1 or T < 0:
        raise ValueError("compute_ks_integral needs gamma > 0, n >= 1, T >= 0")
    tail = eta.integral(T, transform=lambda v: v / 2.0 * (1.0 + math.log1p(v) + 2.0 * n / gamma))
    return gamma * T / (6.0 * n) + tail


def compute_h3_budget(xi_bound: float, alpha: CoefficientFunction,
                      beta: CoefficientFunction, eta: CoefficientFunction,
                      T: float) -> float:
    """||xi||_inf + integral of (alpha + beta + eta log(1+eta)) over [0, T], exact."""
    if xi_bound < 0 or T < 0:
        raise ValueError("compute_h3_budget needs xi_bound >= 0 and T >= 0")
    return (xi_bound
            + alpha.integral(T)
            + beta.integral(T)
            + eta.integral(T, transform=lambda v: v * math.log1p(v)))


def compute_bmo_bound_log(n: int, gamma: float, c0: float, T: float, lam: float) -> float:
    """Natural log of the squared-BMO bound for Z.

    log of 4 [ n e^{gamma c0} / gamma^2
               + (n e^{gamma lam} / gamma) (3 c0/2 + lam c0 (1 + gamma/2)
                 + gamma T/(12 n) + (1/2)(1 + 4n/gamma)(c0 + 2T)) ]
    evaluated by log-sum-exp so e^{gamma lam} never materializes.
    """
    if n < 1 or gamma <= 0 or c0 < 0 or T < 0 or lam < 0:
        raise ValueError("compute_bmo_bound_log: parameter out of range")
    if not math.isfinite(lam):
        return math.inf
    term1 = math.log(n / gamma ** 2) + gamma * c0
    inner = (3.0 * c0 / 2.0 + lam * c0 * (1.0 + gamma / 2.0)
             + gamma * T / (12.0 * n)
             + 0.5 * (1.0 + 4.0 * n / gamma) * (c0 + 2.0 * T))
    term2 = gamma * lam + math.log(n / gamma) + math.log(inner)
    return math.log(4.0) + float(np.logaddexp(term1, term2))


def contraction_horizon(lip_beta: float) -> float:
    """Sub-interval length 1/(2 beta) on which the frozen-y map contracts."""
    if lip_beta < 0:
        raise ValueError("contraction_horizon needs lip_beta >= 0")
    if lip_beta == 0:
        return math.inf
    return 1.0 / (2.0 * lip_beta)


# ---------------------------------------------------------------------------
# Young-type power bound and the exponential-moment certificate
# ---------------------------------------------------------------------------

def _young_constant(A, L, E):
    """((1-a)/2) L^{2/(1-a)} eps^{-(1+a)/(1-a)}, the power bound's constant."""
    return (1 - A) / 2 * L ** (2 / (1 - A)) * E ** (-(1 + A) / (1 - A))


def _young_residual(A, L, E, Z):
    """rhs - lhs of the power bound, elementwise."""
    return (1 + A) / 2 * E * Z ** 2 + _young_constant(A, L, E) - L * Z ** (1 + A)


def check_young_power(L: float, alpha: float, eps: float, z_norm: float) -> float:
    """Residual of L|z|^{1+a} <= ((1+a)/2) eps |z|^2 + ((1-a)/2) L^{2/(1-a)} eps^{-(1+a)/(1-a)}.

    scan_young_power's cell at (alpha, L, eps, z_norm), bit for bit, with
    z_norm = 0 allowed.  Overflow gives IEEE +-inf, like lambda's
    saturation: (1e200, 0.5, 1, 1) gives +inf.
    """
    if not (0 < L < math.inf and 0 < eps < math.inf and -1.0 < alpha < 1.0
            and 0 <= z_norm < math.inf):  # NaN fails too
        raise ValueError("check_young_power: parameter out of range")
    return _at_point(_young_residual, alpha, L, eps, z_norm)


@dataclass(frozen=True)
class YoungScanResult:
    min_residual: float
    argmin: tuple  # (L, alpha, eps, z)
    alphas: tuple
    ls: np.ndarray = field(repr=False)
    es: np.ndarray = field(repr=False)
    zs: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)  # (n_alpha, nL, ne, nz)


def scan_young_power(alphas, l_range, e_range, z_range) -> YoungScanResult:
    """Residual scan of the power bound over log-spaced (L, eps, |z|) grids.

    Overflow gives IEEE +-inf (or NaN), as in check_young_power.
    """
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ValueError("scan_young_power: empty alpha list")
    for a in alphas:
        if not (-1.0 < a < 1.0):
            raise ValueError(f"alpha {a} outside (-1, 1)")
    ls = _log_axis(l_range, "L")
    es = _log_axis(e_range, "eps")
    zs = _log_axis(z_range, "z")
    with np.errstate(over="ignore"):
        residuals = _young_residual(np.array(alphas)[:, None, None, None], ls[None, :, None, None],
                                    es[None, None, :, None], zs[None, None, None, :])
    flat = int(np.argmin(residuals))
    ia, il, ie, iz = np.unravel_index(flat, residuals.shape)
    return YoungScanResult(
        min_residual=float(residuals[ia, il, ie, iz]),
        argmin=(float(ls[il]), alphas[ia], float(es[ie]), float(zs[iz])),
        alphas=alphas, ls=ls, es=es, zs=zs, residuals=residuals,
    )


def exp_moment_bound_log(L: float, alpha: float, bmo_norm: float, T: float) -> float:
    """Natural log of the bound 2 exp(((1-a)/2) L^{2/(1-a)} eps^{-(1+a)/(1-a)} T)
    on the conditional exponential moment of L * integral of |z|^{1+a}.

    eps is pinned to 1/((1+a) bmo^2) so the quadratic share is exactly 1/2
    and the prefactor exactly 2.  The log stays finite where the bound
    itself overflows a double, and is +inf where the constant does (T > 0).
    """
    if L <= 0 or bmo_norm <= 0 or T < 0 or not (-1.0 < alpha < 1.0):
        raise ValueError("exp_moment_bound_log: parameter out of range")
    eps = 1.0 / ((1.0 + alpha) * bmo_norm ** 2)
    exponent = _at_point(_young_constant, alpha, L, eps) * T if T else 0.0
    return math.log(2.0) + exponent


# ---------------------------------------------------------------------------
# Whole-instance certificate
# ---------------------------------------------------------------------------

def build_certificate(instance: ProblemInstance) -> Certificate:
    p = instance.params
    T = instance.grid.horizon
    c1, lam, lam_log = _c1_lambda(instance.n, p.gamma, p.c0, T, "build_certificate")
    budget = compute_h3_budget(instance.terminal.declared_bound, p.alpha, p.beta, p.eta, T)
    return Certificate(
        c1=c1,
        lambda_bound=lam,
        lambda_log=lam_log,
        lambda_log_space=not math.isfinite(lam),
        ks_integral=compute_ks_integral(p.eta, p.gamma, instance.n, T),
        h3_budget=budget,
        h3_satisfied=budget <= p.c0,
        bmo_bound_log=compute_bmo_bound_log(instance.n, p.gamma, p.c0, T, lam),
        contraction_horizon=contraction_horizon(p.lip_beta),
    )


# ---------------------------------------------------------------------------
# Sample-based falsification of the structural conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    assumption: str
    component: int  # 1-based
    t: float
    y: Optional[np.ndarray]
    z: Optional[np.ndarray]
    y2: Optional[np.ndarray]
    z2: Optional[np.ndarray]
    lhs: float
    rhs: float


@dataclass
class FalsificationReport:
    violations: list
    violation_count: int  # total found, may exceed len(violations) when truncated
    sample_count: int
    seed: int
    domain_errors: list   # (assumption, sample index, message)
    truncated: bool

    @property
    def clean(self) -> bool:
        return self.violation_count == 0


# Philox4x64-10 (Salmon et al., SC'11) exactly as np.random.Philox computes it.
# Every constant that meets a uint64 array is itself np.uint64, so no operation
# can promote to float64 under any numpy's casting rules.
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # Weyl key increments
_PHILOX_ROUNDS = 10
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
# the two round multipliers, each with its low and high 32-bit limbs
_PHILOX_M0, _PHILOX_M1 = ((np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
                          for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_SAMPLE_BLOCK = 2 ** 11  # samples a Philox pass draws and the falsifier tests; sets its peak


def _philox_round_keys(seed: int) -> list:
    """The ten (key0, key1) round keys for key = seed, as np.random.Philox
    splits it: key0 = seed mod 2**64, key1 = seed >> 64."""
    if not 0 <= seed < 2 ** 128:
        raise ValueError("seed must be >= 0 and < 2**128")
    seed = int(seed)
    key = (seed & (2 ** 64 - 1), seed >> 64)
    return [tuple(np.uint64((k + r * w) % 2 ** 64) for k, w in zip(key, _PHILOX_W))
            for r in range(_PHILOX_ROUNDS)]


def _mulhilo(a: np.ndarray, mult) -> tuple:
    """(hi, lo) words of the 128-bit product of uint64 `a` and a multiplier
    (m, its low and its high 32 bits); lo wraps, hi is assembled from
    32-bit limbs.  Every step is exact mod 2**64."""
    m, m_lo, m_hi = mult
    low = np.uint64(0xFFFFFFFF)
    a_hi = a >> _SHIFT32
    a_lo = a & low
    mid = (a_lo * m_lo) >> _SHIFT32
    cross = a_hi * m_lo
    hi = cross >> _SHIFT32
    mid += cross & low
    cross = a_lo * m_hi
    mid += cross & low
    hi += (cross >> _SHIFT32) + a_hi * m_hi + (mid >> _SHIFT32)
    return hi, a * m


def _sample_uniforms(seed: int, count: int, per_sample: int, start: int = 0) -> np.ndarray:
    """(count, per_sample) uniforms; row r holds the first per_sample doubles
    that np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, start + r]))
    draws: block j is Philox4x64-10 of counter (j+1, 0, 0, start + r), its four
    words taken in order, each mapped to (w >> 11) * 2**-53.  Every sample has
    its own counter, so any index partition reproduces them."""
    round_keys = _philox_round_keys(seed)
    blocks = -(-per_sample // 4)
    zero = np.zeros((1, 1), dtype=np.uint64)
    # (count, blocks) lanes; broadcasting keeps the first rounds on the distinct values
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c1, c2 = zero, zero
    c3 = np.arange(start, start + count, dtype=np.uint64)[:, None]
    for k0, k1 in round_keys:
        hi0, lo0 = _mulhilo(c0, _PHILOX_M0)
        hi1, lo1 = _mulhilo(c2, _PHILOX_M1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    out = np.empty((count, per_sample))
    for w, c in enumerate((c0, c1, c2, c3)):
        cols = len(range(w, per_sample, 4))
        np.multiply(c[:, :cols] >> _SHIFT11, 2.0 ** -53, out=out[:, w::4])
    return out


def falsify_assumptions(instance: ProblemInstance, seed: int = 0, count: int = 10_000,
                        radius: float = 10.0, max_recorded: int = 1000) -> FalsificationReport:
    """Draw pseudo-random (t, y, z) points (and pairs) and test every
    structural inequality of the instance's generator class.

    A violation is recorded when lhs > rhs + 1e-9; domain errors at
    individual samples are recorded, not fatal.  A clean report is
    evidence, not proof.  Samples are drawn and tested one block of
    _SAMPLE_BLOCK at a time, so memory does not grow with count, and the
    report is the same for every block size.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    _philox_round_keys(seed)  # reject a bad seed even when no block is drawn
    n, d = instance.n, instance.d
    T = instance.grid.horizon
    per = 1 + 2 * n + 2 * n * d
    falsify = _falsify_structured if instance.generator.kind == STRUCTURED else _falsify_triangular
    recorder = _Recorder(max_recorded)
    for start in range(0, count, _SAMPLE_BLOCK):
        m = min(_SAMPLE_BLOCK, count - start)
        u = _sample_uniforms(seed, m, per, start)
        t = T * u[:, 0]
        yA = radius * (2.0 * u[:, 1:1 + n] - 1.0)
        yB = radius * (2.0 * u[:, 1 + n:1 + 2 * n] - 1.0)
        zA = radius * (2.0 * u[:, 1 + 2 * n:1 + 2 * n + n * d] - 1.0).reshape(m, n, d)
        zB = radius * (2.0 * u[:, 1 + 2 * n + n * d:] - 1.0).reshape(m, n, d)
        recorder.begin(start)
        with np.errstate(over="ignore"):  # an overflowing rhs is +inf, which add skips
            falsify(instance, t, yA, yB, zA, zB, recorder)

    violations = [v for site in recorder.violations.values() for v in site]
    del violations[recorder.max_recorded:]
    return FalsificationReport(
        violations=violations,
        violation_count=recorder.total,
        sample_count=count,
        seed=seed,
        domain_errors=[e for site in recorder.domain_errors.values() for e in site],
        truncated=recorder.total > len(violations),
    )


class _Recorder:
    """Violations and domain errors of a falsifier run, kept per call site.

    Every block makes the same sequence of `add` and `eval` calls, so the
    k-th of a block is site k.  A site keeps its samples in index order, at
    most max_recorded violations; the report joins the sites in call order,
    which is the order one block over all samples gives.
    """

    def __init__(self, max_recorded: int):
        self.violations = {}     # add site -> [Violation]
        self.domain_errors = {}  # eval site -> [(assumption, sample index, message)]
        self.total = 0
        self.max_recorded = max(max_recorded, 0)
        self.plans = {}          # id of an Expr of the instance -> its EvalPlan
        self.begin(0)

    def begin(self, start: int):
        """Start a block whose first sample has global index start."""
        self.start = start
        self.adds = self.evals = 0

    def add(self, assumption, component, t, lhs, rhs, y=None, z=None, y2=None, z2=None):
        kept = self.violations.setdefault(self.adds, [])
        self.adds += 1
        mask = np.isfinite(lhs) & np.isfinite(rhs) & (lhs > rhs + _VIOLATION_TOL)
        idx = np.nonzero(mask)[0]
        self.total += len(idx)
        for j in idx[:self.max_recorded - len(kept)]:
            kept.append(Violation(
                assumption=assumption, component=component, t=float(t[j]),
                y=None if y is None else y[j].copy(),
                z=None if z is None else z[j].copy(),
                y2=None if y2 is None else y2[j].copy(),
                z2=None if z2 is None else z2[j].copy(),
                lhs=float(lhs[j]), rhs=float(rhs[j]),
            ))

    def eval(self, assumption, expr: Expr, env: EvalEnv, m: int) -> np.ndarray:
        """Batched evaluation through the expression's plan, compiled once
        per recorder.  When the fast run gives up, the checked run gives
        every row its value (NaN where it fails) and its ``EvalError`` in one
        pass, as evaluating that row alone would."""
        errors = self.domain_errors.setdefault(self.evals, [])
        self.evals += 1
        plan = self.plans.get(id(expr))
        if plan is None:
            plan = self.plans[id(expr)] = EvalPlan([expr.root])
        out = plan.run(env.t, env.y, env.z)
        if out is None:
            out, failed = plan.rows(env.t, env.y, env.z, m)
            errors.extend((assumption, self.start + j, str(err)) for j, err in failed)
        return np.broadcast_to(np.asarray(out[0], dtype=float), (m,)).copy()


class _SiteProbe(_Recorder):
    """Keeps (lhs, rhs) of one (assumption, component) check of a one-row batch."""

    def __init__(self, assumption: str, component: int):
        super().__init__(0)
        self.site = (assumption, component)
        self.found = None

    def add(self, assumption, component, t, lhs, rhs, **stored):
        if (assumption, component) == self.site:
            self.found = (float(lhs[0]), float(rhs[0]))


def _falsify_structured(inst, t, yA, yB, zA, zB, rec: _Recorder):
    p = inst.params
    gen = inst.generator
    m, n = yA.shape
    envA = EvalEnv(t=t, y=yA, z=zA)
    envB = EvalEnv(t=t, y=yB, z=zB)
    env0 = EvalEnv(t=t, y=np.zeros_like(yA), z=np.zeros_like(zA))

    rowsA = norm(zA)   # (m, n) row norms
    rowsB = norm(zB)
    frobA = norm(zA, 2)
    frobB = norm(zB, 2)
    ynormA = norm(yA)

    alpha_t = p.alpha.value_at(t)
    beta_t = p.beta.value_at(t)
    eta_t = p.eta.value_at(t)

    for i in range(1, n + 1):
        gA = rec.eval("H1a", gen.g[i - 1], envA, m)
        rec.add("H1a", i, t, np.abs(gA), p.gamma / 2.0 * rowsA[:, i - 1] ** 2, y=yA, z=zA)

        gB = rec.eval("H1b", gen.g[i - 1], envB, m)
        rhs = p.lip_k * (1.0 + rowsA[:, i - 1] + rowsB[:, i - 1]) \
            * norm(zA[:, i - 1] - zB[:, i - 1])
        rec.add("H1b", i, t, np.abs(gA - gB), rhs, z=zA, z2=zB)

        h0 = rec.eval("H1c", gen.h[i - 1], env0, m)
        rec.add("H1c", i, t, np.abs(h0), np.full(m, p.lip_k))

        hA = rec.eval("H1d", gen.h[i - 1], envA, m)
        hB = rec.eval("H1d", gen.h[i - 1], envB, m)
        dz = norm(zA - zB, 2)
        dy = norm(yA - yB)
        rhs = (p.lip_k * dy
               + p.lip_k * (1.0 + frobA ** p.delta + frobB ** p.delta) * dz)
        rec.add("H1d", i, t, np.abs(hA - hB), rhs, y=yA, z=zA, y2=yB, z2=zB)

        lhs = np.sign(yA[:, i - 1]) * hA
        rhs = alpha_t + beta_t * ynormA + eta_t * np.log1p(frobA)
        rec.add("H2", i, t, lhs, rhs, y=yA, z=zA)


def _falsify_triangular(inst, t, yA, yB, zA, zB, rec: _Recorder):
    p = inst.params
    gen = inst.generator
    m, n = yA.shape
    envA = EvalEnv(t=t, y=yA, z=zA)
    rowsA = norm(zA)
    rowsB = norm(zB)

    for i in range(1, n + 1):
        kA = rec.eval("A1", gen.k[i - 1], envA, m)
        growth = (1.0
                  + np.abs(yA[:, :i]).sum(-1)
                  + (rowsA[:, :i] ** (1.0 + p.power_alpha)).sum(-1)
                  + rowsA[:, i - 1] ** 2)
        rec.add("A1", i, t, np.abs(kA), p.a1_c * growth, y=yA, z=zA)

        # vary only the i-th component of y and the i-th row of z
        yV = yA.copy()
        yV[:, i - 1] = yB[:, i - 1]
        zV = zA.copy()
        zV[:, i - 1, :] = zB[:, i - 1, :]
        kV = rec.eval("A2", gen.k[i - 1], EvalEnv(t=t, y=yV, z=zV), m)
        rhs = (p.lip_beta * np.abs(yA[:, i - 1] - yB[:, i - 1])
               + p.a2_c * (1.0 + rowsA[:, i - 1] + rowsB[:, i - 1])
               * norm(zA[:, i - 1] - zB[:, i - 1]))
        rec.add("A2", i, t, np.abs(kA - kV), rhs, y=yA, z=zA, y2=yV, z2=zV)


def reverify_violation(instance: ProblemInstance, v: Violation, tol: float = 1e-12) -> bool:
    """Re-evaluate a reported violation from its stored sample; True when
    lhs > rhs + tol still holds."""
    lhs, rhs = evaluate_assumption(instance, v)
    return lhs > rhs + tol


def evaluate_assumption(instance: ProblemInstance, v: Violation) -> tuple:
    """Recompute (lhs, rhs) of one assumption inequality at a stored sample
    by running the falsifier's own check on a batch of one.

    Fields the violation does not store are zeros; its check does not read
    them.  A2 stores the varied point as y2/z2, which rebuilds that same
    point.  A failing evaluation gives NaN, as in the falsifier.
    """
    n, d = instance.n, instance.d

    def row(a, shape):
        return np.zeros((1,) + shape) if a is None else np.reshape(a, (1,) + shape)

    probe = _SiteProbe(v.assumption, v.component)
    falsify = _falsify_structured if instance.generator.kind == STRUCTURED else _falsify_triangular
    with np.errstate(over="ignore"):
        falsify(instance, t=np.array([v.t]), yA=row(v.y, (n,)), yB=row(v.y2, (n,)),
                zA=row(v.z, (n, d)), zB=row(v.z2, (n, d)), rec=probe)
    if probe.found is None:
        raise ValueError(f"no {v.assumption} check for component {v.component} "
                         f"in a {instance.generator.kind} generator")
    return probe.found
