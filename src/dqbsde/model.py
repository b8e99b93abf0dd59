"""Problem description: time grid, coefficient functions, assumption
parameters, terminal condition, and config-file ingestion.

A problem instance is fully specified by a flat key/value config (see
``assemble_problem``); everything downstream (certificates, solvers,
falsifier) consumes the validated ``ProblemInstance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import gendsl
from .gendsl import Expr, GeneratorModel, ParseError, STRUCTURED, TRIANGULAR


class ConfigError(Exception):
    """Malformed or inconsistent problem configuration."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with N steps; the step size is always
    derived as horizon/N so N*dt cannot drift from the horizon."""

    horizon: float
    steps: int

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def time(self, k: int) -> float:
        return k * self.dt


def build_time_grid(horizon: float, steps: int) -> TimeGrid:
    if steps < 1:
        raise ConfigError(f"grid steps must be >= 1, got {steps}")
    if not math.isfinite(horizon):
        raise ConfigError(f"problem.T must be finite, got {horizon}")
    if horizon < 0:
        raise ConfigError(f"horizon must be >= 0, got {horizon}")
    return TimeGrid(float(horizon), int(steps))


@dataclass(frozen=True)
class CoefficientFunction:
    """Piecewise-constant nonnegative function of time.

    ``breakpoints`` is an ordered tuple of (interval start, value); the
    first start must be 0 and starts must be strictly increasing.  All
    integrals over [0, T] are exact sums, no quadrature.
    """

    breakpoints: tuple

    def __post_init__(self):
        pts = tuple((float(t), float(v)) for t, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if not pts:
            raise ConfigError("coefficient function needs at least one breakpoint")
        if not all(math.isfinite(x) for pt in pts for x in pt):
            raise ConfigError("breakpoints must be finite")
        if pts[0][0] != 0.0:
            raise ConfigError("first breakpoint must start at t=0")
        for (a, va), (b, _) in zip(pts, pts[1:]):
            if b <= a:
                raise ConfigError("breakpoints must be strictly increasing")
        for _, v in pts:
            if v < 0:
                raise ConfigError("coefficient values must be >= 0")

    def value_at(self, t):
        """Value at time(s) t; right-continuous, t may be an array."""
        starts = np.array([p[0] for p in self.breakpoints])
        values = np.array([p[1] for p in self.breakpoints])
        idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(starts) - 1)
        out = values[idx]
        return float(out) if np.ndim(t) == 0 else out

    def integral(self, T: float, transform=None) -> float:
        """Exact integral of transform(value) over [0, T] (identity by default)."""
        total = 0.0
        pts = self.breakpoints
        for i, (start, value) in enumerate(pts):
            if start >= T:
                break
            end = pts[i + 1][0] if i + 1 < len(pts) else T
            end = min(end, T)
            fv = value if transform is None else transform(value)
            total += fv * (end - start)
        return total


@dataclass(frozen=True)
class AssumptionParams:
    """Constants and coefficient functions of the generator growth model.

    gamma: own-row quadratic coefficient (> 0)
    lip_k: Lipschitz/size constant K (>= 0)
    delta: exponent in the coupling Lipschitz weight, in [0, 1)
    alpha, beta, eta: deterministic coefficient functions of time
    c0: budget constant bounding the terminal norm plus coefficient integrals
    power_alpha: growth exponent of the triangular class, in (-1, 1)
    lip_beta: own-component y-Lipschitz constant of the triangular class
    a1_c, a2_c: growth / Lipschitz constants of the triangular class
    xi_bound: declared bound on the terminal value for the triangular class
    """

    gamma: float
    lip_k: float
    delta: float
    alpha: CoefficientFunction
    beta: CoefficientFunction
    eta: CoefficientFunction
    c0: float
    power_alpha: float = 0.0
    lip_beta: float = 0.0
    a1_c: float = 0.0
    a2_c: float = 0.0
    xi_bound: float = 0.0

    def __post_init__(self):
        for nm, key in (("gamma", "params.gamma"), ("lip_k", "params.K"),
                        ("delta", "params.delta"), ("c0", "params.C0"),
                        ("power_alpha", "triangular.powerAlpha"),
                        ("lip_beta", "triangular.lipBeta"), ("a1_c", "triangular.C1"),
                        ("a2_c", "triangular.C2"), ("xi_bound", "triangular.C3")):
            if not math.isfinite(getattr(self, nm)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, nm)}")
        if not self.gamma > 0:
            raise ConfigError(f"params.gamma must be > 0, got {self.gamma}")
        if self.lip_k < 0:
            raise ConfigError(f"params.K must be >= 0, got {self.lip_k}")
        if not (0.0 <= self.delta < 1.0):
            raise ConfigError(f"params.delta must lie in [0,1), got {self.delta}")
        if not self.c0 > 0:
            raise ConfigError(f"params.C0 must be > 0, got {self.c0}")
        if not (-1.0 < self.power_alpha < 1.0):
            raise ConfigError(f"triangular.powerAlpha must lie in (-1,1), got {self.power_alpha}")
        for nm in ("lip_beta", "a1_c", "a2_c", "xi_bound"):
            if getattr(self, nm) < 0:
                raise ConfigError(f"{nm} must be >= 0")


@dataclass(frozen=True)
class TerminalCondition:
    """Per-component terminal expressions of the Brownian endpoint, with a
    declared sup-norm bound that lattice evaluation must respect."""

    exprs: tuple  # tuple[Expr], length n
    declared_bound: float

    def __post_init__(self):
        if not math.isfinite(self.declared_bound):
            raise ConfigError(f"terminal.bound must be finite, got {self.declared_bound}")
        if self.declared_bound < 0:
            raise ConfigError("terminal.bound must be >= 0")


@dataclass(frozen=True)
class ProblemInstance:
    n: int
    d: int
    grid: TimeGrid
    generator: GeneratorModel
    terminal: TerminalCondition
    params: AssumptionParams

    def __post_init__(self):
        if self.generator.n != self.n or self.generator.d != self.d:
            raise ConfigError("generator dimensions do not match problem dimensions")
        if len(self.terminal.exprs) != self.n:
            raise ConfigError("terminal condition must have exactly n components")


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_SCALAR_KEYS = {
    "problem.n", "problem.d", "problem.T", "grid.N", "generator.kind",
    "terminal.bound", "params.gamma", "params.K", "params.delta", "params.C0",
    "params.alpha", "params.beta", "params.eta",
    "triangular.powerAlpha", "triangular.lipBeta",
    "triangular.C1", "triangular.C2", "triangular.C3",
}


def read_config_file(path) -> dict:
    """Read a flat ``key = value`` config file ('#' starts a comment)."""
    config = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in config:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            config[key] = value.strip()
    return config


def parse_breakpoints(text: str) -> CoefficientFunction:
    """Parse a coefficient list of the form ``t0=v0; t1=v1; ...``."""
    pts = []
    for part in str(text).split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad breakpoint {part!r}, expected 't=v'")
        t, v = part.split("=", 1)
        try:
            pts.append((float(t), float(v)))
        except ValueError:
            raise ConfigError(f"bad breakpoint {part!r}: not numeric") from None
    if not pts:
        raise ConfigError(f"empty coefficient list {text!r}")
    return CoefficientFunction(tuple(pts))


def _get(config: Mapping, key: str):
    if key not in config:
        raise ConfigError(f"missing key {key!r}")
    return config[key]


def _get_int(config: Mapping, key: str) -> int:
    raw = _get(config, key)
    try:
        value = int(str(raw))
    except ValueError:
        raise ConfigError(f"key {key!r}: expected integer, got {raw!r}") from None
    return value


def _get_float(config: Mapping, key: str, default: Optional[str] = None) -> float:
    if key not in config and default is not None:
        raw = default
    else:
        raw = _get(config, key)
    try:
        return float(str(raw))
    except ValueError:
        raise ConfigError(f"key {key!r}: expected number, got {raw!r}") from None


def _get_breakpoints(config: Mapping, key: str) -> CoefficientFunction:
    try:
        return parse_breakpoints(config.get(key, "0=0"))
    except ConfigError as err:
        raise ConfigError(f"key {key!r}: {err}") from None


def _parse_dsl(config: Mapping, key: str, n: int, d: int, context: str) -> Expr:
    text = str(_get(config, key))
    try:
        return gendsl.parse_expr(text, n, d, context)
    except ParseError as err:
        raise ConfigError(f"key {key!r}: {err}") from err


def assemble_problem(config: Mapping) -> ProblemInstance:
    """Build and validate a ProblemInstance from a flat key/value mapping.

    Every malformed input maps to a ConfigError naming the offending key;
    expression errors keep their character position.
    """
    config = {str(k): v for k, v in config.items()}
    n = _get_int(config, "problem.n")
    d = _get_int(config, "problem.d")
    if n < 1 or d < 1:
        raise ConfigError(f"problem.n and problem.d must be >= 1, got ({n}, {d})")
    grid = build_time_grid(_get_float(config, "problem.T"), _get_int(config, "grid.N"))

    kind = str(_get(config, "generator.kind"))
    if kind not in (STRUCTURED, TRIANGULAR):
        raise ConfigError(f"generator.kind must be 'structured' or 'triangular', got {kind!r}")

    expected = set(_SCALAR_KEYS)
    for i in range(1, n + 1):
        expected.add(f"terminal.{i}")
        if kind == STRUCTURED:
            expected.add(f"generator.{i}.g")
            expected.add(f"generator.{i}.h")
        else:
            expected.add(f"generator.{i}.k")
    unknown = sorted(set(config) - expected)
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")

    if kind == STRUCTURED:
        g, h = [], []
        for i in range(1, n + 1):
            gi = _parse_dsl(config, f"generator.{i}.g", n, d, gendsl.GENERATOR)
            refs = gendsl.scan_refs(gi.root)
            if refs.y_indices or refs.uses_normy or refs.uses_normz or refs.z_indices - {i}:
                raise ConfigError(
                    f"generator.{i}.g may depend only on t and its own row z{i}")
            g.append(gi)
            h.append(_parse_dsl(config, f"generator.{i}.h", n, d, gendsl.GENERATOR))
        generator = GeneratorModel(STRUCTURED, n, d, g=tuple(g), h=tuple(h))
    else:
        k = tuple(_parse_dsl(config, f"generator.{i}.k", n, d, gendsl.GENERATOR)
                  for i in range(1, n + 1))
        generator = GeneratorModel(TRIANGULAR, n, d, k=k)
        violations = gendsl.check_triangular_deps(generator)
        if violations:
            msgs = "; ".join(f"component {v.component} references {v.name}" for v in violations)
            raise ConfigError(f"triangular dependency violation: {msgs}")

    terminal = TerminalCondition(
        exprs=tuple(_parse_dsl(config, f"terminal.{i}", n, d, gendsl.TERMINAL)
                    for i in range(1, n + 1)),
        declared_bound=_get_float(config, "terminal.bound"),
    )

    params = AssumptionParams(
        gamma=_get_float(config, "params.gamma"),
        lip_k=_get_float(config, "params.K"),
        delta=_get_float(config, "params.delta"),
        alpha=_get_breakpoints(config, "params.alpha"),
        beta=_get_breakpoints(config, "params.beta"),
        eta=_get_breakpoints(config, "params.eta"),
        c0=_get_float(config, "params.C0"),
        power_alpha=_get_float(config, "triangular.powerAlpha", "0"),
        lip_beta=_get_float(config, "triangular.lipBeta", "0"),
        a1_c=_get_float(config, "triangular.C1", "0"),
        a2_c=_get_float(config, "triangular.C2", "0"),
        xi_bound=_get_float(config, "triangular.C3", repr(terminal.declared_bound)),
    )

    return ProblemInstance(n=n, d=d, grid=grid, generator=generator,
                           terminal=terminal, params=params)
