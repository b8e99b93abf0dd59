"""Command-line front end.

Subcommands: certify, check, solve, compare, converge.  All outputs are
flat ``key = value`` reports plus CSV artifacts with fixed names under
--out, byte-identical across runs for the same config and seed.

Exit codes: 0 success, 1 usage, 2 config/parse error, 3 solver
nonconvergence, 4 strict budget/assumption failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import certs, drivers, engine
from .gendsl import ParseError
from .model import ConfigError, ProblemInstance, assemble_problem, build_time_grid, read_config_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_STRICT = 4

RESIDUAL_SLACK = -1e-9

class UsageError(Exception):
    pass


class StrictFailure(Exception):
    pass


# A value of these options may start with '-' and a digit or '.', as in
# ``--alphas -0.5,0.3`` or ``--xrange -1:1:5``.  argparse would take it for an
# option, so each such pair is joined into ``--alphas=-0.5,0.3`` first (the
# arguments are matched with a NUL before each, which no argument contains).
_SIGNED_PAIR = re.compile(r"(\0--(alphas|[xyclez]range))\0(?=-[0-9.])")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        text = "".join("\0" + a for a in (sys.argv[1:] if args is None else args))
        return super().parse_known_args(_SIGNED_PAIR.sub(r"\1=", text).split("\0")[1:], namespace)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(float(value))
    return str(value)


def _write_report(path: Path, pairs) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{key} = {_fmt(value)}" for key, value in pairs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csvrows():
    """The CSV writer (``csvrows`` and ``csvcells``), compiled only by a
    command that writes CSV, before its solve or scan.  Compiled with the
    package, it raised the peak RSS of falsify-r22, which writes no CSV, by
    about 0.3 MB at most checkout name lengths; compiled after the solve,
    it raised direct-r22's by 0.2 MB."""
    from . import csvrows
    return csvrows


def _write_csv(path: Path, header, chunks) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(chunks)


def _parse_range(text: str, name: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--{name} must be LO:HI:COUNT, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"--{name}: bad numbers in {text!r}") from None


def _load_instance(args) -> ProblemInstance:
    if not args.config:
        raise ConfigError("--config is required for this subcommand")
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return assemble_problem(read_config_file(path))


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def cmd_certify(args) -> int:
    instance = _load_instance(args)
    cert = certs.build_certificate(instance)
    pairs = [
        ("c1", cert.c1),
        ("lambda", cert.lambda_bound),
        ("lambdaLog", cert.lambda_log),
        ("ksIntegral", cert.ks_integral),
        ("h3Budget", cert.h3_budget),
        ("h3Satisfied", cert.h3_satisfied),
        ("bmoBoundLog", cert.bmo_bound_log),
        ("contractionHorizon", cert.contraction_horizon),
    ]
    if args.falsify:
        report = certs.falsify_assumptions(instance, seed=args.seed, count=args.falsify)
        pairs += [
            ("falsifierSamples", report.sample_count),
            ("falsifierViolations", report.violation_count),
            ("falsifierDomainErrors", len(report.domain_errors)),
            ("falsifierClean", report.clean),
        ]
    _write_report(Path(args.out) / "certificate.txt", pairs)
    if args.strict and not cert.h3_satisfied:
        raise StrictFailure(
            f"budget {cert.h3_budget} exceeds C0 = {instance.params.c0}")
    if args.strict and args.falsify and not report.clean:
        raise StrictFailure(f"falsifier found {report.violation_count} violation(s)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _scan_budget(counts, max_nodes: int) -> None:
    """Refuse a scan of more cells than --max-nodes before any array is made."""
    cells = math.prod(max(count, 0) for count in counts)
    if cells > max_nodes:
        raise engine.NodeBudgetError(f"check scan needs {cells} cells, budget is {max_nodes}")


def cmd_check(args) -> int:
    csvrows = _csvrows()
    out = Path(args.out) / "check.csv"
    if args.inequality == "log":
        axes = [_parse_range(getattr(args, name), name) for name in ("xrange", "yrange", "crange")]
        _scan_budget([count for _, _, count in axes], args.max_nodes)
        scan = certs.scan_log_inequality(*axes)
        X, Y, C = np.meshgrid(scan.xs, scan.ys, scan.cs, indexing="ij", sparse=True)
        _write_csv(out, ("x", "y", "C", "residual"),
                   csvrows.float_rows(X, Y, C, scan.residuals))
        print(f"minResidual = {_fmt(scan.min_residual)} at "
              f"x={_fmt(scan.argmin[0])} y={_fmt(scan.argmin[1])} C={_fmt(scan.argmin[2])}")
        print(f"stationarityResidual = {_fmt(scan.stationarity_residual)}")
        print(f"argminCellOffset = {scan.max_argmin_cell_offset}")
        return EXIT_OK if scan.min_residual >= RESIDUAL_SLACK else EXIT_STRICT
    alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    axes = [_parse_range(getattr(args, name), name) for name in ("lrange", "erange", "zrange")]
    _scan_budget([len(alphas)] + [count for _, _, count in axes], args.max_nodes)
    scan = certs.scan_young_power(alphas, *axes)
    A, L, E, Z = np.meshgrid(scan.alphas, scan.ls, scan.es, scan.zs, indexing="ij", sparse=True)
    _write_csv(out, ("L", "alpha", "eps", "z", "residual"),
               csvrows.float_rows(L, A, E, Z, scan.residuals))
    print(f"minResidual = {_fmt(scan.min_residual)} at "
          f"L={_fmt(scan.argmin[0])} alpha={_fmt(scan.argmin[1])} "
          f"eps={_fmt(scan.argmin[2])} z={_fmt(scan.argmin[3])}")
    return EXIT_OK if scan.min_residual >= RESIDUAL_SLACK else EXIT_STRICT


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _solution_csv(path: Path, field: engine.SolutionField):
    n, d = field.n, field.lattice.d
    header = (["layer", "nodeIndex", "t"]
              + [f"W_{j}" for j in range(1, d + 1)]
              + [f"Y_{i}" for i in range(1, n + 1)]
              + [f"Z_{i}{j}" for i in range(1, n + 1) for j in range(1, d + 1)])
    _write_csv(path, header, _csvrows().solution_rows(field))


def _solve(args, instance: ProblemInstance, lattice: engine.LatticeModel) -> engine.SolutionField:
    """The solve that ``--mode`` names, for ``solve`` and ``compare``."""
    if args.mode == "direct":
        return engine.backward_solve(instance, lattice, inner_tol=args.inner_tol,
                                     inner_max_iter=args.max_iter,
                                     z_truncation=getattr(args, "z_truncation", None))
    if args.mode == "picard":
        return engine.picard_solve(instance, lattice, tol=args.tol, max_iter=args.max_iter)[0]
    if args.mode == "stitched":
        return drivers.solve_stitched(
            instance, lattice, tol=args.tol, max_iter=args.max_iter,
            horizon=args.horizon if args.horizon == "adaptive" else float(args.horizon))[0]
    return drivers.solve_triangular(instance, lattice, tol=args.tol, max_outer=args.max_iter)


def cmd_solve(args) -> int:
    _csvrows()
    instance = _load_instance(args)
    lattice = engine.build_lattice(instance.grid, instance.d, max_nodes=args.max_nodes)
    cert = certs.build_certificate(instance)
    out = Path(args.out)
    pairs = [("mode", args.mode), ("threads", args.threads)]
    try:
        field = _solve(args, instance, lattice)
    except engine.SolverError as err:
        pairs.append(("converged", False))
        for i, change in enumerate(getattr(err, "trace", [])):
            pairs.append((f"trace.{i}", change))
        _write_report(out / "report.txt", pairs)
        raise

    trace = field.trace
    sup_y = engine.sup_norm_y(field.y)
    bmo = engine.estimate_bmo(field)
    bmo_log = math.log(bmo ** 2) if bmo > 0 else -math.inf
    pairs += [
        ("converged", True),
        ("iterations", trace.inner_iterations + sum(map(len, trace.changes))),
        ("supY", sup_y),
        ("lambda", cert.lambda_bound),
        ("supYWithinLambda", sup_y <= cert.lambda_bound),
        ("bmoEstimate", bmo),
        ("bmoEstimateSquaredLog", bmo_log),
        ("bmoBoundLog", cert.bmo_bound_log),
        ("bmoWithinBound", bmo_log <= cert.bmo_bound_log),
        ("zClips", trace.z_clips),
    ]
    if args.mode == "stitched":
        for idx, chunk in enumerate(trace.chunks):
            rows = lattice.rows(chunk.end_layer, chunk.start_layer + 1)
            pairs += [
                (f"chunk.{idx}.startLayer", chunk.start_layer),
                (f"chunk.{idx}.endLayer", chunk.end_layer),
                (f"chunk.{idx}.iterations", len(chunk.changes)),
                (f"chunk.{idx}.finalChange", chunk.changes[-1]),
                (f"chunk.{idx}.supY", engine.sup_norm_y(field.y[rows])),
            ]
        for idx, halving in enumerate(trace.halvings):
            pairs.append((f"halving.{idx}", f"{_fmt(halving.before)} -> {_fmt(halving.after)}"))
    elif args.mode == "triangular":
        outer = [len(c) for c in trace.changes]
        per = len(outer) // instance.n  # every component marches the same sub-intervals
        for i in range(instance.n):
            pairs.append((f"component.{i + 1}.outerIterations", sum(outer[i * per:][:per])))
    _write_report(out / "report.txt", pairs)
    _solution_csv(out / "solution.csv", field)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    instance = _load_instance(args)
    lattice = engine.build_lattice(instance.grid, instance.d, max_nodes=args.max_nodes)
    gen = instance.generator

    if args.oracle == "pure_quadratic":
        gamma = drivers.match_pure_quadratic(gen)
        if gamma is None or instance.n != 1:
            raise ConfigError("pure_quadratic oracle needs a scalar driver of "
                              "the form c*norm2(z1) with h = 0")
        term = engine.terminal_values(instance, lattice)[:, 0]
        oracle_y = drivers.oracle_pure_quadratic(gamma, term, lattice)[1][:, None]
    elif args.oracle == "linear":
        shape = drivers.match_linear(gen)
        if shape is None or instance.n != 1:
            raise ConfigError("linear oracle needs a scalar driver of the form "
                              "a*y1 + c with g = 0")
        term = engine.terminal_values(instance, lattice)[:, 0]
        oracle_y = drivers.oracle_linear(shape[0], shape[1], term, lattice)[:, None]
    else:  # joint
        oracle_y = drivers.oracle_joint_picard(instance, lattice,
                                               tight_tol=args.tol / 100.0).y

    field = _solve(args, instance, lattice)

    max_diff, at_layer, at_node = 0.0, 0, 0
    for k in range(lattice.grid.steps + 1):
        rows = lattice.rows(k)
        diff = abs(field.y[rows] - oracle_y[rows]).max(axis=-1)
        node = int(np.argmax(diff))
        if float(diff[node]) >= max_diff:
            max_diff, at_layer, at_node = float(diff[node]), k, node
    within = max_diff <= args.tolerance
    _write_report(Path(args.out) / "compare.txt", [
        ("oracle", args.oracle),
        ("mode", args.mode),
        ("maxAbsDiff", max_diff),
        ("atLayer", at_layer),
        ("atNode", at_node),
        ("tolerance", args.tolerance),
        ("withinTolerance", within),
    ])
    return EXIT_OK if within else EXIT_NONCONVERGENCE


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def cmd_converge(args) -> int:
    instance = _load_instance(args)
    try:
        n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"--n-list: bad integers in {args.n_list!r}") from None
    if len(n_list) < 3 or n_list[0] < 1 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("--n-list must be ascending from >= 1 with at least 3 entries")
    if instance.n != 1:
        raise ConfigError("convergence study needs a scalar instance")

    gamma = drivers.match_pure_quadratic(instance.generator)
    is_zero = drivers.match_zero(instance.generator)
    if gamma is None and not is_zero:
        raise ConfigError("convergence reference needs a pure-quadratic or zero driver")

    n_ref = 8 * max(n_list)
    ref_grid = build_time_grid(instance.grid.horizon, n_ref)
    ref_lattice = engine.build_lattice(ref_grid, instance.d, max_nodes=args.max_nodes)
    ref_instance = replace(instance, grid=ref_grid)
    ref_term = engine.terminal_values(ref_instance, ref_lattice)[:, 0]
    if is_zero:
        reference = float(drivers.oracle_linear(0.0, 0.0, ref_term, ref_lattice)[0])
    else:
        reference, _ = drivers.oracle_pure_quadratic(gamma, ref_term, ref_lattice)

    rows = []
    errors = []
    dts = []
    for N in n_list:
        grid = build_time_grid(instance.grid.horizon, N)
        lattice = engine.build_lattice(grid, instance.d, max_nodes=args.max_nodes)
        inst_n = replace(instance, grid=grid)
        field = engine.backward_solve(inst_n, lattice, inner_tol=args.inner_tol)
        y0 = float(field.y[0, 0])
        err = abs(y0 - reference)
        rows.append(f"{N},{grid.dt!r},{y0!r},{err!r}\n".encode())
        errors.append(err)
        dts.append(grid.dt)
    _write_csv(Path(args.out) / "converge.csv", ("N", "dt", "y0", "error"), rows)

    print(f"reference = {_fmt(reference)}")
    if max(errors) < 1e-14:
        print("slope = exact (errors below 1e-14, slope test skipped)")
        return EXIT_OK
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    print(f"slope = {_fmt(slope)}")
    return EXIT_OK if slope >= 0.8 else EXIT_NONCONVERGENCE


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None)
    common.add_argument("--out", metavar="DIR", default="out")
    common.add_argument("--strict", action="store_true")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--max-nodes", type=int, default=engine.DEFAULT_NODE_BUDGET)
    solver = _Parser(add_help=False)
    solver.add_argument("--tol", type=float, default=1e-10)
    solver.add_argument("--max-iter", type=int, default=200)
    solver.add_argument("--inner-tol", type=float, default=1e-12)

    parser = _Parser(prog="dqbsde",
                     description="Diagonally quadratic BSDE lattice solver and certifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", parents=[common],
                       help="compute closed-form certificates")
    p.add_argument("--falsify", type=int, default=0, metavar="COUNT",
                   help="also run the assumption falsifier with COUNT samples")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("check", parents=[common],
                       help="scan the certified inequalities on a grid")
    p.add_argument("--inequality", choices=("log", "young"), default="log")
    p.add_argument("--xrange", default="1e-6:1e6:60")
    p.add_argument("--yrange", default="1e-6:1e6:60")
    p.add_argument("--crange", default="1e-6:1e6:60")
    p.add_argument("--alphas", default="0,0.25,0.5,0.9")
    p.add_argument("--lrange", default="1e-2:1e2:12")
    p.add_argument("--erange", default="1e-2:1e2:12")
    p.add_argument("--zrange", default="1e-2:1e2:12")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", parents=[common, solver], help="solve the instance")
    p.add_argument("--mode", choices=("direct", "picard", "stitched", "triangular"),
                   default="direct")
    p.add_argument("--horizon", default="adaptive",
                   help="stitched chunk length in time units, or 'adaptive'")
    p.add_argument("--z-truncation", type=float, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", parents=[common, solver],
                       help="compare a solve against a reference oracle")
    p.add_argument("--oracle", choices=("pure_quadratic", "linear", "joint"),
                   required=True)
    p.add_argument("--mode", choices=("direct", "picard", "triangular"),
                   default="direct")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("converge", parents=[common],
                       help="empirical convergence order study")
    p.add_argument("--n-list", default="25,50,100,200")
    p.add_argument("--inner-tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for name, low in (("threads", 1), ("max_nodes", 1), ("falsify", 0), ("max_iter", 1),
                          ("tol", 0), ("inner_tol", 0), ("z_truncation", 0), ("tolerance", 0)):
            value = getattr(args, name, None)
            if value is not None and not value >= low:  # NaN is not >= low
                raise UsageError(f"--{name.replace('_', '-')} must be >= {low}")
        if getattr(args, "z_truncation", None) is not None and args.mode != "direct":
            raise UsageError("--z-truncation needs --mode direct")
        if not 0 <= args.seed < 2 ** 64:
            raise UsageError("--seed must fit in an unsigned 64-bit integer")
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ParseError, ValueError, engine.NodeBudgetError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except engine.SolverError as err:  # Picard failures and AdaptiveFloorError included
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except StrictFailure as err:
        print(f"strict check failed: {err}", file=sys.stderr)
        return EXIT_STRICT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
