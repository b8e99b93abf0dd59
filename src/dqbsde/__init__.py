"""Lattice solver and certificate checker for multidimensional
diagonally quadratic backward stochastic differential equations."""

from .certs import (Certificate, FalsificationReport, Violation, build_certificate,
                    check_log_inequality, check_young_power, compute_bmo_bound_log,
                    compute_c1_lambda, compute_h3_budget, compute_ks_integral,
                    compute_lambda_log, contraction_horizon, exp_moment_bound_log,
                    falsify_assumptions, reverify_violation, scan_log_inequality,
                    scan_young_power)
from .drivers import (frozen_y_contraction, match_linear, match_pure_quadratic, match_zero,
                      oracle_joint_picard, oracle_linear, oracle_pure_quadratic, scalar_problem,
                      solve_stitched, solve_triangular)
from .engine import (LatticeModel, RunTrace, SolutionField, backward_solve, build_lattice,
                     cond_exp, estimate_bmo, log_cond_exp, picard_solve, project,
                     sup_norm_y, terminal_values, zero_field)
from .gendsl import (EvalEnv, EvalError, Expr, GeneratorModel, ParseError,
                     catalog_generator, check_triangular_deps, eval_expr,
                     parse_expr, pretty, scan_refs)
from .model import (AssumptionParams, CoefficientFunction, ConfigError,
                    ProblemInstance, TerminalCondition, TimeGrid, assemble_problem,
                    build_time_grid, parse_breakpoints, read_config_file)

# The CSV writer (csvrows, csvcells) is not imported here: cli compiles it
# only for a command that writes CSV (cli._csvrows).

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
