"""The package's public names.

``dqbsde.__all__`` is every name ``__init__`` imports, so a public name added
or dropped anywhere changes it; this list makes that change show in review.
"""

import dqbsde as q

PUBLIC_NAMES = [
    # submodules
    "certs", "drivers", "engine", "gendsl", "model",
    # certs
    "Certificate", "FalsificationReport", "Violation", "build_certificate",
    "check_log_inequality", "check_young_power", "compute_bmo_bound_log",
    "compute_c1_lambda", "compute_h3_budget", "compute_ks_integral",
    "compute_lambda_log", "contraction_horizon", "exp_moment_bound_log",
    "falsify_assumptions", "reverify_violation", "scan_log_inequality",
    "scan_young_power",
    # drivers
    "frozen_y_contraction", "match_linear", "match_pure_quadratic", "match_zero",
    "oracle_joint_picard", "oracle_linear", "oracle_pure_quadratic", "scalar_problem",
    "solve_stitched", "solve_triangular",
    # engine
    "LatticeModel", "RunTrace", "SolutionField", "backward_solve", "build_lattice", "cond_exp",
    "estimate_bmo", "log_cond_exp", "picard_solve", "project", "sup_norm_y",
    "terminal_values", "zero_field",
    # gendsl
    "EvalEnv", "EvalError", "Expr", "GeneratorModel", "ParseError",
    "check_triangular_deps", "eval_expr", "parse_expr", "pretty", "scan_refs",
    # model
    "AssumptionParams", "CoefficientFunction", "ConfigError", "ProblemInstance",
    "TerminalCondition", "TimeGrid", "assemble_problem", "build_time_grid",
    "parse_breakpoints", "read_config_file",
]


def test_public_names_are_pinned():
    assert sorted(q.__all__) == sorted(PUBLIC_NAMES)
