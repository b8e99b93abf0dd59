"""Domain types, coefficient functions, and config ingestion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqbsde as q
from dqbsde.model import ConfigError

from conftest import structured_config, triangular_demo_config


class TestTimeGrid:
    def test_basic_step(self):
        grid = q.build_time_grid(1.0, 4)
        assert grid.dt == 0.25

    def test_degenerate_horizon(self):
        grid = q.build_time_grid(0.0, 1)
        assert grid.dt == 0.0

    def test_derived_step_consistency(self):
        grid = q.build_time_grid(2.0, 3)
        assert grid.steps * grid.dt == pytest.approx(2.0, abs=math.ulp(2.0))

    @given(st.floats(min_value=1e-6, max_value=1e6), st.integers(1, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_n_times_dt_within_one_ulp(self, horizon, steps):
        grid = q.build_time_grid(horizon, steps)
        assert abs(grid.steps * grid.dt - horizon) <= math.ulp(horizon)

    def test_errors(self):
        with pytest.raises(ConfigError):
            q.build_time_grid(1.0, 0)
        with pytest.raises(ConfigError):
            q.build_time_grid(-1.0, 4)


class TestCoefficientFunction:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            q.CoefficientFunction(((0.5, 1.0),))      # must start at 0
        with pytest.raises(ConfigError):
            q.CoefficientFunction(((0.0, 1.0), (0.0, 2.0)))  # strictly increasing
        with pytest.raises(ConfigError):
            q.CoefficientFunction(((0.0, -1.0),))     # nonnegative values

    def test_value_lookup(self):
        f = q.CoefficientFunction(((0.0, 1.0), (0.5, 3.0)))
        assert f.value_at(0.0) == 1.0
        assert f.value_at(0.49) == 1.0
        assert f.value_at(0.5) == 3.0
        assert np.array_equal(f.value_at(np.array([0.1, 0.9])), [1.0, 3.0])

    def test_integral_matches_refined_riemann_sum(self):
        f = q.CoefficientFunction(((0.0, 1.0), (0.3, 0.5), (0.7, 2.0)))
        T = 1.1
        exact = f.integral(T)
        # split every constant piece into 10 subcells and sum value * width
        starts = [p[0] for p in f.breakpoints] + [T]
        riemann = 0.0
        for a, b in zip(starts, starts[1:]):
            width = (min(b, T) - a) / 10.0
            for j in range(10):
                riemann += f.value_at(a + (j + 0.5) * width) * width
        assert abs(exact - riemann) <= 1e-12

    def test_transformed_integral(self):
        f = q.CoefficientFunction(((0.0, 1.0),))
        got = f.integral(1.0, transform=lambda v: v * math.log1p(v))
        assert got == pytest.approx(math.log(2.0), rel=1e-15)

    def test_integral_stops_at_horizon(self):
        f = q.CoefficientFunction(((0.0, 1.0), (2.0, 100.0)))
        assert f.integral(1.0) == 1.0


class TestAssembleProblem:
    def test_valid_structured(self):
        cfg = structured_config(**{
            "problem.n": 2,
            "generator.1.g": "0.5*norm2(z1)", "generator.1.h": "y2",
            "generator.2.g": "0.5*norm2(z2)", "generator.2.h": "y1",
            "terminal.1": "w1", "terminal.2": "0",
        })
        inst = q.assemble_problem(cfg)
        assert inst.n == 2 and len(inst.generator.g) == 2

    def test_triangular_dependency_violation(self):
        cfg = {
            "problem.n": 3, "problem.d": 1, "problem.T": 1.0, "grid.N": 2,
            "generator.kind": "triangular",
            "generator.1.k": "0.5*norm2(z1)",
            "generator.2.k": "norm2(z3)",
            "generator.3.k": "y1",
            "terminal.1": "0", "terminal.2": "0", "terminal.3": "0",
            "terminal.bound": 0.0,
            "params.gamma": 1.0, "params.K": 1.0, "params.delta": 0.0, "params.C0": 1.0,
        }
        with pytest.raises(ConfigError, match="component 2 references z3"):
            q.assemble_problem(cfg)

    def test_delta_range(self):
        with pytest.raises(ConfigError, match="delta"):
            q.assemble_problem(structured_config(**{"params.delta": 1.0}))

    def test_missing_key_named(self):
        cfg = structured_config()
        del cfg["params.gamma"]
        with pytest.raises(ConfigError, match="params.gamma"):
            q.assemble_problem(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="params.gamm"):
            q.assemble_problem(structured_config(**{"params.gamm": 1.0}))

    def test_parse_error_carries_key_and_position(self):
        with pytest.raises(ConfigError, match=r"generator\.1\.h.*position"):
            q.assemble_problem(structured_config(**{"generator.1.h": "log("}))

    def test_own_row_restriction_on_g(self):
        for bad in ("normz", "y1", "norm2(z2)"):
            cfg = structured_config(**{"problem.n": 2, "generator.1.g": bad,
                                       "generator.2.g": "0", "generator.2.h": "0",
                                       "terminal.2": "0"})
            with pytest.raises(ConfigError, match="own row"):
                q.assemble_problem(cfg)

    def test_bad_numbers(self):
        with pytest.raises(ConfigError, match="problem.n"):
            q.assemble_problem(structured_config(**{"problem.n": "two"}))
        with pytest.raises(ConfigError, match="params.K"):
            q.assemble_problem(structured_config(**{"params.K": "much"}))

    def test_kind_uniformity(self):
        cfg = structured_config(**{"generator.1.k": "0"})
        with pytest.raises(ConfigError, match="unknown key"):
            q.assemble_problem(cfg)

    def test_triangular_defaults(self):
        inst = q.assemble_problem(triangular_demo_config())
        assert inst.params.lip_beta == 0.0
        assert inst.params.xi_bound == 1.0

    def test_omitted_optional_keys_read_as_zero(self):
        stated = structured_config(**{
            "params.alpha": "0=0", "params.beta": "0=0", "params.eta": "0=0",
            "triangular.powerAlpha": 0, "triangular.lipBeta": 0,
            "triangular.C1": 0, "triangular.C2": 0})
        assert q.assemble_problem(structured_config()).params == \
            q.assemble_problem(stated).params

    def test_breakpoint_parsing(self):
        f = q.parse_breakpoints("0=1; 0.5=2.5")
        assert f.breakpoints == ((0.0, 1.0), (0.5, 2.5))
        with pytest.raises(ConfigError):
            q.parse_breakpoints("0:1")
        with pytest.raises(ConfigError):
            q.parse_breakpoints("0=x")


class TestNonFiniteNumbers:
    """NaN and +-inf fail validation in every numeric key: a range check
    written ``x < 0`` lets NaN through, and an infinite horizon or constant
    only fails later, inside a solve or a certificate."""

    FLOAT_KEYS = ("problem.T", "terminal.bound", "params.gamma", "params.K", "params.delta",
                  "params.C0", "triangular.powerAlpha", "triangular.lipBeta", "triangular.C1",
                  "triangular.C2", "triangular.C3")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_float_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be finite, got {value}$"):
            q.assemble_problem(triangular_demo_config(N=4) | {key: value})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["problem.n", "problem.d", "grid.N"])
    def test_integer_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^key '{key}': expected integer"):
            q.assemble_problem(structured_config(**{key: value}))

    @pytest.mark.parametrize("text", ["0=nan", "0=inf", "0=-inf", "0=1; nan=2", "0=1; inf=2"])
    @pytest.mark.parametrize("key", ["params.alpha", "params.beta", "params.eta"])
    def test_coefficient_key(self, key, text):
        with pytest.raises(ConfigError, match=f"^key '{key}': breakpoints must be finite$"):
            q.assemble_problem(structured_config(**{key: text}))

    def test_constructors(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="^problem.T must be finite"):
                q.build_time_grid(bad, 4)
            with pytest.raises(ConfigError, match="^breakpoints must be finite$"):
                q.CoefficientFunction(((0.0, 1.0), (bad, 2.0)))
            with pytest.raises(ConfigError, match="^terminal.bound must be finite"):
                q.TerminalCondition((), bad)

    def test_range_messages(self):
        with pytest.raises(ConfigError, match="^problem.T must be >= 0, got -1.0$"):
            q.build_time_grid(-1.0, 4)
        with pytest.raises(ConfigError, match="^params.gamma must be > 0, got 0.0$"):
            q.assemble_problem(structured_config(**{"params.gamma": 0.0}))
        with pytest.raises(ConfigError, match="^key 'params.alpha': coefficient values must be"):
            q.assemble_problem(structured_config(**{"params.alpha": "0=-1"}))

    @pytest.mark.parametrize("key", ["triangular.lipBeta", "triangular.C1", "triangular.C2",
                                     "triangular.C3"])
    def test_triangular_range_names_the_key(self, key):
        with pytest.raises(ConfigError, match=f"^{key} must be >= 0, got -1.0$"):
            q.assemble_problem(triangular_demo_config() | {key: -1.0})

    def test_grid_steps_name_the_key(self):
        with pytest.raises(ConfigError, match="^grid.N must be >= 1, got 0$"):
            q.assemble_problem(structured_config(**{"grid.N": 0}))


class TestConfigFile(object):
    def test_round_trip(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nproblem.n = 1\n\nparams.alpha = 0=1; 2=3 # tail\n")
        cfg = q.read_config_file(p)
        assert cfg == {"problem.n": "1", "params.alpha": "0=1; 2=3"}

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("problem.n 1\n")
        with pytest.raises(ConfigError, match=":1:"):
            q.read_config_file(p)

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a = 1\na = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            q.read_config_file(p)
