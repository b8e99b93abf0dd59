"""Global constructors (stitching, triangular, frozen-y) and oracles."""

import math
import tracemalloc

import numpy as np
import pytest

import dqbsde as q
from dqbsde import drivers
from dqbsde.drivers import AdaptiveFloorError, match_linear, match_pure_quadratic, match_zero

from conftest import (contraction_config, make, pure_quadratic_config, remark22_config,
                      structured_config, triangular_demo_config)

LNCOSH1 = 0.4337808304830272
HALF_LNCOSH2 = 0.6625013736789322


def linear_config(a, c, N=20, terminal="1", bound=1.0):
    return structured_config(**{
        "grid.N": N, "generator.1.h": f"{a!r}*y1 + {c!r}",
        "terminal.1": terminal, "terminal.bound": bound,
    })


class TestSolveStitched:
    def test_two_chunk_direct_equals_one_pass(self):
        zero_gen = structured_config(**{"grid.N": 50, "terminal.bound": 8.0})
        for cfg in (zero_gen, pure_quadratic_config(N=50)):
            inst, lat = make(cfg)
            one = q.backward_solve(inst, lat)
            two, plan = q.solve_stitched(inst, lat, horizon=0.5, mode="direct")
            assert len(plan.chunks) == 2
            for a, b in zip(one.y + one.z, two.y + two.z):
                assert a.tobytes() == b.tobytes()

    def test_remark22_chunks_within_lambda(self):
        inst, lat = make(remark22_config(N=50))
        field, plan = q.solve_stitched(inst, lat, horizon=0.5, mode="picard",
                                       tol=1e-10)
        cert = q.build_certificate(inst)
        assert plan.within_lambda
        assert all(c.sup_y <= cert.lambda_bound for c in plan.chunks)
        assert q.sup_norm_y(field) == plan.sup_y

    def test_adaptive_halving_logged(self):
        inst, lat = make(pure_quadratic_config(gamma=6.0, N=50))
        field, plan = q.solve_stitched(inst, lat, horizon="adaptive", mode="picard",
                                       tol=1e-10, max_iter=100)
        assert plan.halvings == [(1.0, 0.5)]
        assert [(c.start_layer, c.end_layer) for c in plan.chunks] == [(50, 25), (25, 0)]

    def test_horizon_below_one_layer(self):
        inst, lat = make(pure_quadratic_config(N=10))
        with pytest.raises(ValueError, match="below one layer"):
            q.solve_stitched(inst, lat, horizon=0.01)

    def test_horizon_must_align(self):
        inst, lat = make(pure_quadratic_config(N=10))
        with pytest.raises(ValueError, match="align"):
            q.solve_stitched(inst, lat, horizon=0.25)

    def test_adaptive_floor(self):
        inst, lat = make(pure_quadratic_config(gamma=80.0, N=4))
        with pytest.raises(AdaptiveFloorError):
            q.solve_stitched(inst, lat, horizon="adaptive", mode="picard",
                             tol=1e-10, max_iter=50)


class TestFrozenYContraction:
    def test_beta_zero_single_interval_one_extra_iteration(self):
        inst, lat = make(triangular_demo_config(N=10))
        cfg = contraction_config(N=10, lip_beta=0.0)
        inst, lat = make(cfg)
        sp = q.scalar_problem(inst, lat)
        # driver reads y, so freezing matters; with lip_beta 0 the schedule
        # must still be a single interval
        ys, zs, trace = q.frozen_y_contraction(sp, 0.0, lat, tol=1e-10)
        assert len(trace.sub_intervals) == 1

    def test_y_free_driver_confirms_in_one_extra_iteration(self):
        cfg = structured_config(**{"grid.N": 10, "generator.1.g": "0.5*norm2(z1)",
                                   "terminal.1": "clamp(w1,-1,1)"})
        inst, lat = make(cfg)
        sp = q.scalar_problem(inst, lat)
        ys, zs, trace = q.frozen_y_contraction(sp, 0.0, lat, tol=1e-10)
        assert len(trace.sub_intervals) == 1
        assert len(trace.changes[0]) == 2          # solve, then a zero-change pass
        assert trace.changes[0][1] == 0.0

    def test_schedule_quarter_intervals(self):
        inst, lat = make(contraction_config(N=40, lip_beta=2.0))
        sp = q.scalar_problem(inst, lat)
        ys, zs, trace = q.frozen_y_contraction(sp, 2.0, lat, tol=1e-10)
        assert len(trace.sub_intervals) == 4
        assert all(abs(length - 0.25) < 1e-12 for _, _, length in trace.sub_intervals)

    def test_matches_backward_solve_on_linear_driver(self):
        inst, lat = make(linear_config(-1.0, 0.0, N=10))
        sp = q.scalar_problem(inst, lat)
        ys, _, _ = q.frozen_y_contraction(sp, 1.0, lat, tol=1e-12)
        assert ys[0][0, 0] == pytest.approx((1 + 0.1) ** -10, abs=1e-10)


class TestSolveTriangular:
    def test_zero_terminal_zero_fixed_point(self):
        cfg = triangular_demo_config(terminal1="0", terminal2="0", bound=0.0)
        inst, lat = make(cfg)
        f = q.solve_triangular(inst, lat)
        assert q.sup_norm_y(f) == 0.0
        assert all(np.all(zk == 0.0) for zk in f.z)

    def test_matches_joint_picard(self, triangular_demo_instance):
        inst, lat = triangular_demo_instance
        f = q.solve_triangular(inst, lat, tol=1e-10)
        ref = q.oracle_joint_picard(inst, lat, tight_tol=1e-12)
        assert q.field_sup_diff(f, ref) <= 1e-8

    def test_forward_reference_rejected_before_solving(self):
        cfg = {
            "problem.n": 3, "problem.d": 1, "problem.T": 1.0, "grid.N": 4,
            "generator.kind": "triangular",
            "generator.1.k": "0", "generator.2.k": "norm2(z3)", "generator.3.k": "0",
            "terminal.1": "0", "terminal.2": "0", "terminal.3": "0",
            "terminal.bound": 0.0,
            "params.gamma": 1.0, "params.K": 1.0, "params.delta": 0.0, "params.C0": 1.0,
        }
        with pytest.raises(q.ConfigError, match="component 2 references z3"):
            make(cfg)

    def test_structured_rejected(self):
        inst, lat = make(pure_quadratic_config(N=4))
        with pytest.raises(ValueError, match="triangular"):
            q.solve_triangular(inst, lat)


class TestOraclePureQuadratic:
    def test_constant_terminal_passes_through(self):
        _, lat = make(structured_config(**{"grid.N": 6}))
        term = np.full(7, 0.3)
        y0, layers = q.oracle_pure_quadratic(1.0, term, lat)
        assert y0 == pytest.approx(0.3, rel=1e-14)
        for lv in layers:
            assert np.allclose(lv, 0.3, atol=1e-14)

    def test_one_step_log_cosh(self):
        inst, lat = make(structured_config(**{"terminal.1": "sign(w1)"}))
        term = q.terminal_values(inst, lat)[:, 0]
        y0, _ = q.oracle_pure_quadratic(1.0, term, lat)
        assert y0 == pytest.approx(LNCOSH1, abs=1e-12)
        y0, _ = q.oracle_pure_quadratic(2.0, term, lat)
        assert y0 == pytest.approx(HALF_LNCOSH2, abs=1e-12)

    def test_log_space_guards_overflow(self):
        _, lat = make(structured_config(**{"grid.N": 4}))
        term = np.full(5, 100.0)
        y0, _ = q.oracle_pure_quadratic(8.0, term, lat)  # exp(800) would overflow
        assert y0 == pytest.approx(100.0, rel=1e-12)


class TestOracleLinear:
    def test_exponential_growth(self):
        inst, lat = make(linear_config(1.0, 0.0, N=16))
        term = q.terminal_values(inst, lat)[:, 0]
        layers = q.oracle_linear(1.0, 0.0, term, lat)
        assert layers[0][0] == pytest.approx(math.e, rel=1e-14)

    def test_pure_expectation(self):
        inst, lat = make(structured_config(**{"grid.N": 8, "terminal.1": "w1",
                                              "terminal.bound": 4.0}))
        term = q.terminal_values(inst, lat)[:, 0]
        layers = q.oracle_linear(0.0, 0.0, term, lat)
        assert layers[0][0] == pytest.approx(0.0, abs=1e-15)

    def test_constant_integral(self):
        _, lat = make(structured_config(**{"grid.N": 8}))
        layers = q.oracle_linear(0.0, 1.0, np.zeros(9), lat)
        assert layers[0][0] == pytest.approx(1.0, rel=1e-15)


class TestOracleJointPicard:
    def test_zero_problem(self):
        cfg = structured_config(**{"terminal.1": "0", "terminal.bound": 0.0})
        inst, lat = make(cfg)
        f = q.oracle_joint_picard(inst, lat)
        assert q.sup_norm_y(f) == 0.0

    def test_cross_check_with_backward(self):
        inst, lat = make(pure_quadratic_config(N=40))
        ref = q.oracle_joint_picard(inst, lat, tight_tol=1e-12)
        direct = q.backward_solve(inst, lat, inner_tol=1e-14)
        assert q.field_sup_diff(ref, direct) <= 1e-11


class TestShapeMatchers:
    def test_pure_quadratic_recognized(self):
        gen = q.catalog_generator("pure_quadratic", {"n": 2, "gamma": 1.7})
        assert match_pure_quadratic(gen) == pytest.approx(1.7, rel=1e-15)

    def test_linear_recognized(self):
        gen = q.catalog_generator("linear", {"n": 1, "a": -1.5, "c": 0.25})
        assert match_linear(gen) == (-1.5, 0.25)

    def test_remark22_not_matched(self):
        gen = q.catalog_generator("remark22", {"n": 2, "delta": 0.5})
        assert match_pure_quadratic(gen) is None
        assert match_linear(gen) is None

    def test_zero_recognized(self):
        gen = q.catalog_generator("linear", {"n": 1, "a": 0.0, "c": 0.0})
        assert match_linear(gen) == (0.0, 0.0)
        inst, _ = make(structured_config())
        assert match_zero(inst.generator)


class TestUniquenessEvidence:
    def test_remark22_init_independence(self):
        inst, lat = make(remark22_config(N=30))
        a, _ = q.picard_solve(inst, lat, tol=1e-10)
        b, _ = q.picard_solve(inst, lat, init=q.zero_field(lat, 2).shifted(1.0),
                              tol=1e-10)
        assert q.field_sup_diff(a, b) <= 1e-8


def _live_ratio(solve):
    """Traced peak of ``solve()`` (tracemalloc sees numpy's data buffers)
    over the bytes of the field it returns."""
    tracemalloc.start()
    try:
        result = solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ys, zs = result[:2] if isinstance(result, tuple) else (result.y, result.z)
    return peak / sum(a.nbytes for a in ys + zs)


class TestLiveFields:
    """A fixed-point driver holds one live iterate plus a layer.  Each bound
    sits between the ratio of the one-iterate driver (1.79, 1.78, 1.70,
    1.68) and that of the driver that held a second field (2.93, 2.35, 2.33,
    2.28), so holding the previous iterate whole fails it."""

    def test_picard_solve(self):
        inst, lat = make(remark22_config(N=60))
        assert _live_ratio(lambda: q.picard_solve(inst, lat)[0]) <= 2.3

    @pytest.mark.parametrize("solve", [drivers.oracle_joint_picard, drivers.solve_triangular])
    def test_joint_oracle_and_triangular(self, solve):
        inst, lat = make(triangular_demo_config(N=24)
                         | {"problem.d": 2, "triangular.lipBeta": 2.0})
        assert _live_ratio(lambda: solve(inst, lat)) <= 2.0

    def test_frozen_y_contraction(self):
        inst, lat = make(contraction_config(N=24, lip_beta=0.25)
                         | {"problem.d": 2, "generator.1.k": "0.25*y1 + 0.5*norm2(z1)"})
        problem = drivers.scalar_problem(inst, lat)
        assert _live_ratio(lambda: drivers.frozen_y_contraction(problem, 0.25, lat)) <= 2.0
