"""Lattice construction, projection, and the two core solvers."""

import math

import numpy as np
import pytest

import dqbsde as q
from dqbsde.engine import (InnerNonconvergenceError, NodeBudgetError,
                           PicardDivergenceError, SolverError, backward_range,
                           compile_driver)

from dqbsde.gendsl import STRUCTURED, GeneratorModel

from conftest import make, pure_quadratic_config, remark22_config, structured_config


class TestLattice:
    def test_layer_sizes_d1(self):
        _, lat = make(structured_config(**{"grid.N": 2}))
        assert [lat.layer_size(k) for k in range(3)] == [1, 2, 3]

    def test_layer_sizes_d2(self):
        cfg = structured_config(**{"problem.d": 2, "terminal.1": "w2"})
        _, lat = make(cfg)
        assert [lat.layer_size(k) for k in range(2)] == [1, 4]

    def test_child_weights_sum_to_one(self):
        for d in (1, 2, 3):
            grid = q.build_time_grid(1.0, 2)
            lat = q.build_lattice(grid, d)
            assert lat.child_weight * 2 ** d == 1.0

    def test_root_is_origin(self):
        grid = q.build_time_grid(1.0, 3)
        lat = q.build_lattice(grid, 2)
        assert np.array_equal(lat.brownian(0), np.zeros((1, 2)))

    def test_brownian_values(self):
        grid = q.build_time_grid(1.0, 1)
        lat = q.build_lattice(grid, 1)
        assert np.array_equal(lat.brownian(1), [[-1.0], [1.0]])

    def test_node_budget(self):
        grid = q.build_time_grid(1.0, 100)
        with pytest.raises(NodeBudgetError):
            q.build_lattice(grid, 3, max_nodes=1000)

    def test_lexicographic_up_counts(self):
        grid = q.build_time_grid(1.0, 1)
        lat = q.build_lattice(grid, 2)
        assert lat.up_counts(1).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


class TestProject:
    def test_one_step_martingale_representation(self):
        grid = q.build_time_grid(1.0, 1)
        lat = q.build_lattice(grid, 1)
        # node 0 is the down child (W = -1), node 1 the up child (W = +1)
        expectation, z = q.project(lat, 0, np.array([-1.0, 1.0]))
        assert expectation[0] == 0.0
        assert z[0, 0] == 1.0

    def test_constant_children(self):
        grid = q.build_time_grid(1.0, 2)
        lat = q.build_lattice(grid, 1)
        expectation, z = q.project(lat, 1, np.full(3, 4.25))
        assert np.all(expectation == 4.25)
        assert np.all(z == 0.0)

    def test_d2_first_component_sign(self):
        grid = q.build_time_grid(1.0, 1)
        lat = q.build_lattice(grid, 2)
        child = 2.0 * lat.up_counts(1)[:, 0] - 1.0  # sign of the first increment
        expectation, z = q.project(lat, 0, child)
        assert expectation[0] == 0.0
        assert np.allclose(z[0], [1.0, 0.0])

    def test_tower_property(self):
        grid = q.build_time_grid(1.0, 4)
        lat = q.build_lattice(grid, 2)
        rng = np.random.default_rng(5)
        values = rng.normal(size=lat.layer_size(3))
        two_step = q.cond_exp(lat, 1, q.cond_exp(lat, 2, values))
        # direct sum over the 4^d grandchildren with weight 4^-d
        direct = np.zeros(lat.layer_size(1))
        u1 = lat.up_counts(1)
        u3 = lat.up_counts(3)
        g = values.reshape(4, 4)
        for idx, u in enumerate(u1):
            total = 0.0
            for e1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
                for e2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    v = u + np.array(e1) + np.array(e2)
                    total += g[v[0], v[1]] / 16.0
            direct[idx] = total
        assert np.allclose(two_step, direct, atol=1e-14, rtol=0)

    def test_zero_step_grid_rejected(self):
        _, lat = make(structured_config(**{"problem.T": 0.0}))
        with pytest.raises(ValueError, match="dt = 0"):
            q.project(lat, 0, np.zeros(2))

    def test_layer_out_of_range(self):
        _, lat = make(structured_config(**{"grid.N": 2}))
        with pytest.raises(ValueError, match="out of range"):
            q.project(lat, 2, np.zeros(3))


class TestBackwardSolve:
    def test_brownian_terminal(self):
        inst, lat = make(structured_config())
        f = q.backward_solve(inst, lat)
        assert f.y[0][0, 0] == 0.0
        assert all(np.all(zk == 1.0) for zk in f.z)

    def test_linear_decay_recursion(self):
        cfg = structured_config(**{"grid.N": 10, "generator.1.h": "-1.0*y1 + 0.0",
                                   "terminal.1": "1", "terminal.bound": 1.0})
        inst, lat = make(cfg)
        f = q.backward_solve(inst, lat, inner_tol=1e-15)
        assert f.y[0][0, 0] == pytest.approx((1 + 0.1) ** -10, abs=1e-12)

    def test_constant_solution(self):
        cfg = structured_config(**{"grid.N": 8, "generator.1.h": "y1 - 1.0",
                                   "terminal.1": "1", "terminal.bound": 1.0})
        inst, lat = make(cfg)
        f = q.backward_solve(inst, lat, inner_tol=1e-15)
        for yk in f.y:
            assert np.allclose(yk, 1.0, atol=1e-12)
        for zk in f.z:
            assert np.allclose(zk, 0.0, atol=1e-12)

    def test_martingale_identity_for_zero_generator(self):
        cfg = structured_config(**{"grid.N": 6, "terminal.1": "sin(w1)"})
        inst, lat = make(cfg)
        f = q.backward_solve(inst, lat)
        for k in range(6):
            assert np.array_equal(f.y[k], q.cond_exp(lat, k, f.y[k + 1]))

    def test_determinism_bitwise(self):
        inst, lat = make(remark22_config(N=20))
        a = q.backward_solve(inst, lat)
        b = q.backward_solve(inst, lat)
        for xa, xb in zip(a.y + a.z, b.y + b.z):
            assert xa.tobytes() == xb.tobytes()

    def test_degenerate_horizon(self):
        cfg = structured_config(**{"problem.T": 0.0, "grid.N": 3,
                                   "terminal.1": "cos(w1)", "terminal.bound": 1.0})
        inst, lat = make(cfg)
        f = q.backward_solve(inst, lat)
        for yk in f.y:
            assert np.all(yk == 1.0)  # cos(0)
        for zk in f.z:
            assert np.all(zk == 0.0)

    def test_z_truncation_counts(self):
        inst, lat = make(structured_config())
        f = q.backward_solve(inst, lat, z_truncation=0.5)
        assert f.metadata["z_clips"] == 1
        assert np.all(np.abs(f.z[0]) <= 0.5 + 1e-15)

    def test_inner_nonconvergence_reports_location(self):
        cfg = structured_config(**{"grid.N": 2, "generator.1.h": "100*y1",
                                   "terminal.1": "1", "terminal.bound": 1.0})
        inst, lat = make(cfg)
        with pytest.raises(InnerNonconvergenceError) as exc:
            q.backward_solve(inst, lat, inner_max_iter=30)
        assert exc.value.layer == 1
        assert exc.value.residual > 0

    def test_driver_domain_error_wrapped(self):
        cfg = structured_config(**{"grid.N": 2, "terminal.bound": 2.0,
                                   "generator.1.h": "exp(exp(exp(normz+3)))"})
        inst, lat = make(cfg)
        with pytest.raises(SolverError, match="layer"):
            q.backward_solve(inst, lat)

    def test_terminal_bound_enforced(self):
        cfg = structured_config(**{"terminal.1": "2*w1", "terminal.bound": 1.0})
        inst, lat = make(cfg)
        with pytest.raises(ValueError, match="declared bound"):
            q.backward_solve(inst, lat)

    def test_pasting_identity_bitwise(self):
        inst, lat = make(pure_quadratic_config(N=40))
        driver, y_dep = compile_driver(inst.generator)
        term = q.terminal_values(inst, lat)
        one_y, one_z = backward_range(lat, driver, y_dep, term, 0, 40)
        top_y, top_z = backward_range(lat, driver, y_dep, term, 15, 40)
        bot_y, bot_z = backward_range(lat, driver, y_dep, top_y[0], 0, 15)
        stitched_y = bot_y[:-1] + top_y
        stitched_z = bot_z + top_z
        for a, b in zip(one_y, stitched_y):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(one_z, stitched_z):
            assert a.tobytes() == b.tobytes()


class TestPicardSolve:
    def test_zero_problem_single_iteration(self):
        cfg = structured_config(**{"terminal.1": "0", "terminal.bound": 0.0})
        inst, lat = make(cfg)
        f, trace = q.picard_solve(inst, lat)
        assert len(trace) == 1 and trace[0] == 0.0
        assert q.sup_norm_y(f) == 0.0

    def test_agrees_with_backward_solve(self):
        inst, lat = make(pure_quadratic_config(N=50))
        direct = q.backward_solve(inst, lat, inner_tol=1e-14)
        fixed, trace = q.picard_solve(inst, lat, tol=1e-10)
        assert q.field_sup_diff(direct, fixed) <= 1e-9

    def test_perturbed_init_reaches_same_fixed_point(self):
        inst, lat = make(pure_quadratic_config(N=50))
        a, _ = q.picard_solve(inst, lat, tol=1e-10)
        b, _ = q.picard_solve(inst, lat, init=q.zero_field(lat, 1).shifted(1.0),
                              tol=1e-10)
        assert q.field_sup_diff(a, b) <= 1e-8

    def test_nonconvergence_carries_trace(self):
        inst, lat = make(remark22_config(N=20))
        with pytest.raises(q.engine.PicardNonconvergenceError) as exc:
            q.picard_solve(inst, lat, tol=1e-12, max_iter=3)
        assert len(exc.value.trace) == 3

    def test_divergence_detected(self):
        cfg = pure_quadratic_config(gamma=12.0, N=50)
        inst, lat = make(cfg)
        with pytest.raises(PicardDivergenceError):
            q.picard_solve(inst, lat, tol=1e-10, max_iter=100)


class TestFieldStatistics:
    def test_sup_norm_examples(self):
        inst, lat = make(structured_config())
        assert q.sup_norm_y(q.zero_field(lat, 2)) == 0.0
        const = q.zero_field(lat, 2).shifted(0.5)
        assert q.sup_norm_y(const) == pytest.approx(0.5 * math.sqrt(2), rel=1e-15)
        f = q.backward_solve(inst, lat)
        assert q.sup_norm_y(f) == 1.0  # terminal nodes sit at +-1

    def test_bmo_examples(self):
        inst, lat = make(structured_config())
        assert q.estimate_bmo(q.zero_field(lat, 1), lat) == 0.0
        f = q.backward_solve(inst, lat)
        assert q.estimate_bmo(f, lat) == pytest.approx(1.0, rel=1e-15)

    def test_bmo_homogeneity(self):
        inst, lat = make(remark22_config(N=12))
        f = q.backward_solve(inst, lat)
        doubled = f.copy()
        doubled.z = [2.0 * zk for zk in doubled.z]
        assert q.estimate_bmo(doubled, lat) == pytest.approx(
            2.0 * q.estimate_bmo(f, lat), rel=1e-12)

    def test_bmo_longer_horizon_at_root(self):
        # constant Z = 1 on [0, T]: estimate is sqrt(T)
        cfg = structured_config(**{"problem.T": 4.0, "grid.N": 16,
                                   "terminal.1": "w1", "terminal.bound": 8.0})
        inst, lat = make(cfg)
        f = q.backward_solve(inst, lat)
        assert q.estimate_bmo(f, lat) == pytest.approx(2.0, rel=1e-12)


class TestStagedDriver:
    """The driver keeps its t/z stage for the last (k, t, z object)."""

    def setup_method(self):
        g = tuple(q.parse_expr(f"t*norm2(z{i})*sin(log(norm(z{i})+1))", 2, 1) for i in (1, 2))
        h = (q.parse_expr("normy + log(normz+1)", 2, 1),) * 2
        gen = GeneratorModel(STRUCTURED, 2, 1, g=g, h=h)
        self.driver, _ = compile_driver(gen)
        self.fresh = lambda *args: compile_driver(gen)[0](*args)
        rng = np.random.default_rng(21)
        self.y = rng.normal(size=(6, 2))
        self.z = rng.normal(size=(6, 2, 1))

    def test_new_z_object_at_same_layer_is_recomputed(self):
        a = self.driver(3, 0.5, self.y, self.z)
        z2 = 2.0 * self.z
        b = self.driver(3, 0.5, self.y, z2)
        assert b.tobytes() == self.fresh(3, 0.5, self.y, z2).tobytes()
        assert not np.array_equal(a, b)

    def test_dropped_z_replaced_at_same_layer(self):
        z1 = self.z.copy()
        self.driver(3, 0.5, self.y, z1)
        del z1  # the caller lets go; a new array of the same size follows
        z2 = np.full_like(self.z, 0.25)
        got = self.driver(3, 0.5, self.y, z2)
        assert got.tobytes() == self.fresh(3, 0.5, self.y, z2).tobytes()

    def test_same_z_new_y_and_other_keys(self):
        self.driver(3, 0.5, self.y, self.z)
        for k, t, y in ((3, 0.5, 3.0 * self.y), (2, 0.5, self.y), (3, 0.25, self.y)):
            assert self.driver(k, t, y, self.z).tobytes() == self.fresh(k, t, y, self.z).tobytes()
