"""Lattice construction, projection, and the two core solvers."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dqbsde as q
from dqbsde import engine
from dqbsde.engine import (InnerNonconvergenceError, NodeBudgetError, NonFiniteError,
                           PicardDivergenceError, PicardNonconvergenceError, SolverError,
                           backward_range, compile_driver)

from dqbsde.gendsl import STRUCTURED, EvalError, GeneratorModel, sum_squares

from conftest import (make, pure_quadratic_config, remark22_config, structured_config,
                      triangular_demo_config)


# The corner-slice kernels that the flat-window kernels replaced: each corner
# block is a reshaped (copied) slice of the child grid.  They are the bit-for-bit
# reference of TestKernelReference.

def _ref_corner_blocks(lattice, k, child_values):
    child = np.asarray(child_values, dtype=float)
    value_shape = child.shape[1:]
    g = child.reshape((k + 2,) * lattice.d + value_shape)
    for corner in product((0, 1), repeat=lattice.d):
        sl = tuple(slice(c, c + k + 1) for c in corner)
        yield corner, g[sl].reshape((lattice.layer_size(k),) + value_shape)


def _ref_cond_exp(lattice, k, child_values):
    w = lattice.child_weight
    out = None
    for _, block in _ref_corner_blocks(lattice, k, child_values):
        contrib = w * block
        out = contrib if out is None else out + contrib
    return out


def _ref_log_cond_exp(lattice, k, child_log_values):
    acc = None
    for _, block in _ref_corner_blocks(lattice, k, child_log_values):
        acc = block.copy() if acc is None else np.logaddexp(acc, block)
    return acc + math.log(lattice.child_weight)


def _ref_project(lattice, k, child_values):
    s = math.sqrt(lattice.grid.dt)
    w = lattice.child_weight
    expectation = None
    z_parts = [None] * lattice.d
    for corner, block in _ref_corner_blocks(lattice, k, child_values):
        contrib = w * block
        expectation = contrib if expectation is None else expectation + contrib
        for j, c in enumerate(corner):
            zc = ((2 * c - 1) * w / s) * block
            z_parts[j] = zc if z_parts[j] is None else z_parts[j] + zc
    return expectation, np.stack(z_parts, axis=-1)


# The two-list Picard driver that the one-live-iterate driver replaced: a pass
# builds fresh lists beside a private copy of the previous field.  It is the
# bit-for-bit reference of TestPicardReference.

def _ref_picard_range(lattice, driver, terminal, k_lo, k_hi, tol=1e-10, max_iter=200,
                      init_y=None, init_z=None):
    dt = lattice.grid.dt
    if dt == 0.0:
        ys, zs = engine._degenerate_layers(lattice, terminal, k_lo, k_hi)
        return ys, zs, [0.0]
    span = k_hi - k_lo
    n = terminal.shape[-1]
    y_prev = ([a.copy() for a in init_y] if init_y is not None
              else [np.zeros((lattice.layer_size(k_lo + j), n)) for j in range(span + 1)])
    z_prev = ([a.copy() for a in init_z] if init_z is not None
              else [np.zeros((lattice.layer_size(k_lo + j), n, lattice.d)) for j in range(span)])
    term = np.asarray(terminal, dtype=float)
    trace = []
    for m in range(max_iter):
        ys = [None] * (span + 1)
        zs = [None] * span
        ys[-1] = term
        change = float(np.abs(term - y_prev[-1]).max()) if term.size else 0.0
        for k in range(k_hi - 1, k_lo - 1, -1):
            j = k - k_lo
            expectation, z = engine.project(lattice, k, ys[j + 1])
            t_k = lattice.grid.time(k)
            try:
                f_val = driver(k, t_k, y_prev[j], z_prev[j])
            except EvalError as err:
                raise SolverError(f"driver evaluation failed at layer {k}: {err}") from err
            y = expectation + f_val * dt
            if not np.all(np.isfinite(y)):
                node = int(np.argmax(~np.isfinite(y).all(axis=-1)))
                raise NonFiniteError(k, node)
            ys[j] = y
            zs[j] = z
            change = max(change, float(np.abs(y - y_prev[j]).max()))
        trace.append(change)
        y_prev, z_prev = ys, zs
        if change <= tol:
            return ys, zs, trace
        if len(trace) >= 2 and trace[0] > 0 and change > 10.0 * trace[0]:
            raise PicardDivergenceError(trace)
    raise PicardNonconvergenceError(trace, partial=(y_prev, z_prev))


@st.composite
def _kernel_case(draw):
    """A lattice, a layer k and its child values (with signed zeros, the
    smallest subnormal and values that overflow once weighted) in one of the
    input forms the solvers pass: an array, a list, or a strided column view
    like ``term[:, i-1:i]``."""
    d = draw(st.integers(1, 3))
    steps = draw(st.integers(1, 6 - d))
    k = draw(st.integers(0, steps - 1))
    horizon = draw(st.sampled_from([1.0, 0.3, 1e-7, 1e9]))
    lattice = q.build_lattice(q.build_time_grid(horizon, steps), d)
    n = draw(st.integers(1, 3))
    value_shape = draw(st.sampled_from([(), (n,), (n, d)]))
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -0.75])
    values = draw(arrays(np.float64, ((k + 2) ** d,) + value_shape,
                         elements=special | st.floats(-1e6, 1e6)))
    form = draw(st.sampled_from(["array", "list", "strided"]))
    if form == "list":
        return lattice, k, values.tolist()
    if form == "strided":
        return lattice, k, np.stack([np.full_like(values, np.nan), values], axis=-1)[..., 1]
    return lattice, k, values


def _owns_exactly(a):
    root = a if a.base is None else a.base
    return root.base is None and root.nbytes == a.nbytes and a.flags.c_contiguous


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


class TestKernelReference:
    """project, cond_exp and log_cond_exp match the corner-slice kernels bit
    for bit and return fresh arrays that share no memory with their input."""

    @settings(max_examples=300, deadline=None)
    @given(_kernel_case())
    def test_bits_match_corner_slices(self, case):
        lattice, k, child = case
        with np.errstate(all="ignore"):
            pairs = [(q.cond_exp(lattice, k, child), _ref_cond_exp(lattice, k, child)),
                     (q.log_cond_exp(lattice, k, child), _ref_log_cond_exp(lattice, k, child))]
            pairs += zip(q.project(lattice, k, child), _ref_project(lattice, k, child))
        for got, want in pairs:
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert _owns_exactly(got) and got.flags.writeable
            if isinstance(child, np.ndarray):
                assert not np.shares_memory(got, child)

    def test_child_size_checked(self):
        grid = q.build_time_grid(1.0, 3)
        lat = q.build_lattice(grid, 2)
        with pytest.raises(ValueError):
            q.project(lat, 1, np.zeros(10))


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

    @pytest.mark.parametrize("cfg", [
        remark22_config(N=20),
        structured_config(**{"problem.d": 2, "grid.N": 6, "terminal.1": "clamp(w1*w2,-1,1)",
                             "generator.1.g": "0.5*norm2(z1)"}),
    ], ids=["remark22", "d2"])
    def test_z_truncation_is_a_scheme_property(self, monkeypatch, cfg):
        """Every stored Z row ends within the threshold, z_clips counts the rows
        scaled back onto it, and clipping one layer touches no other layer."""
        c = 1e-3
        inst, lat = make(cfg)
        projected, project = {}, engine.project

        def recording(lattice, k, child_values):
            expectation, z = project(lattice, k, child_values)
            projected[k] = child_values.copy(), z.copy()
            return expectation, z

        monkeypatch.setattr(engine, "project", recording)
        f = q.backward_solve(inst, lat, z_truncation=c)
        monkeypatch.undo()
        clipped = 0
        for k, (child, raw) in projected.items():
            assert f.y[k + 1].tobytes() == child.tobytes()
            norms = np.sqrt(sum_squares(raw))
            over = norms > c
            clipped += int(over.sum())
            assert f.z[k][~over].tobytes() == raw[~over].tobytes()
            assert np.allclose(f.z[k][over], raw[over] * (c / norms[over])[:, None],
                               rtol=4 * np.finfo(float).eps, atol=0)
            assert np.all(np.sqrt(sum_squares(f.z[k])) <= c * (1 + 4 * np.finfo(float).eps))
        assert 0 < clipped < sum(z.shape[0] * z.shape[1] for z in f.z)
        assert f.metadata["z_clips"] == clipped

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


TRI_D2 = triangular_demo_config(N=12) | {"problem.d": 2, "triangular.lipBeta": 2.0}


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _picard_outcome(picard, cfg, k_lo=0, shift=None, **kwargs):
    """Run ``picard`` on layers k_lo..N of ``cfg`` with a fresh compiled
    driver; returns (outcome, ys, zs, trace), where ys, zs is the last
    complete pass when the iteration does not converge."""
    inst, lat = make(cfg)
    driver, _ = compile_driver(inst.generator)
    term = engine.terminal_values(inst, lat)
    if shift is not None:
        init = engine.zero_field(lat, inst.n).shifted(shift)
        kwargs.update(init_y=init.y[k_lo:], init_z=init.z[k_lo:])
    try:
        return ("converged",) + picard(lat, driver, term, k_lo, lat.grid.steps, **kwargs)
    except PicardNonconvergenceError as err:
        return ("nonconvergence",) + err.partial + (err.trace,)
    except PicardDivergenceError as err:
        return "divergence", [], [], err.trace


class TestPicardReference:
    """One live iterate gives the two-list driver's bits: every returned
    layer, the trace and the nonconvergence partial field."""

    @pytest.mark.parametrize("cfg, kwargs", [
        (remark22_config(N=20), {}),
        (remark22_config(N=20), {"k_lo": 12}),
        (pure_quadratic_config(N=50), {}),
        (pure_quadratic_config(gamma=12.0, N=50), {"max_iter": 100}),
        (TRI_D2, {"tol": 1e-12, "max_iter": 2000}),
        (pure_quadratic_config(N=50), {"shift": 1.0}),
        (TRI_D2, {"shift": 1.0, "tol": 1e-12}),
        (remark22_config(N=20), {"tol": 1e-12, "max_iter": 3}),
        (remark22_config(N=20), {"k_lo": 5, "shift": 0.5, "tol": 1e-12, "max_iter": 2}),
    ], ids=["remark22", "remark22-chunk", "pure-quadratic", "divergence", "joint-oracle-d2",
            "shifted-init", "shifted-init-d2", "nonconvergence", "nonconvergence-shifted"])
    def test_same_bits_as_two_list_driver(self, cfg, kwargs):
        got = _picard_outcome(engine.picard_range, cfg, **kwargs)
        want = _picard_outcome(_ref_picard_range, cfg, **kwargs)
        assert got[0] == want[0]
        for got_layers, want_layers in zip(got[1:3], want[1:3]):
            assert len(got_layers) == len(want_layers)
            assert all(_same_bits(a, b) for a, b in zip(got_layers, want_layers))
        assert _same_bits(got[3], want[3])

    def test_init_is_neither_copied_nor_mutated(self):
        inst, lat = make(remark22_config(N=20))
        init = engine.zero_field(lat, inst.n).shifted(0.5)
        for a in init.y + init.z:
            a.flags.writeable = False  # a write in place would raise
        before_y, before_z = list(init.y), list(init.z)
        values = [a.copy() for a in init.y + init.z]

        def unchanged():
            return (len(init.y) == len(before_y) and len(init.z) == len(before_z)
                    and all(a is b for a, b in zip(init.y + init.z, before_y + before_z))
                    and all(_same_bits(a, b) for a, b in zip(init.y + init.z, values)))

        field_, trace = q.picard_solve(inst, lat, init=init)
        assert unchanged() and len(trace) > 2
        assert not any(a is b for a, b in zip(field_.y[:-1] + field_.z, init.y + init.z))

        driver, _ = compile_driver(inst.generator)
        calls = []

        def failing(k, t, y, z):  # fails halfway through the second pass
            calls.append(k)
            if len(calls) == 30:
                raise EvalError("planted failure", 0)
            return driver(k, t, y, z)

        term = engine.terminal_values(inst, lat)
        with pytest.raises(SolverError, match="failed at layer 10: planted failure"):
            engine.picard_range(lat, failing, term, 0, 20, init_y=init.y, init_z=init.z)
        assert unchanged()


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
