"""Lattice construction, projection, and the two core solvers."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dqbsde as q
from dqbsde import drivers, engine
from dqbsde.engine import (InnerNonconvergenceError, NodeBudgetError, NonFiniteError,
                           PicardDivergenceError, PicardNonconvergenceError, SolverError,
                           backward_range, compile_driver)

from dqbsde.gendsl import STRUCTURED, EvalError, GeneratorModel, sum_squares

from conftest import (field_sup_diff, flat_z, make, pure_quadratic_config, remark22_config,
                      shifted, structured_config, triangular_demo_config)


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


def _layers(lattice, rows, k_lo, k_hi):
    """Layers k_lo..k_hi-1 of flat rows whose row 0 is layer k_lo's first node."""
    return [rows[lattice.rows(k, base=k_lo)] for k in range(k_lo, k_hi)]


def _out_rows(lattice, n, k_lo, k_hi, fill="zeros", term=None):
    """Destination y rows of layers k_lo..k_hi for backward_range and
    picard_range, holding NaN, zeros, or zeros under ``term`` in the top
    rows ("terminal"), as the rows of a stitched chunk below the first do."""
    ys = np.full((lattice.rows(k_lo, k_hi + 1, k_lo).stop, n), np.nan if fill == "nan" else 0.0)
    if fill == "terminal":
        ys[lattice.rows(k_hi, base=k_lo)] = term
    return ys


# Textbook backward induction: each layer's z is projected, clipped row by
# row onto the threshold and kept in a list.  It is the reference of
# TestDeclinedZ's direct solves.

def _ref_backward(lattice, driver, y_dependent, terminal, z_truncation=None, inner_tol=1e-12):
    N, dt = lattice.grid.steps, lattice.grid.dt
    ys, zs, clips = [None] * N + [terminal], [None] * N, 0
    for k in range(N - 1, -1, -1):
        expectation, z = engine.project(lattice, k, ys[k + 1])
        if z_truncation is not None:
            norms = np.sqrt(np.sum(z * z, axis=-1))
            over = norms > z_truncation
            z[over] *= (z_truncation / norms[over])[:, None]
            clips += int(over.sum())
        values = driver(k, lattice.grid.time(k), z)
        y = expectation
        for _ in range(200):  # one step when the driver reads no y
            y_next = expectation + values(y) * dt
            delta = float(np.abs(y_next - y).max())
            y = y_next
            if not y_dependent or delta <= inner_tol:
                break
        ys[k], zs[k] = y, z
    return ys, zs, clips


# The two-list Picard driver that the one-live-iterate driver replaced: a pass
# builds fresh per-layer lists beside a private copy of the previous field.
# It is the bit-for-bit reference of TestPicardReference; init_y is flat
# rows, as picard_range takes them, and init's z is projected from it.

def _ref_picard_range(lattice, driver, terminal, k_lo, k_hi, tol=1e-10, max_iter=200,
                      init_y=None, out=None):  # out is not read
    dt = lattice.grid.dt
    span = k_hi - k_lo
    n = terminal.shape[-1]
    if dt == 0.0:
        ys = [np.tile(terminal[0], (lattice.layer_size(k), 1)) for k in range(k_lo, k_hi)]
        zs = [np.zeros((lattice.layer_size(k), n, lattice.d)) for k in range(k_lo, k_hi)]
        return ys + [terminal], zs, [0.0]
    y_prev = ([a.copy() for a in _layers(lattice, init_y, k_lo, k_hi + 1)] if init_y is not None
              else [np.zeros((lattice.layer_size(k_lo + j), n)) for j in range(span + 1)])
    z_prev = ([engine.project(lattice, k_lo + j, y_prev[j + 1])[1] for j in range(span)]
              if init_y is not None
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
                f_val = driver(k, t_k, z_prev[j])(y_prev[j])
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


def _failing_at(driver, layer, init, position):
    """``driver`` with a planted failure: its stage of ``layer`` raises an
    EvalError at ``position`` once y is not ``init``."""
    def failing(k, t, z):
        values = driver(k, t, z)

        def checked(y):
            if k == layer and np.any(y != init):
                raise EvalError("planted failure", position)
            return values(y)

        return checked

    return failing


@st.composite
def _kernel_case(draw):
    """A lattice, a layer k and its child values (with signed zeros, the
    smallest subnormal and values that overflow once weighted) in one of the
    input forms the solvers pass: an array, a list, or a strided column view
    like ``term[:, i-1:i]``; and a slab size for ``engine.SLAB``, down to one
    value, so that layers also run as several slabs, slabs of one plane and
    a clipped last slab."""
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
    slab = draw(st.integers(1, 64) | st.just(engine.SLAB))
    form = draw(st.sampled_from(["array", "list", "strided"]))
    if form == "list":
        return lattice, k, values.tolist(), slab
    if form == "strided":
        values = np.stack([np.full_like(values, np.nan), values], axis=-1)[..., 1]
    return lattice, k, values, slab


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
    for bit, at any slab size, and return fresh arrays that share no memory
    with their input."""

    @settings(max_examples=300, deadline=None)
    @given(_kernel_case())
    def test_bits_match_corner_slices(self, case):
        lattice, k, child, slab = case
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(engine, "SLAB", slab)
            pairs = [(q.cond_exp(lattice, k, child), _ref_cond_exp(lattice, k, child)),
                     (q.log_cond_exp(lattice, k, child), _ref_log_cond_exp(lattice, k, child))]
            pairs += zip(q.project(lattice, k, child), _ref_project(lattice, k, child))
        for got, want in pairs:
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert _owns_exactly(got) and got.flags.writeable
            if isinstance(child, np.ndarray):
                assert not np.shares_memory(got, child)

    @settings(max_examples=100, deadline=None)
    @given(_kernel_case())
    def test_out_is_strided_rows_of_a_flat_field(self, case):
        """project writes z into ``out``, here every other trailing column of
        layer k's rows of a flat field, and nowhere else."""
        lattice, k, child, slab = case
        d, value_shape = lattice.d, np.shape(child)[1:]
        flat = np.full((lattice.rows(0, lattice.grid.steps).stop,) + value_shape + (2 * d,),
                       np.nan)
        out = flat[lattice.rows(k)][..., ::2]
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(engine, "SLAB", slab)
            y, z = q.project(lattice, k, child, out=out)
            want_y, want_z = _ref_project(lattice, k, child)
        assert z is out
        assert np.array_equal(y.view(np.uint64), want_y.view(np.uint64))
        assert np.array_equal(out.copy().view(np.uint64), want_z.view(np.uint64))
        written = np.zeros(flat.shape, dtype=bool)
        written[lattice.rows(k)][..., ::2] = True
        assert np.isnan(flat[~written]).all()

    @settings(max_examples=300, deadline=None)
    @given(_kernel_case(), st.booleans())
    def test_project_z_matches_project(self, case, with_out):
        """project_z, which folds only the regression's windows, gives the
        bits of project's z, also written into ``out``."""
        lattice, k, child, slab = case
        shape = (lattice.layer_size(k),) + np.shape(child)[1:] + (lattice.d,)
        out = np.full(shape, np.nan) if with_out else None
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(engine, "SLAB", slab)
            got = engine.project_z(lattice, k, child, out=out)
            want = q.project(lattice, k, child)[1]
        assert got is out if with_out else _owns_exactly(got)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scratch_is_fixed(self, d):
        """Beyond its inputs, project holds its y and a scratch of slab
        buffers and the two scaled children, within (d + 2) SLAB values:
        1.57 MB for d = 3 here; the whole-layer kernel peaked at 6.4 MB
        (d + 2 window-sized sums and a gathered copy of y)."""
        lat = q.build_lattice(q.build_time_grid(1.0, 40), d)
        child = np.linspace(-1.0, 1.0, lat.layer_size(40) * 2).reshape(-1, 2)
        z = np.empty((lat.layer_size(39), 2, d))
        q.project(lat, 39, child, out=z)  # whatever a first call allocates
        tracemalloc.start()
        try:
            y, _ = q.project(lat, 39, child, out=z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= y.nbytes + (lat.d + 2) * engine.SLAB * 8

    def test_child_size_checked(self):
        grid = q.build_time_grid(1.0, 3)
        lat = q.build_lattice(grid, 2)
        with pytest.raises(ValueError):
            q.project(lat, 1, np.zeros(10))


class TestBackwardSolve:
    def test_brownian_terminal(self):
        inst, lat = make(structured_config())
        f = q.backward_solve(inst, lat)
        assert f.y[0, 0] == 0.0
        assert np.all(flat_z(f) == 1.0)

    def test_linear_decay_recursion(self):
        cfg = structured_config(**{"grid.N": 10, "generator.1.h": "-1.0*y1 + 0.0",
                                   "terminal.1": "1", "terminal.bound": 1.0})
        inst, lat = make(cfg)
        f = q.backward_solve(inst, lat, inner_tol=1e-15)
        assert f.y[0, 0] == pytest.approx((1 + 0.1) ** -10, abs=1e-12)

    def test_constant_solution(self):
        cfg = structured_config(**{"grid.N": 8, "generator.1.h": "y1 - 1.0",
                                   "terminal.1": "1", "terminal.bound": 1.0})
        inst, lat = make(cfg)
        f = q.backward_solve(inst, lat, inner_tol=1e-15)
        assert np.allclose(f.y, 1.0, atol=1e-12)
        assert np.allclose(flat_z(f), 0.0, atol=1e-12)

    def test_martingale_identity_for_zero_generator(self):
        cfg = structured_config(**{"grid.N": 6, "terminal.1": "sin(w1)"})
        inst, lat = make(cfg)
        f = q.backward_solve(inst, lat)
        for k in range(6):
            assert np.array_equal(f.y[lat.rows(k)], q.cond_exp(lat, k, f.y[lat.rows(k + 1)]))

    def test_determinism_bitwise(self):
        inst, lat = make(remark22_config(N=20))
        a = q.backward_solve(inst, lat)
        b = q.backward_solve(inst, lat)
        assert a.y.tobytes() == b.y.tobytes() and flat_z(a).tobytes() == flat_z(b).tobytes()

    def test_degenerate_horizon(self):
        cfg = structured_config(**{"problem.T": 0.0, "grid.N": 3,
                                   "terminal.1": "cos(w1)", "terminal.bound": 1.0})
        inst, lat = make(cfg)
        f = q.backward_solve(inst, lat)
        assert np.all(f.y == 1.0)  # cos(0)
        assert flat_z(f).shape == (6, 1, 1) and np.all(flat_z(f) == 0.0)

    def test_z_truncation_counts(self):
        inst, lat = make(structured_config())
        f = q.backward_solve(inst, lat, z_truncation=0.5)
        assert f.trace.z_clips == 1
        assert np.all(np.abs(f.z[0]) <= 0.5 + 1e-15)

    @pytest.mark.parametrize("cfg", [
        remark22_config(N=20),
        structured_config(**{"problem.d": 2, "grid.N": 6, "terminal.1": "clamp(w1*w2,-1,1)",
                             "generator.1.g": "0.5*norm2(z1)"}),
    ], ids=["remark22", "d2"])
    def test_z_truncation_is_a_scheme_property(self, monkeypatch, cfg):
        """Every Z row ends within the threshold, z_clips counts the rows
        scaled back onto it, and clipping one layer touches no other layer."""
        c = 1e-3
        inst, lat = make(cfg)
        projected, project = {}, engine.project

        def recording(lattice, k, child_values, out=None):
            expectation, z = project(lattice, k, child_values, out=out)
            projected[k] = child_values.copy(), z.copy()
            return expectation, z

        monkeypatch.setattr(engine, "project", recording)
        f = q.backward_solve(inst, lat, z_truncation=c)
        monkeypatch.undo()
        clipped = 0
        for k, (child, raw) in projected.items():
            assert f.y[lat.rows(k + 1)].tobytes() == child.tobytes()
            norms = np.sqrt(sum_squares(raw))
            over = norms > c
            clipped += int(over.sum())
            z = f.z[k]
            assert z[~over].tobytes() == raw[~over].tobytes()
            assert np.allclose(z[over], raw[over] * (c / norms[over])[:, None],
                               rtol=4 * np.finfo(float).eps, atol=0)
            assert np.all(np.sqrt(sum_squares(z)) <= c * (1 + 4 * np.finfo(float).eps))
        assert 0 < clipped < flat_z(f).shape[0] * f.n
        assert f.trace.z_clips == clipped

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
        one_y = _out_rows(lat, 1, 0, 40)
        top_y = _out_rows(lat, 1, 15, 40)
        bot_y = _out_rows(lat, 1, 0, 15)
        backward_range(lat, driver, y_dep, term, 0, 40, out=one_y)
        backward_range(lat, driver, y_dep, term, 15, 40, out=top_y)
        backward_range(lat, driver, y_dep, top_y[lat.rows(15, base=15)], 0, 15, out=bot_y)
        assert one_y[lat.rows(0, 16)].tobytes() == bot_y.tobytes()
        assert one_y[lat.rows(15, 41)].tobytes() == top_y.tobytes()


class TestPicardSolve:
    def test_zero_problem_single_iteration(self):
        cfg = structured_config(**{"terminal.1": "0", "terminal.bound": 0.0})
        inst, lat = make(cfg)
        f, trace = q.picard_solve(inst, lat)
        assert len(trace) == 1 and trace[0] == 0.0
        assert q.sup_norm_y(f.y) == 0.0

    def test_agrees_with_backward_solve(self):
        inst, lat = make(pure_quadratic_config(N=50))
        direct = q.backward_solve(inst, lat, inner_tol=1e-14)
        fixed, trace = q.picard_solve(inst, lat, tol=1e-10)
        assert field_sup_diff(direct, fixed) <= 1e-9

    def test_perturbed_init_reaches_same_fixed_point(self):
        inst, lat = make(pure_quadratic_config(N=50))
        a, _ = q.picard_solve(inst, lat, tol=1e-10)
        b, _ = q.picard_solve(inst, lat, init=shifted(q.zero_field(lat, 1), 1.0),
                              tol=1e-10)
        assert field_sup_diff(a, b) <= 1e-8

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

    @pytest.mark.parametrize("limit", [0, -1])
    def test_iteration_limit_below_one_rejected(self, limit):
        inst, lat = make(remark22_config(N=4))
        driver, y_dep = compile_driver(inst.generator)
        term = engine.terminal_values(inst, lat)
        with pytest.raises(ValueError, match="^max_iter must be >= 1"):
            engine.picard_range(lat, driver, term, 0, 4, out=_out_rows(lat, 2, 0, 4),
                                max_iter=limit)
        with pytest.raises(ValueError, match="^inner_max_iter must be >= 1"):
            backward_range(lat, driver, y_dep, term, 0, 4, out=_out_rows(lat, 2, 0, 4),
                           inner_max_iter=limit)


TRI_D2 = triangular_demo_config(N=12) | {"problem.d": 2, "triangular.lipBeta": 2.0}


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _picard_outcome(picard, cfg, k_lo=0, shift=None, fill="zeros", **kwargs):
    """Run ``picard`` on layers k_lo..N of ``cfg`` with a fresh compiled
    driver, into destination rows set to ``fill``; returns (outcome, ys, zs,
    trace), where ys, zs are per-layer lists (picard_range's z derived from
    its ys), the last complete pass when the iteration does not converge."""
    inst, lat = make(cfg)
    N = lat.grid.steps
    driver, _ = compile_driver(inst.generator)
    term = engine.terminal_values(inst, lat)
    kwargs["out"] = _out_rows(lat, inst.n, k_lo, N, fill, term)
    if shift is not None:
        init = shifted(engine.zero_field(lat, inst.n), shift)
        kwargs.update(init_y=init.y[lat.rows(k_lo, N + 1)])
    try:
        outcome, (ys, zs, trace) = "converged", picard(lat, driver, term, k_lo, N, **kwargs)
    except PicardNonconvergenceError as err:
        outcome, (ys, zs), trace = "nonconvergence", err.partial, err.trace
    except PicardDivergenceError as err:
        return "divergence", [], [], err.trace
    if isinstance(ys, np.ndarray):
        ys, zs = _layers(lat, ys, k_lo, N + 1), list(zs)
    return outcome, ys, zs, trace


def _assert_same_outcome(got, want):
    assert got[0] == want[0]
    for got_layers, want_layers in zip(got[1:3], want[1:3]):
        assert len(got_layers) == len(want_layers)
        assert all(_same_bits(a, b) for a, b in zip(got_layers, want_layers))
    assert _same_bits(got[3], want[3])


def _counted_outcome(monkeypatch, cfg, **kwargs):
    """``picard_range``'s outcome on ``cfg`` and its number of ``project``
    and ``project_z`` calls, beside the two-list driver's outcome.  Deriving
    the returned Z, one call per layer, is not counted."""
    calls = []
    for name in ("project", "project_z"):
        def counted(lattice, k, child_values, out=None, kernel=getattr(engine, name)):
            calls.append(k)
            return kernel(lattice, k, child_values, out=out)

        monkeypatch.setattr(engine, name, counted)
    got = _picard_outcome(engine.picard_range, cfg, **kwargs)
    monkeypatch.undo()
    sweep = 0 if got[0] == "divergence" else cfg["grid.N"] - kwargs.get("k_lo", 0)
    return got, _picard_outcome(_ref_picard_range, cfg, **kwargs), len(calls) - sweep


# Triangular, y2's driver zero in time's upper half: the top layers settle
# layer by layer while the lower half's Picard passes grow until they diverge.
TRI_DIVERGING = triangular_demo_config(N=12) | {"generator.2.k": "y1 + y2*clamp(30*(0.5-t),0,30)"}


class TestPicardReference:
    """One live iterate, with layers whose inputs did not change left as
    they are, gives the two-list driver's bits: every returned layer, the
    trace and the nonconvergence partial field."""

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
        (remark22_config(N=20), {"k_lo": 19}),
    ], ids=["remark22", "remark22-chunk", "pure-quadratic", "divergence", "joint-oracle-d2",
            "shifted-init", "shifted-init-d2", "nonconvergence", "nonconvergence-shifted",
            "one-layer"])
    def test_same_bits_as_two_list_driver(self, cfg, kwargs):
        got = _picard_outcome(engine.picard_range, cfg, **kwargs)
        want = _picard_outcome(_ref_picard_range, cfg, **kwargs)
        _assert_same_outcome(got, want)

    def test_one_layer_stitched_chunks(self):
        # With horizon = dt each chunk is one layer, so every Picard pass of a
        # chunk stages the shared driver at the same (k, t) with z rows written
        # over since; a stage kept from an earlier call would give other bits.
        inst, lat = make(remark22_config(N=20))
        field, plan = q.solve_stitched(inst, lat, horizon=lat.grid.dt)
        assert len(plan.chunks) == 20 and min(len(c.changes) for c in plan.chunks) > 2
        term = engine.terminal_values(inst, lat)
        for chunk, k in zip(plan.chunks, range(20, 0, -1)):
            ys, zs, trace = _ref_picard_range(lat, compile_driver(inst.generator)[0],
                                              term, k - 1, k)
            assert field.y[lat.rows(k - 1, k + 1)].tobytes() == np.concatenate(ys).tobytes()
            assert field.z[k - 1].tobytes() == zs[0].tobytes()
            assert (len(chunk.changes), chunk.changes[-1]) == (len(trace), trace[-1])
            term = ys[0]

    @pytest.mark.parametrize("cfg, kwargs, outcome", [
        (TRI_D2, {"tol": 1e-12, "max_iter": 2000}, "converged"),
        (TRI_D2, {"tol": 1e-12, "max_iter": 8}, "nonconvergence"),
        (TRI_DIVERGING, {"tol": 1e-12}, "divergence"),
    ], ids=["joint-oracle-d2", "nonconvergence", "divergence"])
    def test_stationary_layers_skipped(self, monkeypatch, cfg, kwargs, outcome):
        got, want, projects = _counted_outcome(monkeypatch, cfg, **kwargs)
        _assert_same_outcome(got, want)
        assert got[0] == outcome
        assert projects < len(got[3]) * cfg["grid.N"]  # some layer-passes were skipped

    @pytest.mark.parametrize("converged", [True, False], ids=["converged-y", "zero-z-pass-y"])
    def test_pass_zero_trusts_no_init(self, monkeypatch, converged):
        # Pass 0 reads init's y and the z projected from it, values that no
        # pass built, so it compares every layer with init's and skips none:
        # from a converged y, whose pass 0 reproduces it, and from a y taken
        # from one pass at zero z with layer 0 moved.
        cfg = pure_quadratic_config(N=20)
        if converged:
            _, init_y, _, _ = _picard_outcome(_ref_picard_range, cfg)
        else:
            init_y = list(_picard_outcome(_ref_picard_range, cfg, max_iter=1)[1])
            init_y[0] = init_y[0] + 1.0
        init_y = np.concatenate(init_y)
        got, want, projects = _counted_outcome(monkeypatch, cfg, init_y=init_y)
        _assert_same_outcome(got, want)
        assert got[0] == "converged" and projects >= 20 * (1 + min(2, len(got[3])))

    def test_unchanged_y_under_a_changed_layer_is_rebuilt(self, monkeypatch):
        # dt = 1/4 keeps the sums exact, and z_k = project(y_{k+1}) is the
        # difference of neighbouring nodes.  Init's y_4 and y_3 step so that
        # its z_3 is (0.5, 1.5, 0.5, 1.5) and its z_2 0.25; the driver reads
        # no y.  Pass 1 moves y_3 by +-dt/8 in turn across the nodes, which
        # leaves every E[y_3 | node] and so y_2 as they were, but changes
        # z_2 = project(y_3); pass 2 must rebuild y_2.
        cfg = structured_config(**{"grid.N": 4, "generator.1.g": "norm(z1)",
                                   "terminal.1": "abs(w1)*(2-abs(w1))"})
        lat = make(cfg)[1]
        init = engine.zero_field(lat, 1)
        init.y[lat.rows(4), 0] = [0.0, 0.5, 2.0, 2.5, 4.0]
        init.y[lat.rows(3), 0] = [0.0, 0.25, 0.5, 0.75]
        got, want, _ = _counted_outcome(monkeypatch, cfg, init_y=init.y)
        _assert_same_outcome(got, want)
        assert got[3] == [4.0, 0.125, 0.0625, 0.0]  # pass 0 against init's y_4

    def test_signed_zero_is_a_change(self, monkeypatch):
        # y1 is +-0.0 everywhere and its sign flips from pass to pass, while
        # y2 settles layer by layer and keeps the passes going.
        cfg = (triangular_demo_config(N=12, terminal1="-0", terminal2="clamp(w1,-1,1)")
               | {"generator.1.k": "-y1"})
        got, want, _ = _counted_outcome(monkeypatch, cfg, tol=1e-12)
        _assert_same_outcome(got, want)
        y1 = np.concatenate([y[:, 0] for y in got[1]])
        assert got[0] == "converged" and len(got[3]) > 4
        assert np.all(y1 == 0.0) and 0 < np.signbit(y1).sum() < y1.size

    def test_init_is_not_mutated_or_aliased(self):
        inst, lat = make(remark22_config(N=20))
        init = shifted(engine.zero_field(lat, inst.n), 0.5)
        init.y.flags.writeable = False  # a write in place would raise
        values = init.y.copy()

        def unchanged():
            return _same_bits(init.y, values)

        field_, trace = q.picard_solve(inst, lat, init=init)
        assert unchanged() and len(trace) > 2
        assert not np.shares_memory(field_.y, init.y)

        # Fails at layer 10 once y is not init's.
        failing = _failing_at(compile_driver(inst.generator)[0], 10, 0.5, 0)
        term = engine.terminal_values(inst, lat)
        with pytest.raises(SolverError, match="failed at layer 10: planted failure"):
            engine.picard_range(lat, failing, term, 0, 20, out=_out_rows(lat, inst.n, 0, 20),
                                init_y=init.y)
        assert unchanged()


def _bmo_of(lattice, zs):
    """The BMO estimate over per-layer Z lists, as estimate_bmo computed it
    when a field stored Z."""
    acc, best = np.zeros(lattice.layer_size(lattice.grid.steps)), 0.0
    for k in range(lattice.grid.steps - 1, -1, -1):
        acc = sum_squares(zs[k], 2) * lattice.grid.dt + engine.cond_exp(lattice, k, acc)
        best = max(best, float(acc.max()))
    return math.sqrt(best)


def _chained_chunks(field_, inst, lat, **kwargs):
    """The two-list driver run on each chunk of a stitched field's trace,
    terminal side first: per-layer lists of y and z over layers 0..N."""
    driver = compile_driver(inst.generator)[0]
    term = engine.terminal_values(inst, lat)
    ys, zs = [term], []
    for chunk in field_.trace.chunks:
        y, z, _ = _ref_picard_range(lat, driver, term, chunk.end_layer, chunk.start_layer,
                                    **kwargs)
        ys, zs, term = y[:-1] + ys, z + zs, y[0]
    return ys, zs


def _assert_field_is(field_, ys, zs):
    assert field_.y.tobytes() == np.concatenate(ys).tobytes()
    assert len(field_.z) == len(zs) and all(_same_bits(a, b) for a, b in zip(field_.z, zs))


class TestDeclinedZ:
    """No solver stores Z: a field holds Y, and its Z is derived layer by
    layer.  The derived Z has the bits of the Z that the reference solvers
    store (here the two-list Picard driver, a textbook backward induction
    and the two-list driver chained over stitched chunks; test_drivers
    compares the frozen-y and triangular ones), and so does estimate_bmo."""

    @pytest.mark.parametrize("cfg, kwargs", [
        (remark22_config(N=20), {}),
        (remark22_config(N=20), {"k_lo": 12, "shift": 0.5}),
        (remark22_config(N=20), {"tol": 1e-12, "max_iter": 3}),
        (TRI_D2, {"tol": 1e-12, "max_iter": 2000}),
        (TRI_D2, {"shift": 1.0, "tol": 1e-12, "max_iter": 8}),
        (pure_quadratic_config(gamma=12.0, N=50), {"max_iter": 100}),
    ], ids=["remark22", "remark22-chunk-shifted", "remark22-nonconvergence", "joint-oracle-d2",
            "nonconvergence-d2", "divergence"])
    def test_same_y_and_trace(self, cfg, kwargs):
        # picard_range's Y, trace and the Z derived from its Y, converged or
        # partial, against the two-list driver's stored Z; remark22's t/z
        # stage depends on z.
        _assert_same_outcome(_picard_outcome(engine.picard_range, cfg, **kwargs),
                             _picard_outcome(_ref_picard_range, cfg, **kwargs))

    @pytest.mark.parametrize("cfg, c", [
        (remark22_config(N=20), None),
        (remark22_config(N=20), 1e-3),
        (structured_config(**{"problem.d": 2, "grid.N": 6, "terminal.1": "clamp(w1*w2,-1,1)",
                              "generator.1.g": "0.5*norm2(z1)"}), 1e-3),
    ], ids=["remark22", "remark22-truncated", "d2-truncated"])
    def test_direct(self, cfg, c):
        inst, lat = make(cfg)
        field_ = q.backward_solve(inst, lat, z_truncation=c)
        driver, y_dep = compile_driver(inst.generator)
        ys, zs, clips = _ref_backward(lat, driver, y_dep, engine.terminal_values(inst, lat), c)
        _assert_field_is(field_, ys, zs)
        assert field_.trace.z_clips == clips and (clips > 0) == (c is not None)
        assert q.estimate_bmo(field_) == _bmo_of(lat, zs)

    def test_picard_solve_from_a_solved_init(self):
        # Pass 0 reads init's Y and the Z projected from it.
        inst, lat = make(remark22_config(N=20))
        init = shifted(q.backward_solve(inst, lat), 0.125)
        field_, trace = q.picard_solve(inst, lat, init=init, tol=1e-12)
        ys, zs, want = _ref_picard_range(lat, compile_driver(inst.generator)[0],
                                         engine.terminal_values(inst, lat), 0, 20, tol=1e-12,
                                         init_y=init.y)
        _assert_field_is(field_, ys, zs)
        assert trace == want
        assert q.estimate_bmo(field_) == _bmo_of(lat, zs)

    @pytest.mark.parametrize("cfg, horizon, kwargs", [
        (remark22_config(N=20), 0.25, {}),
        (pure_quadratic_config(gamma=6.0, N=50), "adaptive", {"max_iter": 100}),
    ], ids=["horizon-0.25", "adaptive-one-halving"])
    def test_stitched(self, cfg, horizon, kwargs):
        inst, lat = make(cfg)
        field_, trace = q.solve_stitched(inst, lat, horizon=horizon, **kwargs)
        assert len(trace.chunks) == (4 if horizon == 0.25 else 2)
        assert len(trace.halvings) == (horizon == "adaptive")
        _assert_field_is(field_, *_chained_chunks(field_, inst, lat, **kwargs))

    def test_zero_step_grid(self):
        cfg = structured_config(**{"problem.T": 0.0, "grid.N": 3, "generator.1.g": "norm2(z1)",
                                   "terminal.1": "cos(w1)", "terminal.bound": 1.0})
        inst, lat = make(cfg)
        ys, zs, _ = _ref_picard_range(lat, compile_driver(inst.generator)[0],
                                      engine.terminal_values(inst, lat), 0, 3)
        for field_ in (q.backward_solve(inst, lat, z_truncation=0.5), q.picard_solve(inst, lat)[0],
                       q.solve_stitched(inst, lat)[0]):
            _assert_field_is(field_, ys, zs)
            assert q.estimate_bmo(field_) == 0.0

    @pytest.mark.parametrize("init", [True, False], ids=["with-z", "without-z"])
    def test_held_driver_error(self, init):
        # The driver fails at layer 7 once y is not init's: pass 0 evaluates
        # it at init's y there, with the z projected from init's Y ("with-z",
        # init one pass of the two-list driver) or with zero y and z.  The
        # value kept after pass 0 fails, and pass 1 raises that error on
        # reaching layer 7, as the two-list driver does.
        cfg = remark22_config(N=20)
        inst, lat = make(cfg)
        kwargs = {}
        if init:
            first = _picard_outcome(_ref_picard_range, cfg, tol=0.0, max_iter=1)[1]
            kwargs["init_y"] = np.concatenate(first)
        failing = _failing_at(compile_driver(inst.generator)[0], 7,
                              kwargs["init_y"][lat.rows(7)] if init else 0.0, 3)
        term = engine.terminal_values(inst, lat)
        message = "^driver evaluation failed at layer 7: planted failure at position 3$"
        with pytest.raises(SolverError, match=message):
            _ref_picard_range(lat, failing, term, 0, 20, **kwargs)
        ys = _out_rows(lat, inst.n, 0, 20)
        with pytest.raises(SolverError, match=message):
            engine.picard_range(lat, failing, term, 0, 20, out=ys, **kwargs)
        # Pass 1 stopped at layer 7: the rows below it still hold pass 0.
        pass0 = _picard_outcome(_ref_picard_range, cfg, tol=0.0, max_iter=1, **kwargs)[1]
        assert all(_same_bits(ys[lat.rows(k)], pass0[k]) for k in range(8))
        assert not any(_same_bits(ys[lat.rows(k)], pass0[k]) for k in range(8, 20))


FILLS = ["nan", "terminal", "zeros"]


class TestDestinationIndependence:
    """What the destination rows held before a solve never reaches its
    result.  In particular picard_range's pass 0 measures the terminal's
    change against init (zero by default), never against the top rows,
    which in a stitched chunk below the first already hold the terminal."""

    @pytest.mark.parametrize("fill", FILLS)
    def test_backward_range(self, fill):
        # remark22 reads y, so its step is implicit and reports no change.
        # pure_quadratic reads none, so its explicit step stages the driver
        # at whatever the rows held, NaN included, and must not see it; the
        # change it reports against rows that held NaN is NaN.
        for cfg in (remark22_config(N=20), pure_quadratic_config(N=20)):
            inst, lat = make(cfg)
            driver, y_dep = compile_driver(inst.generator)
            term = engine.terminal_values(inst, lat)
            ys = _out_rows(lat, inst.n, 0, 20, fill, term)
            change = backward_range(lat, driver, y_dep, term, 0, 20, out=ys)
            assert ys.tobytes() == q.backward_solve(inst, lat).y.tobytes()
            if y_dep:
                assert change == 0.0
            else:
                assert math.isnan(change) == (fill == "nan") and change != 0.0

    @pytest.mark.parametrize("fill", FILLS)
    @pytest.mark.parametrize("cfg, kwargs", [
        (pure_quadratic_config(N=20), {}),
        (pure_quadratic_config(gamma=12.0, N=50), {"max_iter": 100}),
        (remark22_config(N=20), {"k_lo": 5, "shift": 0.5, "tol": 1e-12, "max_iter": 2}),
    ], ids=["pure-quadratic", "divergence", "nonconvergence-shifted"])
    def test_picard_range(self, cfg, kwargs, fill):
        got = _picard_outcome(engine.picard_range, cfg, fill=fill, **kwargs)
        _assert_same_outcome(got, _picard_outcome(_ref_picard_range, cfg, **kwargs))

    @pytest.mark.parametrize("fill", FILLS)
    def test_stitched_chunk(self, fill):
        # The chunk below layer 12 gets its terminal as a view of its own top
        # rows, as _march passes it.  Pass 0's change is max |y_12| there: on
        # this driver each lower layer of pass 0 averages y_12 down.
        inst, lat = make(pure_quadratic_config(N=20))
        upper = _ref_picard_range(lat, compile_driver(inst.generator)[0],
                                  engine.terminal_values(inst, lat), 12, 20)
        term = upper[0][0]
        ys = _out_rows(lat, 1, 0, 12, fill, term)
        top = ys[lat.rows(12)]
        top[...] = term
        got_y, got_z, got_trace = engine.picard_range(
            lat, compile_driver(inst.generator)[0], top, 0, 12, out=ys)
        want = _ref_picard_range(lat, compile_driver(inst.generator)[0], term, 0, 12)
        _assert_same_outcome(
            ("converged", _layers(lat, got_y, 0, 13), list(got_z), got_trace),
            ("converged",) + want)
        assert got_trace[0] == float(np.abs(term).max())


class TestFieldStatistics:
    def test_sup_norm_examples(self):
        inst, lat = make(structured_config())
        assert q.sup_norm_y(q.zero_field(lat, 2).y) == 0.0
        const = shifted(q.zero_field(lat, 2), 0.5)
        assert q.sup_norm_y(const.y) == pytest.approx(0.5 * math.sqrt(2), rel=1e-15)
        f = q.backward_solve(inst, lat)
        assert q.sup_norm_y(f.y) == 1.0  # terminal nodes sit at +-1

    def test_bmo_examples(self):
        inst, lat = make(structured_config())
        assert q.estimate_bmo(q.zero_field(lat, 1)) == 0.0
        f = q.backward_solve(inst, lat)
        assert q.estimate_bmo(f) == pytest.approx(1.0, rel=1e-15)

    def test_bmo_homogeneity(self):
        inst, lat = make(remark22_config(N=12))
        f = q.backward_solve(inst, lat)
        doubled = q.SolutionField(2.0 * f.y, lat)  # Z is linear in Y
        assert q.estimate_bmo(doubled) == pytest.approx(
            2.0 * q.estimate_bmo(f), rel=1e-12)

    def test_bmo_longer_horizon_at_root(self):
        # constant Z = 1 on [0, T]: estimate is sqrt(T)
        cfg = structured_config(**{"problem.T": 4.0, "grid.N": 16,
                                   "terminal.1": "w1", "terminal.bound": 8.0})
        inst, lat = make(cfg)
        f = q.backward_solve(inst, lat)
        assert q.estimate_bmo(f) == pytest.approx(2.0, rel=1e-12)


class TestDriverStage:
    """driver(k, t, z) stages layer k and holds nothing itself: its stage
    values(y) gives a freshly compiled driver's bits, for every y it is
    called on and whatever else is staged meanwhile, and a new staging
    reads z as it is then."""

    def setup_method(self):
        g = tuple(q.parse_expr(f"t*norm2(z{i})*sin(log(norm(z{i})+1))", 2, 1) for i in (1, 2))
        h = (q.parse_expr("normy + log(normz+1)", 2, 1),) * 2
        gen = GeneratorModel(STRUCTURED, 2, 1, g=g, h=h)
        self.driver, _ = compile_driver(gen)
        self.fresh = lambda k, t, y, z: compile_driver(gen)[0](k, t, z)(y).tobytes()
        rng = np.random.default_rng(21)
        self.y = rng.normal(size=(6, 2))
        self.z = rng.normal(size=(6, 2, 1))

    def test_z_written_in_place_is_restaged(self):
        z = self.z.copy()
        before = self.driver(3, 0.5, z)(self.y)
        z *= 2.0  # new values through the same array, then the same (k, t)
        after = self.driver(3, 0.5, z)(self.y)
        assert after.tobytes() == self.fresh(3, 0.5, self.y, 2.0 * self.z)
        assert not np.array_equal(before, after)

    def test_one_stage_serves_many_y(self):
        values = self.driver(3, 0.5, self.z)
        for y in (self.y, 3.0 * self.y, self.y[::-1].copy(), self.y):
            self.driver(2, 0.25, 2.0 * self.z)(y)  # another stage in between
            assert values(y).tobytes() == self.fresh(3, 0.5, y, self.z)

    def test_t_dependent_generator(self):
        # g = t*norm2(z)*...: the same layer and z staged at other times.
        got = [self.driver(3, t, self.z)(self.y) for t in (0.5, 0.25, 0.0)]
        for t, values in zip((0.5, 0.25, 0.0), got):
            assert values.tobytes() == self.fresh(3, t, self.y, self.z)
        assert not np.array_equal(got[0], got[1]) and not np.array_equal(got[1], got[2])


class TestWrappedDriver:
    """A driver passed on as ``lambda *a: driver(*a)``, the way a tracing
    wrapper passes it, gives every solver the same bits: staging is one
    call, whose result the solver keeps and calls."""

    @pytest.mark.parametrize("cfg", [remark22_config(N=20), TRI_D2], ids=["remark22", "tri-d2"])
    def test_backward_and_picard_range(self, cfg):
        inst, lat = make(cfg)
        driver, y_dep = compile_driver(inst.generator)
        term = engine.terminal_values(inst, lat)
        N = lat.grid.steps

        def solves(drv):
            ys = _out_rows(lat, inst.n, 0, N)
            backward_range(lat, drv, y_dep, term, 0, N, out=ys)
            picard_y, _, trace = engine.picard_range(lat, drv, term, 0, N,
                                                     out=_out_rows(lat, inst.n, 0, N),
                                                     tol=1e-12, max_iter=2000)
            return [ys.tobytes(), picard_y.tobytes(), np.asarray(trace).tobytes()]

        assert solves(lambda *a: driver(*a)) == solves(driver)

    def test_composed_drivers(self, monkeypatch):
        def solves():
            tri = q.solve_triangular(*make(TRI_D2))
            stitched, _ = q.solve_stitched(*make(remark22_config(N=20)), horizon=0.25,
                                           mode="direct")
            return [f.y.tobytes() for f in (tri, stitched)]

        want = solves()
        # Wrap the driver of every backward_range call of the contraction and
        # the stitched direct solve, as a tracer's hook does.
        backward = drivers.backward_range
        monkeypatch.setattr(drivers, "backward_range", lambda lattice, driver, *a, **kw:
                            backward(lattice, lambda *b: driver(*b), *a, **kw))
        assert solves() == want
