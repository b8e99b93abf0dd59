"""Global constructors (stitching, triangular, frozen-y) and oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqbsde as q
from dqbsde import certs, csvrows, drivers, engine
from dqbsde.drivers import AdaptiveFloorError, match_linear, match_pure_quadratic, match_zero

from conftest import (contraction_config, field_sup_diff, flat_z, make, pure_quadratic_config,
                      reference_eval, remark22_config, shifted, structured_config,
                      triangular_demo_config)

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
            assert one.y.tobytes() == two.y.tobytes()

    def test_remark22_chunks_within_lambda(self):
        inst, lat = make(remark22_config(N=50))
        field, plan = q.solve_stitched(inst, lat, horizon=0.5, mode="picard",
                                       tol=1e-10)
        cert = q.build_certificate(inst)
        sup_y = [q.sup_norm_y(field.y[lat.rows(c.end_layer, c.start_layer + 1)])
                 for c in plan.chunks]
        assert all(s <= cert.lambda_bound for s in sup_y)
        assert max(sup_y) == q.sup_norm_y(field.y)

    def test_adaptive_halving_logged(self):
        inst, lat = make(pure_quadratic_config(gamma=6.0, N=50))
        field, plan = q.solve_stitched(inst, lat, horizon="adaptive", mode="picard",
                                       tol=1e-10, max_iter=100)
        (halving,) = plan.halvings
        assert (halving.before, halving.after) == (1.0, 0.5)
        # The full-horizon attempt's passes, as picard_solve on the same problem diverges.
        with pytest.raises(engine.PicardDivergenceError) as exc:
            q.picard_solve(inst, lat, tol=1e-10, max_iter=100)
        assert len(halving.changes) == 5 and halving.changes == exc.value.trace
        assert [(c.start_layer, c.end_layer) for c in plan.chunks] == [(50, 25), (25, 0)]

    def test_one_chunk_is_picard_solve(self):
        inst, lat = make(remark22_config(N=20))
        ref, _ = q.picard_solve(inst, lat)
        field, plan = q.solve_stitched(inst, lat, horizon=1.0, mode="picard")
        assert len(plan.chunks) == 1 and field.y.shape == ref.y.shape
        assert ref.y.tobytes() == field.y.tobytes()

    def test_horizon_below_one_layer(self):
        inst, lat = make(pure_quadratic_config(N=10))
        with pytest.raises(ValueError, match="below one layer"):
            q.solve_stitched(inst, lat, horizon=0.01)

    def test_horizon_must_align(self):
        inst, lat = make(pure_quadratic_config(N=10))
        with pytest.raises(ValueError, match="align"):
            q.solve_stitched(inst, lat, horizon=0.25)

    @pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan])
    def test_horizon_must_be_finite(self, horizon):
        inst, lat = make(pure_quadratic_config(N=10))
        with pytest.raises(ValueError, match=f"chunk horizon {horizon} is not finite"):
            q.solve_stitched(inst, lat, horizon=horizon)

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
        ys, zs, trace = q.frozen_y_contraction(*sp, 0.0, lat, tol=1e-10)
        assert len(trace.chunks) == 1

    def test_y_free_driver_confirms_in_one_extra_iteration(self):
        cfg = structured_config(**{"grid.N": 10, "generator.1.g": "0.5*norm2(z1)",
                                   "terminal.1": "clamp(w1,-1,1)"})
        inst, lat = make(cfg)
        sp = q.scalar_problem(inst, lat)
        ys, zs, trace = q.frozen_y_contraction(*sp, 0.0, lat, tol=1e-10)
        assert len(trace.chunks) == 1
        assert len(trace.changes[0]) == 2          # solve, then a zero-change pass
        assert trace.changes[0][1] == 0.0

    def test_schedule_quarter_intervals(self):
        inst, lat = make(contraction_config(N=40, lip_beta=2.0))
        sp = q.scalar_problem(inst, lat)
        ys, zs, trace = q.frozen_y_contraction(*sp, 2.0, lat, tol=1e-10)
        assert len(trace.chunks) == 4
        assert all(abs((c.start_layer - c.end_layer) * lat.grid.dt - 0.25) < 1e-12
                   for c in trace.chunks)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_outer_limit_below_one_rejected(self, limit):
        inst, lat = make(contraction_config(N=8))
        with pytest.raises(ValueError, match="^max_outer must be >= 1"):
            q.frozen_y_contraction(*q.scalar_problem(inst, lat), 2.0, lat, max_outer=limit)

    def test_matches_backward_solve_on_linear_driver(self):
        inst, lat = make(linear_config(-1.0, 0.0, N=10))
        sp = q.scalar_problem(inst, lat)
        ys, _, _ = q.frozen_y_contraction(*sp, 1.0, lat, tol=1e-12)
        assert ys[0, 0] == pytest.approx((1 + 0.1) ** -10, abs=1e-10)


class TestSolveTriangular:
    def test_zero_terminal_zero_fixed_point(self):
        cfg = triangular_demo_config(terminal1="0", terminal2="0", bound=0.0)
        inst, lat = make(cfg)
        f = q.solve_triangular(inst, lat)
        assert q.sup_norm_y(f.y) == 0.0
        assert np.all(flat_z(f) == 0.0)

    def test_matches_joint_picard(self, triangular_demo_instance):
        inst, lat = triangular_demo_instance
        f = q.solve_triangular(inst, lat, tol=1e-10)
        ref = q.oracle_joint_picard(inst, lat, tight_tol=1e-12)
        assert field_sup_diff(f, ref) <= 1e-8

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

    def test_component_failure_keeps_its_class(self):
        # The component's own error goes up with "component i: " before its
        # message, so a caller that catches the subclass reads its fields.
        inst, lat = make(contraction_config(N=40))
        with pytest.raises(engine.PicardNonconvergenceError) as caught:
            q.solve_triangular(inst, lat, max_outer=3)
        assert str(caught.value) == ("component 1: Picard iteration did not converge in 3 "
                                     "iterations (last change 1.375e-01)")
        assert caught.value.trace == [1.0, 0.5000000000000004, 0.13749999999999973]
        assert caught.value.partial is None
        cfg = dict(triangular_demo_config(N=2), **{"problem.T": 4.0, "generator.2.k": "1e308"})
        with pytest.raises(engine.NonFiniteError) as caught:
            q.solve_triangular(*make(cfg))
        assert str(caught.value) == "component 2: non-finite value at layer 1, node 0"
        assert (caught.value.layer, caught.value.node) == (1, 0)


class TestTriangularWithoutZ:
    """solve_triangular stores no Z, also when a later component reads an
    earlier one's z, which its driver projects from the earlier component's
    Y at staging: its Y, the Z derived from it and its trace are those of
    the textbook triangular solve, which stores Z."""

    @pytest.mark.parametrize("k2", [
        "y1 + 0.5*norm2(z2)", "y1 + 0.5*norm2(z2) + 0.25*norm(z1)", "y1 + 0.25*normz",
    ], ids=["own-z", "reads-z1", "normz"])
    def test_same_y(self, k2):
        inst, lat = make(triangular_demo_config(N=12)
                         | {"problem.d": 2, "triangular.lipBeta": 2.0, "generator.2.k": k2})
        got = q.solve_triangular(inst, lat)
        want_y, want_z, want_changes = _ref_triangular(inst, lat)
        assert got.y.tobytes() == want_y.tobytes()
        assert flat_z(got).tobytes() == want_z.tobytes()
        assert got.trace.changes == want_changes


def _ref_frozen_y(driver, terminal, lip_beta, lat, tol=1e-10, max_outer=200):
    """The textbook frozen-y map: each outer iteration keeps a full copy of
    the chunk's previous iterate, evaluates the driver at that copy and
    takes its change against it.  Returns flat (y, z) and each chunk's
    changes; raises PicardNonconvergenceError with the failing chunk's."""
    N, dt = lat.grid.steps, lat.grid.dt
    H = certs.contraction_horizon(lip_beta)
    L = N if not math.isfinite(H) or H >= lat.grid.horizon else int(math.floor(H / dt + 1e-9))
    y = np.zeros((lat.total_nodes, 1))
    z = np.zeros((lat.rows(0, N).stop, 1, lat.d))
    y[lat.rows(N)] = terminal
    chunks = []
    k_hi = N
    while k_hi > 0:
        k_lo = max(0, k_hi - L)
        prev = np.zeros_like(y)  # the zero iterate, the chunk's terminal layer too
        changes = []
        for _ in range(max_outer):
            for k in range(k_hi - 1, k_lo - 1, -1):
                expectation, z[lat.rows(k)] = engine.project(lat, k, y[lat.rows(k + 1)])
                values = driver(k, lat.grid.time(k), z[lat.rows(k)])
                y[lat.rows(k)] = expectation + values(prev[lat.rows(k)]) * dt
            live = lat.rows(k_lo, k_hi + 1)
            changes.append(float(np.abs(y[live] - prev[live]).max()))
            prev[live] = y[live]
            if changes[-1] <= tol:
                break
        else:
            raise engine.PicardNonconvergenceError(changes)
        chunks.append(changes)
        k_hi = k_lo
    return y, z, chunks


def _ref_triangular(inst, lat, tol=1e-10, max_outer=200):
    """Components in order, each by ``_ref_frozen_y`` with a driver that
    interprets its expression at the solved components' y and z, its own
    frozen y and staged z, and zeros for the components after it."""
    n, N = inst.n, lat.grid.steps
    y = np.zeros((lat.total_nodes, n))
    z = np.zeros((lat.rows(0, N).stop, n, lat.d))
    y[lat.rows(N)] = engine.terminal_values(inst, lat)
    chunks = []
    for i in range(n):
        def driver(k, t, z_i, i=i):
            def values(y_i):
                y_k, z_k = y[lat.rows(k)].copy(), z[lat.rows(k)].copy()
                y_k[:, i:i + 1], z_k[:, i:i + 1] = y_i, z_i
                out = reference_eval(inst.generator.k[i], q.EvalEnv(t=t, y=y_k, z=z_k))
                return np.broadcast_to(np.asarray(out, dtype=float), (len(y_k),))[:, None]
            return values

        y_i, z_i, changes = _ref_frozen_y(driver, y[lat.rows(N), i:i + 1].copy(),
                                          inst.params.lip_beta, lat, tol, max_outer)
        y[:, i:i + 1], z[:, i:i + 1] = y_i, z_i
        chunks += changes
    return y, z, chunks


class TestFrozenYReference:
    """frozen_y_contraction and solve_triangular give the bits of the
    textbook frozen-y map: Y, Z, every chunk's changes, and the trace of a
    PicardNonconvergenceError."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("lip_beta, intervals", [(0.25, 1), (2.0, 4)],
                             ids=["one-interval", "four-intervals"])
    def test_driver_reading_y(self, lip_beta, intervals, d):
        inst, lat = make(contraction_config(N=24, lip_beta=lip_beta) | {"problem.d": d})
        problem = drivers.scalar_problem(inst, lat)
        y, z, trace = drivers.frozen_y_contraction(*problem, lip_beta, lat)
        want_y, want_z, want_changes = _ref_frozen_y(*problem, lip_beta, lat)
        assert len(trace.chunks) == intervals
        assert y.tobytes() == want_y.tobytes()
        assert np.concatenate(list(z)).tobytes() == want_z.tobytes()
        assert trace.changes == want_changes
        with pytest.raises(engine.PicardNonconvergenceError) as want:
            _ref_frozen_y(*problem, lip_beta, lat, max_outer=3)
        with pytest.raises(engine.PicardNonconvergenceError) as got:
            drivers.frozen_y_contraction(*problem, lip_beta, lat, max_outer=3)
        assert got.value.trace == want.value.trace

    @pytest.mark.parametrize("cfg", [
        triangular_demo_config(N=24),
        triangular_demo_config(N=24) | {"problem.d": 2, "triangular.lipBeta": 2.0,
                                        "generator.2.k": "y1 + 0.5*y2 + 0.25*norm(z1)"},
        contraction_config(N=24),
    ], ids=["demo", "demo-d2-reads-y2-z1", "contraction"])
    def test_solve_triangular(self, cfg):
        inst, lat = make(cfg)
        want_y, want_z, want_changes = _ref_triangular(inst, lat)
        got = q.solve_triangular(inst, lat)
        assert got.y.tobytes() == want_y.tobytes()
        assert flat_z(got).tobytes() == want_z.tobytes()
        assert got.trace.changes == want_changes
        with pytest.raises(engine.PicardNonconvergenceError) as want:
            _ref_triangular(inst, lat, max_outer=1)
        with pytest.raises(engine.PicardNonconvergenceError) as got:
            q.solve_triangular(inst, lat, max_outer=1)
        assert got.value.trace == want.value.trace


class TestOraclePureQuadratic:
    def test_constant_terminal_passes_through(self):
        _, lat = make(structured_config(**{"grid.N": 6}))
        term = np.full(7, 0.3)
        y0, y = q.oracle_pure_quadratic(1.0, term, lat)
        assert y0 == pytest.approx(0.3, rel=1e-14)
        assert y.shape == (lat.total_nodes,) and np.allclose(y, 0.3, atol=1e-14)

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
        y = q.oracle_linear(1.0, 0.0, term, lat)
        assert y[0] == pytest.approx(math.e, rel=1e-14)

    def test_pure_expectation(self):
        inst, lat = make(structured_config(**{"grid.N": 8, "terminal.1": "w1",
                                              "terminal.bound": 4.0}))
        term = q.terminal_values(inst, lat)[:, 0]
        y = q.oracle_linear(0.0, 0.0, term, lat)
        assert y[0] == pytest.approx(0.0, abs=1e-15)

    def test_constant_integral(self):
        _, lat = make(structured_config(**{"grid.N": 8}))
        y = q.oracle_linear(0.0, 1.0, np.zeros(9), lat)
        assert y[0] == pytest.approx(1.0, rel=1e-15)


class TestOracleJointPicard:
    def test_zero_problem(self):
        cfg = structured_config(**{"terminal.1": "0", "terminal.bound": 0.0})
        inst, lat = make(cfg)
        f = q.oracle_joint_picard(inst, lat)
        assert q.sup_norm_y(f.y) == 0.0

    def test_cross_check_with_backward(self):
        inst, lat = make(pure_quadratic_config(N=40))
        ref = q.oracle_joint_picard(inst, lat, tight_tol=1e-12)
        direct = q.backward_solve(inst, lat, inner_tol=1e-14)
        assert field_sup_diff(ref, direct) <= 1e-11

    def test_is_picard_solve_at_the_tight_tolerance(self):
        inst, lat = make(triangular_demo_config(N=12)
                         | {"problem.d": 2, "triangular.lipBeta": 2.0})
        oracle = q.oracle_joint_picard(inst, lat, tight_tol=1e-11, max_iter=300)
        ref, changes = q.picard_solve(inst, lat, tol=1e-11, max_iter=300)
        assert oracle.y.tobytes() == ref.y.tobytes()
        assert oracle.trace.changes == [changes]


@pytest.mark.parametrize("mismatch, message", [
    (lambda inst: q.build_lattice(q.build_time_grid(2.0, inst.grid.steps), inst.d),
     "lattice grid differs from the instance grid"),
    (lambda inst: q.build_lattice(inst.grid, 2), "lattice dimension 2 != problem dimension 1"),
], ids=["grid", "dimension"])
@pytest.mark.parametrize("entry", [q.solve_stitched, q.oracle_joint_picard, q.solve_triangular,
                                   q.scalar_problem],
                         ids=lambda fn: fn.__name__)
def test_lattice_of_another_problem_rejected(entry, mismatch, message):
    inst, _ = make(contraction_config(N=8))
    with pytest.raises(ValueError, match=message):
        entry(inst, mismatch(inst))


class TestShapeMatchers:
    TWO_COMPONENTS = {"problem.n": 2, "generator.2.g": "0.85*norm2(z2)",
                      "generator.2.h": "0", "terminal.2": "0"}

    def test_pure_quadratic_recognized(self):
        gen = make(pure_quadratic_config(gamma=1.7) | self.TWO_COMPONENTS)[0].generator
        assert gen.n == 2
        assert match_pure_quadratic(gen) == pytest.approx(1.7, rel=1e-15)

    def test_pure_quadratic_unequal_coefficients_not_matched(self):
        cfg = pure_quadratic_config(gamma=1.7) | self.TWO_COMPONENTS
        gen = make(cfg | {"generator.2.g": "0.9*norm2(z2)"})[0].generator
        assert match_pure_quadratic(gen) is None

    def test_linear_recognized(self):
        gen = make(linear_config(-1.5, 0.25))[0].generator
        assert match_linear(gen) == (-1.5, 0.25)

    def test_remark22_not_matched(self):
        gen = make(remark22_config())[0].generator
        assert match_pure_quadratic(gen) is None
        assert match_linear(gen) is None

    def test_zero_recognized(self):
        gen = make(linear_config(0.0, 0.0))[0].generator
        assert match_linear(gen) == (0.0, 0.0)
        inst, _ = make(structured_config())
        assert match_zero(inst.generator)


class TestUniquenessEvidence:
    def test_remark22_init_independence(self):
        inst, lat = make(remark22_config(N=30))
        a, _ = q.picard_solve(inst, lat, tol=1e-10)
        b, _ = q.picard_solve(inst, lat, init=shifted(q.zero_field(lat, 2), 1.0),
                              tol=1e-10)
        assert field_sup_diff(a, b) <= 1e-8


def _live_ratio(solve, lat, n):
    """Traced peak of a second ``solve()`` (tracemalloc sees numpy's data
    buffers) over the bytes of a full field of n components, Y and Z, on
    ``lat``, the field that solvers stored before Z was derived.  The first
    call warms up whatever a first call in the process allocates, so a bound
    does not depend on which tests ran before it."""
    solve()
    tracemalloc.start()
    try:
        solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * n * (lat.total_nodes + lat.rows(0, lat.grid.steps).stop * lat.d))


class TestLiveFields:
    """Every solver writes Y alone into the one field its caller allocates,
    so a solve holds that Y plus one layer's temporaries, and a Picard solve
    also the driver's values, one Y-shaped buffer.  Ratios to a full Y+Z
    field, measured after a warm-up call: picard_solve 1.40, the joint
    oracle 1.06, solve_triangular 0.66, frozen-y 0.70 on one interval and on
    four, stitched on four chunks 1.11, and a direct solve followed by
    estimate_bmo and a full solution_rows write 0.79 (the writer's scratch
    is 0.3 of it).  Each bound sits below the ratio of a design that stores
    Z, measured when solvers did: picard_solve 1.88, triangular 1.19,
    frozen-y 1.26, stitched 1.60 and the direct write 1.28; the oracle's
    bound sits below a lattice kernel that sums whole layers in temporaries
    of their own (1.18) instead of slabs in a fixed scratch.  Each also sits
    below a design that holds more Y: a Picard driver that keeps a second
    field beside its iterate, a triangular driver that copies the field's
    rows of layer k on every call, a frozen-y map that keeps a copy of the
    chunk's previous y instead of reading it from the rows it writes over,
    or a march that solves each chunk into rows of its own and pastes them
    in."""

    def test_picard_solve(self):
        inst, lat = make(remark22_config(N=60))
        assert _live_ratio(lambda: q.picard_solve(inst, lat)[0], lat, 2) <= 1.6

    @pytest.mark.parametrize("solve, bound", [
        (drivers.oracle_joint_picard, 1.12),
        (drivers.solve_triangular, 0.8),
    ], ids=["oracle_joint_picard", "solve_triangular"])
    def test_joint_oracle_and_triangular(self, solve, bound):
        inst, lat = make(triangular_demo_config(N=24)
                         | {"problem.d": 2, "triangular.lipBeta": 2.0})
        assert _live_ratio(lambda: solve(inst, lat), lat, 2) <= bound

    def test_frozen_y_contraction(self):
        inst, lat = make(contraction_config(N=24, lip_beta=0.25)
                         | {"problem.d": 2, "generator.1.k": "0.25*y1 + 0.5*norm2(z1)"})
        problem = drivers.scalar_problem(inst, lat)
        assert _live_ratio(lambda: drivers.frozen_y_contraction(*problem, 0.25, lat),
                           lat, 1) <= 0.8

    def test_stitched_four_chunks(self):
        inst, lat = make(remark22_config(N=60))
        assert len(q.solve_stitched(inst, lat, horizon=0.25)[1].chunks) == 4
        assert _live_ratio(lambda: q.solve_stitched(inst, lat, horizon=0.25)[0], lat, 2) <= 1.3

    def test_frozen_y_contraction_four_intervals(self):
        inst, lat = make(contraction_config(N=24, lip_beta=2.0)
                         | {"problem.d": 2, "generator.1.k": "0.25*y1 + 0.5*norm2(z1)"})
        problem = drivers.scalar_problem(inst, lat)
        assert len(drivers.frozen_y_contraction(*problem, 2.0, lat)[2].chunks) == 4
        assert _live_ratio(lambda: drivers.frozen_y_contraction(*problem, 2.0, lat),
                           lat, 1) <= 0.8

    def test_direct_solve_bmo_and_solution_rows(self):
        # The readers of Z derive it a layer at a time: the BMO walk and the
        # CSV writer, whose passes hold one layer of Z.
        inst, lat = make(remark22_config(N=400))

        def run():
            field_ = q.backward_solve(inst, lat)
            q.estimate_bmo(field_)
            for _ in csvrows.solution_rows(field_):
                pass

        assert _live_ratio(run, lat, 2) <= 0.9


# ---------------------------------------------------------------------------
# Cross-scheme agreement on random admissible instances
# ---------------------------------------------------------------------------

def _structured_family(n, d, T, N, c, a, b, s):
    """g_i = c norm2(z_i), h_i = a y_i + b_i and terminal clamp(s w1, -1, 1)."""
    cfg = structured_config(**{"problem.n": n, "problem.d": d, "problem.T": T, "grid.N": N,
                               "params.gamma": max(2.0 * abs(c), 1.0)})
    for i in range(1, n + 1):
        cfg[f"generator.{i}.g"] = f"{c!r}*norm2(z{i})"
        cfg[f"generator.{i}.h"] = f"{a!r}*y{i} + {b[i - 1]!r}"
        cfg[f"terminal.{i}"] = f"clamp({s!r}*w1,-1,1)"
    return cfg


def _triangular_family(d, T, N, c, a, e, b, s):
    """k_i = c_i norm2(z_i) + a_i y_i + b_i, component 2 also reading
    e (y1 + norm(z1)); lipBeta is max |a_i|, so a_i beyond 1 splits [0, T]
    into several sub-intervals."""
    return triangular_demo_config(N=N) | {
        "problem.d": d, "problem.T": T, "triangular.lipBeta": max(map(abs, a)),
        "generator.1.k": f"{c[0]!r}*norm2(z1) + {a[0]!r}*y1 + {b[0]!r}",
        "generator.2.k": f"{c[1]!r}*norm2(z2) + {a[1]!r}*y2 + {e!r}*(y1 + norm(z1)) + {b[1]!r}",
        "terminal.1": f"clamp({s[0]!r}*w1,-1,1)", "terminal.2": f"clamp({s[1]!r}*w{d},-1,1)"}


_unit = st.floats(-1.0, 1.0)
_dims = st.sampled_from([1, 2])
_horizons = st.floats(0.0, 0.5)
_steps = st.sampled_from([2, 4, 6, 8, 10, 12])
_slopes = st.floats(-4.0, 4.0)


class TestCrossScheme:
    """Direct, Picard, stitched and triangular solves of one instance agree,
    and they meet the linear oracle where the driver is a constant."""

    @given(n=_dims, d=_dims, T=_horizons, N=_steps, c=_unit, a=_unit,
           b=st.tuples(_unit, _unit), s=_slopes)
    @settings(max_examples=25, deadline=None)
    def test_structured_schemes_agree(self, n, d, T, N, c, a, b, s):
        inst, lat = make(_structured_family(n, d, T, N, c, a, b, s))
        direct = q.backward_solve(inst, lat, inner_tol=1e-12)
        for field_ in (q.picard_solve(inst, lat, tol=1e-12)[0],
                       q.solve_stitched(inst, lat, horizon=T / 2, tol=1e-12)[0]):
            assert np.abs(field_.y - direct.y).max() <= 1e-8

    @given(d=_dims, T=_horizons, N=_steps, c=st.tuples(_unit, _unit),
           a=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), e=_unit,
           b=st.tuples(_unit, _unit), s=st.tuples(_slopes, _slopes))
    @settings(max_examples=25, deadline=None)
    def test_triangular_matches_joint_picard(self, d, T, N, c, a, e, b, s):
        inst, lat = make(_triangular_family(d, T, N, c, a, e, b, s))
        f = q.solve_triangular(inst, lat, tol=1e-12)
        ref = q.oracle_joint_picard(inst, lat, tight_tol=1e-12)
        assert field_sup_diff(f, ref) <= 1e-8

    @given(n=_dims, d=_dims, T=_horizons, N=_steps, b=st.tuples(_unit, _unit), s=_slopes)
    @settings(max_examples=25, deadline=None)
    def test_constant_driver_is_linear_oracle(self, n, d, T, N, b, s):
        # c = a = 0 leaves f_i = b_i, whose solution is E[xi | node] + b_i (T - t).
        cfg = _structured_family(n, d, T, N, 0.0, 0.0, b, s)
        inst, lat = make(cfg)
        tri = q.assemble_problem(
            {k: v for k, v in cfg.items() if not k.startswith("generator.")}
            | {"generator.kind": "triangular"}
            | {f"generator.{i}.k": repr(b[i - 1]) for i in range(1, n + 1)})
        term = engine.terminal_values(inst, lat)
        want = np.stack([q.oracle_linear(0.0, b[i], term[:, i], lat) for i in range(n)], axis=1)
        for field_ in (q.backward_solve(inst, lat, inner_tol=1e-12),
                       q.picard_solve(inst, lat, tol=1e-12)[0],
                       q.solve_stitched(inst, lat, horizon=T / 2, tol=1e-12)[0],
                       q.solve_triangular(tri, lat, tol=1e-12)):
            assert np.abs(field_.y - want).max() <= 1e-12
