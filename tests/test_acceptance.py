"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Golden constants were recomputed independently with 40-digit
arithmetic from the closed forms before the implementation existed and are
asserted at 1e-6 relative (tighter than their published 6-digit roundings,
which are only accurate to about 5e-5 relative and are cross-checked at
that level).
"""

import math
import time

import numpy as np

import dqbsde as q

from conftest import (contraction_config, field_sup_diff, flat_z, make, planted_h2_config,
                      pure_quadratic_config, remark22_config, shifted, structured_config,
                      triangular_demo_config)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_01_log_inequality_scan():
    t0 = time.perf_counter()
    scan = q.scan_log_inequality((1e-6, 1e6, 60), (1e-6, 1e6, 60), (1e-6, 1e6, 60))
    violations = int(np.count_nonzero(scan.residuals < -1e-9))
    elapsed = time.perf_counter() - t0
    # the grid argmin of the strictly convex slice must bracket the exact
    # stationary root of 2x^2 + 2x = C/y within one cell (the "one grid-cell
    # tolerance" on |2x* - k/(1+x*)|, by monotonicity of that expression)
    ok = (scan.min_residual >= -1e-9 and violations == 0
          and scan.max_argmin_cell_offset <= 1 and elapsed < 5.0)
    report(1, "log-growth inequality scan", ok,
           f"min residual {scan.min_residual:.3e}, {violations} violations, "
           f"cell offset {scan.max_argmin_cell_offset}, {elapsed:.2f}s")


def test_02_young_power_scan():
    t0 = time.perf_counter()
    scan = q.scan_young_power((0.0, 0.25, 0.5, 0.9),
                              (1e-2, 1e2, 16), (1e-2, 1e2, 16), (1e-2, 1e2, 16))
    eq_worst = max(abs(q.check_young_power(L, 0.0, eps, L / eps))
                   for L in (0.1, 0.5, 1.0, 2.0, 10.0)
                   for eps in (0.1, 0.5, 1.0, 2.0, 10.0))
    elapsed = time.perf_counter() - t0
    ok = scan.min_residual >= -1e-9 and eq_worst <= 1e-12 and elapsed < 5.0
    report(2, "power-bound scan", ok,
           f"min residual {scan.min_residual:.3e}, equality-case residual "
           f"{eq_worst:.2e}, {elapsed:.2f}s")


def test_03_certificate_golden_values():
    c1a, lama = q.compute_c1_lambda(1, 1.0, 1.0, 1.0)
    c1b, lamb = q.compute_c1_lambda(2, 2.0, 1.0, 1.0)
    bmo = q.compute_bmo_bound_log(1, 1.0, 1.0, 1.0, 288.0226)
    exact = (
        abs(c1a / 14.33974220141150148 - 1) <= 1e-6,
        abs(lama / 288.02142145544312 - 1) <= 1e-6,
        abs(c1b / 26.67307553474483481 - 1) <= 1e-6,
        abs(lamb / 79511.31755426493276 - 1) <= 1e-6,
        abs(bmo - 295.49820503646179) <= 1e-3,
    )
    published = (
        abs(c1a / 14.339800 - 1) <= 5e-5,
        abs(lama / 288.0226 - 1) <= 5e-5,
        abs(c1b / 26.673134 - 1) <= 5e-5,
        abs(lamb / 7.9512e4 - 1) <= 5e-5,
        abs(bmo - 295.498) <= 1e-3,
    )
    ok = all(exact) and all(published)
    report(3, "certificate golden values", ok,
           f"C1={c1a:.9f} lambda={lama:.7f} C1'={c1b:.9f} lambda'={lamb:.5f} "
           f"bmoLog={bmo:.6f}")


def test_04_convergence_order():
    t0 = time.perf_counter()
    n_list = [25, 50, 100, 200]
    ref_inst, ref_lat = make(pure_quadratic_config(N=8 * max(n_list)))
    ref_term = q.terminal_values(ref_inst, ref_lat)[:, 0]
    reference, _ = q.oracle_pure_quadratic(1.0, ref_term, ref_lat)
    errors, dts = [], []
    for N in n_list:
        inst, lat = make(pure_quadratic_config(N=N))
        f = q.backward_solve(inst, lat)
        errors.append(abs(f.y[0, 0] - reference))
        dts.append(lat.grid.dt)
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = slope >= 0.8 and elapsed < 30.0
    report(4, "convergence order", ok,
           f"slope {slope:.3f}, errors {['%.2e' % e for e in errors]}, {elapsed:.1f}s")


def test_05_one_step_closed_form():
    inst, lat = make(structured_config(**{
        "generator.1.g": "0.5*norm2(z1)", "terminal.1": "sign(w1)"}))
    term = q.terminal_values(inst, lat)[:, 0]
    y0_oracle, _ = q.oracle_pure_quadratic(1.0, term, lat)
    f = q.backward_solve(inst, lat)
    y0_solver = f.y[0, 0]
    lncosh1 = 0.4337808304830272
    gap = abs(y0_solver - y0_oracle)
    ok = (abs(y0_oracle - lncosh1) <= 1e-12
          and abs(y0_solver - 0.5) <= 1e-12
          and gap > 0.01)
    report(5, "one-step closed form", ok,
           f"oracle {y0_oracle:.12f}, solver {y0_solver}, scheme gap {gap:.4f}")


def test_06_a_priori_bound():
    t0 = time.perf_counter()
    inst, lat = make(remark22_config(N=50))
    cert = q.build_certificate(inst)
    falsification = q.falsify_assumptions(inst, seed=0, count=10_000, radius=10.0)
    field, plan = q.solve_stitched(inst, lat, horizon=0.5, mode="picard", tol=1e-10)
    sup_y = q.sup_norm_y(field.y)
    bmo = q.estimate_bmo(field)
    bmo_log = math.log(bmo ** 2)
    elapsed = time.perf_counter() - t0
    ok = (cert.h3_satisfied and falsification.clean
          and sup_y <= cert.lambda_bound and bmo_log <= cert.bmo_bound_log
          and elapsed < 60.0)
    report(6, "a priori sup-norm and BMO bounds", ok,
           f"budget {cert.h3_budget:.4f} <= {inst.params.c0}, falsifier clean, "
           f"supY {sup_y:.4f} <= lambda {cert.lambda_bound:.3e}, "
           f"log bmo^2 {bmo_log:.3f} <= {cert.bmo_bound_log:.3e}, {elapsed:.1f}s")


def test_07_pasting_identity():
    configs = [
        pure_quadratic_config(N=50),
        structured_config(**{"grid.N": 50, "generator.1.h": "-1.0*y1 + 0.5",
                             "terminal.1": "clamp(w1,-1,1)"}),
        remark22_config(N=50),
    ]
    worst = 0.0
    for cfg in configs:
        inst, lat = make(cfg)
        one = q.backward_solve(inst, lat)
        two, plan = q.solve_stitched(inst, lat, horizon=0.5, mode="direct")
        assert len(plan.chunks) == 2
        dy = float(np.abs(one.y - two.y).max())
        dz = float(np.abs(flat_z(one) - flat_z(two)).max())
        worst = max(worst, dy, dz)
    ok = worst == 0.0
    report(7, "two-chunk pasting identity", ok,
           f"max |difference| = {worst} across 3 catalog instances")


def test_08_triangular_equivalence():
    t0 = time.perf_counter()
    inst, lat = make(triangular_demo_config(N=50))
    f = q.solve_triangular(inst, lat, tol=1e-10)
    ref = q.oracle_joint_picard(inst, lat, tight_tol=1e-12)
    diff = field_sup_diff(f, ref)
    elapsed = time.perf_counter() - t0
    ok = diff <= 1e-8 and elapsed < 30.0
    report(8, "sequential vs joint solve", ok,
           f"sup difference {diff:.2e}, {elapsed:.1f}s")


def test_09_contraction_schedule():
    inst, lat = make(contraction_config(N=40, lip_beta=2.0))
    _, _, trace = q.frozen_y_contraction(*q.scalar_problem(inst, lat), 2.0, lat, tol=1e-10)
    intervals_ok = (len(trace.chunks) == 4
                    and all(abs((c.start_layer - c.end_layer) * lat.grid.dt - 0.25) < 1e-12
                            for c in trace.chunks))
    ratio_worst = 0.0
    for changes in trace.changes:
        ratios = [b / a for a, b in zip(changes, changes[1:]) if a > 0]
        assert len(ratios) >= 3
        ratio_worst = max(ratio_worst, max(ratios[-3:]))
    ok = intervals_ok and ratio_worst <= 0.5 + 0.1
    report(9, "frozen-y contraction schedule", ok,
           f"{len(trace.chunks)} sub-intervals, worst last-3 ratio "
           f"{ratio_worst:.3f} <= 0.6")


def test_10_uniqueness_evidence():
    worst = 0.0
    for cfg, n in ((remark22_config(N=50), 2), (triangular_demo_config(N=50), 2)):
        inst, lat = make(cfg)
        a, _ = q.picard_solve(inst, lat, tol=1e-10)
        b, _ = q.picard_solve(inst, lat, init=shifted(q.zero_field(lat, n), 1.0),
                              tol=1e-10)
        worst = max(worst, field_sup_diff(a, b))
    ok = worst <= 1e-8
    report(10, "fixed point independent of initialization", ok,
           f"max sup difference {worst:.2e}")


def test_11_falsifier_soundness():
    inst, _ = make(planted_h2_config())
    rep = q.falsify_assumptions(inst, seed=0, count=10_000, radius=1e6)
    found = rep.violation_count > 0
    h2_only = {v.assumption for v in rep.violations} == {"H2"}
    reverified = all(q.reverify_violation(inst, v, tol=1e-12) for v in rep.violations)
    ok = found and h2_only and reverified
    report(11, "planted violation caught and re-verified", ok,
           f"{rep.violation_count} violations in {rep.sample_count} samples, "
           f"{len(rep.violations)} recorded all re-verified")
