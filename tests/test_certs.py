"""Closed-form certificates, inequality scans, and the falsifier.

Expected values are frozen from a 40-digit mpmath evaluation of the same
closed forms, computed independently before the implementation.
"""

import dataclasses
import math
import sys
import tracemalloc
import types
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqbsde as q

from conftest import (make, planted_h2_config, reference_eval, remark22_config,
                      structured_config, triangular_demo_config)

# frozen oracle values (mpmath, 40 digits)
LOG_INEQ_111 = 0.9867597430533607
LOG_INEQ_TINY = 0.6799069236123060
LOG_INEQ_114 = 1.7796204359617528
C1_1111 = 14.33974220141150148
LAM_1111 = 288.02142145544312
C1_2211 = 26.67307553474483481
LAM_2211 = 79511.31755426493276
KS_111 = 2.0132402569466393
BMO_LOG_SPEC_LAMBDA = 295.49820503646179   # lambda pinned at 288.0226
BMO_INNER_SPEC_LAMBDA = 441.11723333333333
EXPMOM_1011 = 3.2974425414002564
EXPMOM_HALF = 4.6501393205542421


class TestLogInequality:
    def test_frozen_values(self):
        assert q.check_log_inequality(1, 1, 1) == pytest.approx(LOG_INEQ_111, rel=1e-12)
        assert q.check_log_inequality(1e-12, 1, 1) == pytest.approx(LOG_INEQ_TINY, rel=1e-12)
        assert q.check_log_inequality(1, 1, 4) == pytest.approx(LOG_INEQ_114, rel=1e-12)

    def test_rejects_nonpositive(self):
        for bad in ((0, 1, 1), (1, -1, 1), (1, 1, 0)):
            with pytest.raises(ValueError, match="^check_log_inequality needs"):
                q.check_log_inequality(*bad)

    @pytest.mark.parametrize("bad", [(math.nan, 1, 1), (1, math.nan, 1), (1, 1, math.nan),
                                     (math.inf, 1, 1), (1, math.inf, 1), (1, 1, math.inf)])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="^check_log_inequality needs"):
            q.check_log_inequality(*bad)

    def test_scan_positive_on_modest_grid(self):
        scan = q.scan_log_inequality((1e-6, 1e6, 24), (1e-6, 1e6, 24), (1e-6, 1e6, 24))
        assert scan.min_residual > 0
        assert scan.max_argmin_cell_offset <= 1

    @given(st.floats(min_value=1e-8, max_value=1e8), st.floats(min_value=1e-8, max_value=1e8),
           st.floats(min_value=1e-8, max_value=1e8))
    @settings(max_examples=200, deadline=None)
    def test_single_point_matches_direct_evaluation(self, x, y, C):
        # the scalar check is the scan's formula at one cell, bit for bit
        scan = q.scan_log_inequality((x, x, 1), (y, y, 1), (C, C, 1))
        assert _bits(q.check_log_inequality(x, y, C)) == _bits(scan.min_residual)

    def test_overflow_is_ieee_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert q.check_log_inequality(1e308, 1e-300, 1.0) == math.inf
            scan = q.scan_log_inequality((1e308, 1e308, 1), (1e-300, 1e-300, 1), (1, 1, 1))
        assert scan.min_residual == math.inf

    def test_slice_argmin_brackets_exact_minimizer(self):
        # (y, C) = (1, 4): stationarity gives 2 x0^2 + 2 x0 = 4, so x0 = 1
        scan = q.scan_log_inequality((0.25, 4.0, 33), (1.0, 1.0, 1), (4.0, 4.0, 1))
        x_star = scan.argmin[0]
        step = (math.log(4.0) - math.log(0.25)) / 32
        assert abs(math.log(x_star) - math.log(1.0)) <= step + 1e-12

    def test_range_validation(self):
        with pytest.raises(ValueError, match="inverted"):
            q.scan_log_inequality((2.0, 1.0, 4), (1, 1, 1), (1, 1, 1))
        with pytest.raises(ValueError, match="empty"):
            q.scan_log_inequality((1.0, 2.0, 0), (1, 1, 1), (1, 1, 1))
        with pytest.raises(ValueError, match="positive"):
            q.scan_log_inequality((-1.0, 2.0, 4), (1, 1, 1), (1, 1, 1))
        for bad in ((math.nan, 1.0, 4), (1.0, math.nan, 4), (1.0, math.inf, 4)):
            with pytest.raises(ValueError, match="^x: bounds must be finite$"):
                q.scan_log_inequality(bad, (1, 1, 1), (1, 1, 1))
            with pytest.raises(ValueError, match="^y: bounds must be finite$"):
                q.scan_log_inequality((1, 1, 1), bad, (1, 1, 1))
            with pytest.raises(ValueError, match="^C: bounds must be finite$"):
                q.scan_log_inequality((1, 1, 1), (1, 1, 1), bad)


class TestC1Lambda:
    def test_frozen_golden_values(self):
        c1, lam = q.compute_c1_lambda(1, 1.0, 1.0, 1.0)
        assert c1 == pytest.approx(C1_1111, rel=1e-12)
        assert lam == pytest.approx(LAM_1111, rel=1e-12)
        c1, lam = q.compute_c1_lambda(2, 2.0, 1.0, 1.0)
        assert c1 == pytest.approx(C1_2211, rel=1e-12)
        assert lam == pytest.approx(LAM_2211, rel=1e-12)

    def test_all_integral_terms_collapse(self):
        c1, lam = q.compute_c1_lambda(1, 1.0, 0.0, 0.0)
        assert c1 == pytest.approx(math.log(4.0), rel=1e-12)
        assert lam == pytest.approx(c1, rel=1e-15)

    def test_log_space_variant(self):
        log_lam = q.compute_lambda_log(1, 1.0, 1.0, 1.0)
        assert log_lam == pytest.approx(math.log(LAM_1111), rel=1e-12)
        # past the double range the plain value saturates, the log stays exact
        c1, lam = q.compute_c1_lambda(4, 4.0, 50.0, 1.0)
        assert math.isinf(lam)
        assert q.compute_lambda_log(4, 4.0, 50.0, 1.0) == pytest.approx(
            math.log(c1) + 4 * 50.0 * 6.0, rel=1e-12)

    def test_monotone_in_n_c0_T(self):
        grid_n = [1, 2, 3]
        grid_c0 = [0.25, 1.0, 2.0]
        grid_T = [0.0, 0.5, 2.0]
        for gamma in (0.5, 1.0, 3.0):
            for c0, T in product(grid_c0, grid_T):
                vals = [q.compute_c1_lambda(n, gamma, c0, T) for n in grid_n]
                assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(vals, vals[1:]))
            for n, T in product(grid_n, grid_T):
                vals = [q.compute_c1_lambda(n, gamma, c0, T) for c0 in grid_c0]
                assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(vals, vals[1:]))
            for n, c0 in product(grid_n, grid_c0):
                vals = [q.compute_c1_lambda(n, gamma, c0, T) for T in grid_T]
                assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(vals, vals[1:]))

    def test_range_validation(self):
        with pytest.raises(ValueError, match="^compute_c1_lambda needs"):
            q.compute_c1_lambda(0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^compute_c1_lambda needs"):
            q.compute_c1_lambda(1, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^compute_lambda_log needs"):
            q.compute_lambda_log(1, 1.0, -1.0, 1.0)
        # a validated instance cannot carry n = 0, so a stand-in reaches the check
        bad = types.SimpleNamespace(n=0, params=types.SimpleNamespace(gamma=1.0, c0=1.0),
                                    grid=types.SimpleNamespace(horizon=1.0))
        with pytest.raises(ValueError, match="^build_certificate needs"):
            q.build_certificate(bad)


class TestLargeC0:
    """Where 2 e^{c0} + 2 overflows a double (c0 above ~709.08), C1 takes its
    log as c0 + log 2 + log1p(e^{-c0}); below that cut the bits are the
    linear form's."""

    def test_bits_below_the_cut(self):
        assert q.compute_c1_lambda(2, 2.5, 709.0, 1.0) == (8519.787851077781, math.inf)
        assert q.compute_lambda_log(2, 2.5, 709.0, 1.0) == 6390.050146719405
        for c0 in (709.0, 709.08):
            c1, _ = q.compute_c1_lambda(2, 2.5, c0, 1.0)
            linear = (2 / 2.5 * math.log(2.0 * math.exp(c0) + 2.0) + 2.5 / 3.0
                      + 2 * (1.0 + 4 / 2.5) * (c0 + 2.0) + 6.0 * c0)
            assert c1 == linear

    def test_finite_and_nondecreasing_past_the_cut(self):
        c0s = (709.0, 709.08, 709.09, 709.5, 709.78, 710.0)
        c1s = [q.compute_c1_lambda(2, 2.5, c0, 1.0)[0] for c0 in c0s]
        logs = [q.compute_lambda_log(2, 2.5, c0, 1.0) for c0 in c0s]
        assert all(math.isfinite(v) for v in c1s + logs)
        assert c1s == sorted(c1s) and logs == sorted(logs)

    def test_overflowing_sums_give_inf(self):
        c1, lam = q.compute_c1_lambda(2, 2.5, 1e308, 1.0)
        assert c1 == lam == q.compute_lambda_log(2, 2.5, 1e308, 1.0) == math.inf


class TestTinyGamma:
    """Where n/gamma overflows (gamma subnormal), C1, lambda and log lambda
    read inf, also when c0 + 2T = 0 makes C1's third term exactly 0."""

    @pytest.mark.parametrize("gamma", [5e-324, 1e-310])
    @pytest.mark.parametrize("c0, T", [(0.0, 0.0), (0.5, 1.0)])
    def test_overflowing_quotient_gives_inf(self, gamma, c0, T):
        c1, lam = q.compute_c1_lambda(1, gamma, c0, T)
        assert c1 == lam == q.compute_lambda_log(1, gamma, c0, T) == math.inf

    @pytest.mark.parametrize("args, c1_lam, log_lam", [
        ((1, 1e-300, 0.0, 0.0), (1.3862943611198904e+300, 1.386294361119853e+300),
         691.102162158192),
        ((1, 1e-300, 0.5, 1.0), (6.667224164740051e+300, 1.812339429327591e+301),
         693.6727315043142),
        ((2, 2.5, 3.0, 1.0), (47.82672095904029, 25446122740010.52), 30.867584499185742),
    ], ids=["gamma-1e-300", "gamma-1e-300-c0-T", "remark22"])
    def test_bits_kept(self, args, c1_lam, log_lam):
        assert q.compute_c1_lambda(*args) == c1_lam
        assert q.compute_lambda_log(*args) == log_lam


def ks_rate(eta, gamma, n):
    """The pointwise rate: compute_ks_integral of a constant eta over [0, 1]."""
    return q.compute_ks_integral(q.CoefficientFunction(((0.0, eta),)), gamma, n, 1.0)


class TestKs:
    def test_eta_zero(self):
        assert ks_rate(0.0, 1.0, 1) == pytest.approx(1 / 6, rel=1e-15)

    def test_frozen_value(self):
        assert ks_rate(1.0, 1.0, 1) == pytest.approx(KS_111, rel=1e-12)

    def test_gamma_over_6n_coincidence(self):
        assert ks_rate(1.0, 2.0, 2) == pytest.approx(KS_111, rel=1e-12)

    def test_exact_integral(self):
        eta = q.CoefficientFunction(((0.0, 1.0), (0.5, 0.0)))
        got = q.compute_ks_integral(eta, 1.0, 1, 1.0)
        expected = 1 / 6 + 0.5 * (0.5 * (1 + math.log(2.0) + 2.0))
        assert got == pytest.approx(expected, rel=1e-14)


class TestH3Budget:
    ZERO = q.CoefficientFunction(((0.0, 0.0),))
    ONE = q.CoefficientFunction(((0.0, 1.0),))

    def test_terminal_only(self):
        assert q.compute_h3_budget(0.5, self.ZERO, self.ZERO, self.ZERO, 1.0) == 0.5

    def test_all_ones(self):
        got = q.compute_h3_budget(0.5, self.ONE, self.ONE, self.ONE, 1.0)
        assert got == pytest.approx(0.5 + 2.0 + math.log(2.0), rel=1e-14)

    def test_eta_only(self):
        got = q.compute_h3_budget(0.0, self.ZERO, self.ZERO, self.ONE, 1.0)
        assert got == pytest.approx(math.log(2.0), rel=1e-14)

    def test_zero_coefficients_equal_bound_exactly(self):
        for xi in (0.0, 0.25, 3.75):
            assert q.compute_h3_budget(xi, self.ZERO, self.ZERO, self.ZERO, 2.0) == xi


class TestBmoBound:
    def test_frozen_log_value(self):
        got = q.compute_bmo_bound_log(1, 1.0, 1.0, 1.0, 288.0226)
        assert got == pytest.approx(BMO_LOG_SPEC_LAMBDA, abs=1e-9)

    def test_inner_factor_composition(self):
        # bound = log 4 + logaddexp(gamma c0 + log(n/gamma^2), gamma lam + log(n/gamma * inner))
        lam = 288.0226
        expected = math.log(4.0) + np.logaddexp(
            1.0, lam + math.log(BMO_INNER_SPEC_LAMBDA))
        assert q.compute_bmo_bound_log(1, 1.0, 1.0, 1.0, lam) == pytest.approx(
            expected, abs=1e-6)

    def test_no_overflow_path(self):
        got = q.compute_bmo_bound_log(1, 1.0, 1e-12, 0.0, math.log(4.0))
        assert math.isfinite(got)

    def test_monotone_in_lambda(self):
        lo = q.compute_bmo_bound_log(1, 1.0, 1.0, 1.0, 288.0226)
        hi = q.compute_bmo_bound_log(1, 1.0, 1.0, 1.0, 300.0)
        assert hi > lo


class TestContractionHorizon:
    def test_values(self):
        assert q.contraction_horizon(2.0) == 0.25
        assert q.contraction_horizon(0.5) == 1.0
        assert math.isinf(q.contraction_horizon(0.0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q.contraction_horizon(-1.0)


class TestYoungPower:
    def test_frozen_values(self):
        assert q.check_young_power(1.0, 0.0, 1.0, 2.0) == pytest.approx(0.5, rel=1e-14)
        assert q.check_young_power(1.0, 0.5, 1.0, 0.0) == pytest.approx(0.25, rel=1e-14)

    def test_equality_case(self):
        assert q.check_young_power(1.0, 0.0, 1.0, 1.0) == 0.0
        for L in (0.1, 0.5, 1.0, 2.0, 10.0):
            for eps in (0.1, 0.5, 1.0, 2.0, 10.0):
                assert abs(q.check_young_power(L, 0.0, eps, L / eps)) <= 1e-12

    def test_scan_nonnegative(self):
        scan = q.scan_young_power((0.0, 0.25, 0.5, 0.9),
                                  (1e-2, 1e2, 10), (1e-2, 1e2, 10), (1e-2, 1e2, 10))
        assert scan.min_residual >= -1e-9

    @given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=-0.95, max_value=0.95),
           st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=200, deadline=None)
    def test_single_point_matches_direct_evaluation(self, L, alpha, eps, z):
        # the scalar check is the scan's formula at one cell, bit for bit
        scan = q.scan_young_power((alpha,), (L, L, 1), (eps, eps, 1), (z, z, 1))
        assert _bits(q.check_young_power(L, alpha, eps, z)) == _bits(scan.min_residual)

    def test_overflow_is_ieee_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert q.check_young_power(1e200, 0.5, 1.0, 1.0) == math.inf
            scan = q.scan_young_power((0.5,), (1e200, 1e200, 1), (1, 1, 1), (1, 1, 1))
        assert scan.min_residual == math.inf

    def test_range_validation(self):
        with pytest.raises(ValueError, match="^check_young_power: parameter"):
            q.check_young_power(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^check_young_power: parameter"):
            q.check_young_power(1.0, 1.0, 1.0, 1.0)
        for bad in (math.nan, math.inf):
            for args in ((bad, 0.5, 1, 1), (1, bad, 1, 1), (1, 0.5, bad, 1), (1, 0.5, 1, bad)):
                with pytest.raises(ValueError, match="^check_young_power: parameter"):
                    q.check_young_power(*args)
            for axis, name in enumerate(("L", "eps", "z")):
                ranges = [(1, 1, 1)] * 3
                ranges[axis] = (1.0, bad, 3)
                with pytest.raises(ValueError, match=f"^{name}: bounds must be finite$"):
                    q.scan_young_power((0.5,), *ranges)
        with pytest.raises(ValueError, match="^scan_young_power: empty"):
            q.scan_young_power((), (1, 1, 1), (1, 1, 1), (1, 1, 1))


class TestExpMomentBound:
    def test_frozen_values(self):
        assert q.exp_moment_bound_log(1.0, 0.0, 1.0, 1.0) == pytest.approx(
            math.log(EXPMOM_1011), rel=1e-12)
        assert q.exp_moment_bound_log(1.0, 0.5, 1.0, 1.0) == pytest.approx(
            math.log(EXPMOM_HALF), rel=1e-12)

    def test_vanishing_weight(self):
        assert q.exp_moment_bound_log(1e-300, 0.0, 1.0, 1.0) == pytest.approx(
            math.log(2.0), rel=1e-14)

    @given(st.floats(min_value=0.01, max_value=5.0),
           st.floats(min_value=0.01, max_value=3.0),
           st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=100, deadline=None)
    def test_alpha_zero_closed_form(self, L, b, T):
        # log of 2 exp(L^2 b^2 T / 2); an absolute 1e-12 in the log is the
        # relative 1e-12 the bound itself was held to
        got = q.exp_moment_bound_log(L, 0.0, b, T)
        expected = math.log(2.0) + L ** 2 * b ** 2 * T / 2.0
        assert got == pytest.approx(expected, abs=1e-12)

    def test_log_form_handles_overflow(self):
        # the bound itself is past the double range, its log is not
        log_val = q.exp_moment_bound_log(10.0, 0.5, 10.0, 10.0)
        assert math.log(sys.float_info.max) < log_val < math.inf
        # an overflowing constant is IEEE inf, and weighs nothing over T = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert q.exp_moment_bound_log(1e200, 0.5, 1.0, 1.0) == math.inf
            assert q.exp_moment_bound_log(1e200, 0.5, 1.0, 0.0) == math.log(2.0)

    def test_range_validation(self):
        for bad in ((0.0, 0.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0), (1.0, 0.0, 0.0, 1.0),
                    (1.0, 0.0, 1.0, -1.0)):
            with pytest.raises(ValueError, match="^exp_moment_bound_log: parameter"):
                q.exp_moment_bound_log(*bad)


class TestCertificateAssembly:
    def test_remark22_certificate(self):
        inst, _ = make(remark22_config())
        cert = q.build_certificate(inst)
        assert cert.h3_budget == pytest.approx(0.25 + 2.0 + math.log(2.0), rel=1e-12)
        assert cert.h3_satisfied
        assert cert.lambda_bound == pytest.approx(
            cert.c1 * math.exp(2 * 3.0 * 4.5), rel=1e-12)
        assert math.isinf(cert.contraction_horizon)
        assert not cert.lambda_log_space
        # the a priori bound always dominates the terminal norm under the budget
        assert cert.lambda_bound >= inst.terminal.declared_bound

    def test_log_space_flag(self):
        cfg = structured_config(**{"params.C0": 150.0, "params.gamma": 4.0})
        inst, _ = make(cfg)
        cert = q.build_certificate(inst)
        assert cert.lambda_log_space and math.isinf(cert.lambda_bound)
        assert math.isfinite(cert.lambda_log)


def philox_row(seed, i, per):
    gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, i]))
    return gen.random(per)


def reference_uniforms(seed, count, per):
    """The per-sample generator loop the vectorised sampler replaced."""
    out = np.empty((count, per))
    for i in range(count):
        out[i] = philox_row(seed, i, per)
    return out


def assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSampler:
    """The vectorised Philox4x64-10 must reproduce np.random.Philox bit for bit."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        # an overflow RuntimeWarning in the uint64 arithmetic fails the test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63 + 5, 2 ** 64 - 1, 2 ** 64, 2 ** 128 - 1])
    @pytest.mark.parametrize("per", [1, 4, 5, 9, 13])
    def test_matches_reference_loop(self, seed, per):
        assert_same_bits(q.certs._sample_uniforms(seed, 40, per),
                         reference_uniforms(seed, 40, per))

    def test_spans_index_blocks(self):
        # blocks of 7 drawn from their start index reproduce one draw of all 30
        blocks = [q.certs._sample_uniforms(11, min(7, 30 - s), 9, s) for s in range(0, 30, 7)]
        assert_same_bits(np.concatenate(blocks), reference_uniforms(11, 30, 9))

    def test_rows_across_default_block_boundary(self):
        # rows on both sides of a falsifier block's edge, drawn in one pass
        block = q.certs._SAMPLE_BLOCK
        u = q.certs._sample_uniforms(5, block + 3, 5)
        for i in (0, block - 1, block, block + 2):
            assert_same_bits(u[i], philox_row(5, i, 5))
        assert q.certs._sample_uniforms(5, 0, 5).shape == (0, 5)

    @pytest.mark.parametrize("seed", [0, 2 ** 64 + 9, 2 ** 128 - 1])
    def test_scattered_indices(self, seed):
        # large counter words exercise the carries of the 32-bit limb multiply
        for i in (2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3):
            for per in (3, 9):
                got = q.certs._sample_uniforms(seed, 2, per, start=i)
                want = np.stack([philox_row(seed, j, per) for j in (i, i + 1)])
                assert_same_bits(got, want)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_seed_domain_matches_philox(self, seed):
        with pytest.raises(ValueError):
            np.random.Philox(key=seed)
        with pytest.raises(ValueError):
            q.certs._sample_uniforms(seed, 3, 2)


_U64_EDGES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
_U64 = st.one_of(st.sampled_from(_U64_EDGES), st.integers(0, 2 ** 64 - 1))


class TestMulhilo:
    """The limb product is the 128-bit product of Python ints, split in words."""

    @settings(max_examples=300, deadline=None)
    @given(_U64, st.lists(_U64, max_size=8))
    def test_matches_python_ints(self, m, drawn):
        a = _U64_EDGES + drawn
        mult = tuple(np.uint64(v) for v in (m, m & 0xFFFFFFFF, m >> 32))
        hi, lo = q.certs._mulhilo(np.array(a, dtype=np.uint64), mult)
        assert [int(v) for v in hi] == [x * m >> 64 for x in a]
        assert [int(v) for v in lo] == [x * m % 2 ** 64 for x in a]


def triangular_a1_config():
    """Own-row quadratic k, which cannot satisfy a growth bound with C1 = 0."""
    return {
        "problem.n": 1, "problem.d": 1, "problem.T": 1.0, "grid.N": 2,
        "generator.kind": "triangular", "generator.1.k": "norm2(z1)",
        "terminal.1": "0", "terminal.bound": 0.0,
        "params.gamma": 2.0, "params.K": 1.0, "params.delta": 0.0, "params.C0": 1.0,
        "triangular.C1": 0.0, "triangular.C2": 2.0, "triangular.lipBeta": 0.0,
    }


class TestFalsifier:
    def test_clean_on_compliant_instance(self):
        inst, _ = make(remark22_config())
        report = q.falsify_assumptions(inst, seed=0, count=2000, radius=10.0)
        assert report.clean
        assert report.sample_count == 2000
        assert not report.domain_errors

    def test_planted_linear_growth_caught(self):
        inst, _ = make(planted_h2_config())
        report = q.falsify_assumptions(inst, seed=7, count=2000, radius=1e6)
        assert not report.clean
        assert {v.assumption for v in report.violations} == {"H2"}

    def test_every_violation_reverifies(self):
        inst, _ = make(planted_h2_config())
        report = q.falsify_assumptions(inst, seed=11, count=500, radius=1e6)
        assert report.violations
        for v in report.violations:
            assert q.reverify_violation(inst, v, tol=1e-12)
            lhs, rhs = q.certs.evaluate_assumption(inst, v)
            assert lhs == pytest.approx(v.lhs, rel=1e-12)
            assert rhs == pytest.approx(v.rhs, rel=1e-12)

    def test_zero_generator_clean(self):
        inst, _ = make(structured_config(**{"terminal.1": "0", "terminal.bound": 0.0}))
        report = q.falsify_assumptions(inst, seed=1, count=1000, radius=100.0)
        assert report.clean

    def test_deterministic_for_fixed_seed(self):
        inst, _ = make(planted_h2_config())
        a = q.falsify_assumptions(inst, seed=5, count=300, radius=1e6)
        b = q.falsify_assumptions(inst, seed=5, count=300, radius=1e6)
        assert a.violation_count == b.violation_count
        assert [(v.t, v.lhs, v.rhs) for v in a.violations] \
            == [(v.t, v.lhs, v.rhs) for v in b.violations]

    def test_triangular_assumptions(self):
        inst, _ = make(triangular_a1_config())
        report = q.falsify_assumptions(inst, seed=3, count=500, radius=2.0)
        assert "A1" in {v.assumption for v in report.violations}
        for v in report.violations:
            assert q.reverify_violation(inst, v)

    @pytest.mark.parametrize("config, key, site", [
        (remark22_config, "params.K", "H1b"), (remark22_config, "params.gamma", "H1a"),
        (triangular_demo_config, "triangular.lipBeta", "A2"),
        (triangular_demo_config, "triangular.C1", "A1"),
        (triangular_demo_config, "triangular.C2", "A2"),
    ], ids=lambda p: getattr(p, "__name__", p))
    def test_huge_constant_is_an_infinite_rhs(self, config, key, site):
        """A right-hand side that overflows is +inf, which no sample violates;
        neither the falsifier nor its rerun of one check warns."""
        inst, _ = make(config(N=4) | {key: 1e308})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = q.falsify_assumptions(inst, seed=0, count=2000)
            assert (report.sample_count, report.violation_count) == (2000, 0)
            assert not report.domain_errors
            z = np.full((inst.n, inst.d), 3.0)
            v = q.Violation(site, 1, 0.5, np.ones(inst.n), z, -np.ones(inst.n), -z, 0.0, 0.0)
            lhs, rhs = q.certs.evaluate_assumption(inst, v)
        assert math.isfinite(lhs) and rhs == math.inf

    def test_huge_constant_keeps_other_violations(self):
        inst, _ = make(planted_h2_config() | {"params.K": 1e308})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = q.falsify_assumptions(inst, seed=7, count=2000, radius=1e6)
        assert report.violation_count == 978 and not report.domain_errors

    def test_domain_errors_recorded_not_fatal(self):
        cfg = structured_config(**{"generator.1.h": "log(y1)"})
        inst, _ = make(cfg)
        report = q.falsify_assumptions(inst, seed=2, count=64, radius=5.0)
        assert report.domain_errors  # log of negative y1 at some samples

    # Outcomes recorded with the per-sample np.random.Philox loop.  A clean
    # report reads the same for any draws, so these pin the sampler through
    # reports that do find violations: counts and the first three (t, lhs, rhs)
    # as exact floats.
    def test_golden_planted_h2(self):
        inst, _ = make(planted_h2_config())
        report = q.falsify_assumptions(inst, seed=7, count=2000, radius=1e6)
        assert report.violation_count == 978
        assert len(report.domain_errors) == 0
        assert [(v.t, v.lhs, v.rhs) for v in report.violations[:3]] == [
            (0.9501277083333136, 769939.4983669709, 14.554068515995922),
            (0.27019622095902107, 324964.5955497629, 13.691474595861441),
            (0.18446454038947835, 62141.388740711176, 12.037183623481303),
        ]

    def test_golden_triangular_a1(self):
        inst, _ = make(triangular_a1_config())
        report = q.falsify_assumptions(inst, seed=3, count=500, radius=2.0)
        assert report.violation_count == 500
        assert len(report.domain_errors) == 0
        assert [(v.t, v.lhs, v.rhs) for v in report.violations[:3]] == [
            (0.9342820204007575, 1.430078439245233, 0.0),
            (0.8804203509231936, 3.728035265746928, 0.0),
            (0.1707644989226259, 1.0578047290833046, 0.0),
        ]


def reference_evaluate_assumption(instance, v):
    """(lhs, rhs) of one assumption at a stored sample, each inequality
    written out again for one point: the independent check of the falsifier."""
    p = instance.params
    gen = instance.generator
    norm = q.gendsl.norm
    i = v.component
    t = v.t

    def ev(expr, y=None, z=None):
        return float(reference_eval(expr, q.EvalEnv(t=t, y=y, z=z)))

    if v.assumption == "H1a":
        row = norm(v.z[i - 1])
        return abs(ev(gen.g[i - 1], y=v.y, z=v.z)), p.gamma / 2.0 * row ** 2
    if v.assumption == "H1b":
        r1 = norm(v.z[i - 1])
        r2 = norm(v.z2[i - 1])
        dz = norm(v.z[i - 1] - v.z2[i - 1])
        lhs = abs(ev(gen.g[i - 1], z=v.z) - ev(gen.g[i - 1], z=v.z2))
        return lhs, p.lip_k * (1.0 + r1 + r2) * dz
    if v.assumption == "H1c":
        zeros_y = np.zeros(instance.n)
        zeros_z = np.zeros((instance.n, instance.d))
        return abs(ev(gen.h[i - 1], y=zeros_y, z=zeros_z)), p.lip_k
    if v.assumption == "H1d":
        dy = norm(v.y - v.y2)
        dz = norm(v.z - v.z2, 2)
        f1 = norm(v.z, 2)
        f2 = norm(v.z2, 2)
        lhs = abs(ev(gen.h[i - 1], y=v.y, z=v.z) - ev(gen.h[i - 1], y=v.y2, z=v.z2))
        return lhs, p.lip_k * dy + p.lip_k * (1.0 + f1 ** p.delta + f2 ** p.delta) * dz
    if v.assumption == "H2":
        frob = norm(v.z, 2)
        ynorm = norm(v.y)
        lhs = np.sign(v.y[i - 1]) * ev(gen.h[i - 1], y=v.y, z=v.z)
        rhs = (p.alpha.value_at(t) + p.beta.value_at(t) * ynorm
               + p.eta.value_at(t) * np.log1p(frob))
        return float(lhs), float(rhs)
    if v.assumption == "A1":
        rows = norm(v.z)
        growth = (1.0 + np.abs(v.y[:i]).sum()
                  + (rows[:i] ** (1.0 + p.power_alpha)).sum()
                  + rows[i - 1] ** 2)
        return abs(ev(gen.k[i - 1], y=v.y, z=v.z)), p.a1_c * growth
    if v.assumption == "A2":
        r1 = norm(v.z[i - 1])
        r2 = norm(v.z2[i - 1])
        dz = norm(v.z[i - 1] - v.z2[i - 1])
        lhs = abs(ev(gen.k[i - 1], y=v.y, z=v.z) - ev(gen.k[i - 1], y=v.y2, z=v.z2))
        rhs = (p.lip_beta * abs(v.y[i - 1] - v.y2[i - 1])
               + p.a2_c * (1.0 + r1 + r2) * dz)
        return lhs, rhs
    raise ValueError(f"unknown assumption {v.assumption!r}")


def breaks_every_h_config():
    """n = 2, d = 3 structured instance whose samples break H1a-H1d and H2."""
    cfg = structured_config(**{"problem.n": 2, "problem.d": 3, "grid.N": 2,
                               "terminal.1": "0", "terminal.2": "0", "terminal.bound": 0.0,
                               "params.gamma": 1.0, "params.K": 0.2, "params.delta": 0.5,
                               "params.alpha": "0=1", "params.beta": "0=1",
                               "params.eta": "0=1"})
    for i in (1, 2):
        cfg[f"generator.{i}.g"] = f"norm2(z{i})*sin(log(norm(z{i})+1))"
        cfg[f"generator.{i}.h"] = "1 + 3*normy + sin(pow(normz,1.5)) + log(normz+1)"
    return cfg


def breaks_a1_a2_config():
    """n = 2, d = 2 triangular instance whose samples break A1 and A2."""
    cfg = triangular_demo_config(N=2)
    cfg.update({"problem.d": 2,
                "generator.1.k": "norm2(z1)*sin(log(norm(z1)+1)) + y1",
                "generator.2.k": "y1*y2 + sin(pow(norm(z2),1.5)) + norm2(z2)",
                "triangular.C1": 0.2, "triangular.C2": 0.2,
                "triangular.lipBeta": 0.5, "triangular.powerAlpha": 0.5})
    return cfg


# (config, seed, count, radius).  On an AVX-512 host the scalar re-evaluation
# misses the recorded rhs by one ulp on one H1a violation of "every-h" and one
# A1 violation of "a1-a2".
REEVALUATE_CASES = {
    "planted-h2": (planted_h2_config(), 11, 500, 1e6),
    "every-h": (breaks_every_h_config(), 0, 100, 10.0),
    "a1-a2": (breaks_a1_a2_config(), 27, 300, 3.0),
}


def hand_violation(assumption, component, y=None, z=None, y2=None, z2=None):
    """A violation record at t = 0.5; evaluate_assumption reads only its sample."""
    arrays = [None if a is None else np.array(a, dtype=float) for a in (y, z, y2, z2)]
    return q.certs.Violation(assumption, component, 0.5, *arrays, math.nan, math.nan)


def golden_h_instance():
    """g = |z1|^2 and h = |y| + |z| + 2 with gamma = K = alpha = beta = 1 and
    delta = eta = 0, so every side below is exact in binary."""
    return make(structured_config(**{
        "problem.d": 2, "generator.1.g": "norm2(z1)", "generator.1.h": "normy + normz + 2",
        "params.alpha": "0=1", "params.beta": "0=1"}))[0]


def golden_a_instance():
    """k1 = |z1|^2, k2 = y1 + y2 + |z2|^2 with C1 = C2 = lipBeta = 1, powerAlpha 0."""
    cfg = triangular_demo_config(N=2)
    cfg.update({"problem.d": 2, "generator.1.k": "norm2(z1)",
                "generator.2.k": "y1 + y2 + norm2(z2)",
                "triangular.lipBeta": 1.0, "triangular.C1": 1.0, "triangular.C2": 1.0})
    return make(cfg)[0]


# sample rows (3, 4) and (0, 0): |z| = 5, |y| = 3
H_GOLDENS = {
    # |25| vs (1/2) 5^2
    "H1a": (hand_violation("H1a", 1, y=[3.0], z=[[3.0, 4.0]]), (25.0, 12.5)),
    # |25 - 0| vs 1 (1 + 5 + 0) 5
    "H1b": (hand_violation("H1b", 1, z=[[3.0, 4.0]], z2=[[0.0, 0.0]]), (25.0, 30.0)),
    # |h(0)| = 2 vs K
    "H1c": (hand_violation("H1c", 1), (2.0, 1.0)),
    # |10 - 2| vs 1 * 3 + 1 (1 + 5^0 + 0^0) 5
    "H1d": (hand_violation("H1d", 1, y=[3.0], z=[[3.0, 4.0]], y2=[0.0], z2=[[0.0, 0.0]]),
            (8.0, 18.0)),
    # sign(3) * 10 vs 1 + 1 * 3 + 0 * log1p(5)
    "H2": (hand_violation("H2", 1, y=[3.0], z=[[3.0, 4.0]]), (10.0, 4.0)),
}
A_GOLDENS = {
    # |1 + 3 + 25| vs 1 (1 + (1 + 3) + (0 + 5) + 5^2)
    "A1": (hand_violation("A1", 2, y=[1.0, 3.0], z=[[0.0, 0.0], [3.0, 4.0]]), (29.0, 35.0)),
    # varied point (y2, z2): |29 - 1| vs 1 |3 - 0| + 1 (1 + 5 + 0) 5
    "A2": (hand_violation("A2", 2, y=[1.0, 3.0], z=[[0.0, 0.0], [3.0, 4.0]],
                          y2=[1.0, 0.0], z2=[[0.0, 0.0], [0.0, 0.0]]), (28.0, 33.0)),
}


class TestEvaluateAssumption:
    """evaluate_assumption reruns the falsifier's own check on a batch of one."""

    @pytest.fixture(scope="class", params=sorted(REEVALUATE_CASES))
    def recorded(self, request):
        cfg, seed, count, radius = REEVALUATE_CASES[request.param]
        inst, _ = make(cfg)
        report = q.falsify_assumptions(inst, seed=seed, count=count, radius=radius,
                                       max_recorded=10 * count)
        assert not report.truncated
        return inst, report.violations

    def test_cases_cover_every_assumption(self):
        seen = set()
        for cfg, seed, count, radius in REEVALUATE_CASES.values():
            inst, _ = make(cfg)
            report = q.falsify_assumptions(inst, seed=seed, count=count, radius=radius)
            seen |= {v.assumption for v in report.violations}
        assert seen == set(H_GOLDENS) | set(A_GOLDENS)

    def test_same_bits_as_recorded(self, recorded):
        inst, violations = recorded
        for v in violations:
            assert _bits(q.certs.evaluate_assumption(inst, v)) == _bits((v.lhs, v.rhs))

    def test_close_to_reference(self, recorded):
        inst, violations = recorded
        for v in violations:
            lhs, rhs = q.certs.evaluate_assumption(inst, v)
            want_lhs, want_rhs = reference_evaluate_assumption(inst, v)
            assert lhs == pytest.approx(want_lhs, rel=1e-12)
            assert rhs == pytest.approx(want_rhs, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(H_GOLDENS))
    def test_structured_golden(self, name):
        v, want = H_GOLDENS[name]
        assert q.certs.evaluate_assumption(golden_h_instance(), v) == want

    @pytest.mark.parametrize("name", sorted(A_GOLDENS))
    def test_triangular_golden(self, name):
        v, want = A_GOLDENS[name]
        assert q.certs.evaluate_assumption(golden_a_instance(), v) == want

    @pytest.mark.parametrize("component", [0, 2])
    def test_component_out_of_range(self, component):
        v, _ = H_GOLDENS["H1a"]
        v = dataclasses.replace(v, component=component)
        with pytest.raises(ValueError, match=f"H1a check for component {component}"):
            q.certs.evaluate_assumption(golden_h_instance(), v)

    def test_triangular_assumption_on_structured_instance(self):
        v = hand_violation("A1", 1, y=[3.0], z=[[3.0, 4.0]])
        with pytest.raises(ValueError, match="A1 check for component 1"):
            q.certs.evaluate_assumption(golden_h_instance(), v)

    def test_failing_evaluation_does_not_reverify(self):
        inst, _ = make(structured_config(**{"generator.1.h": "log(y1)"}))
        v = hand_violation("H2", 1, y=[-1.0], z=[[0.0]])
        lhs, _ = q.certs.evaluate_assumption(inst, v)
        assert math.isnan(lhs)
        assert not q.reverify_violation(inst, v)


class ReferenceRecorder:
    """The recorder the block-streaming falsifier replaced: one list in call
    order, and a failed batch redone one sample at a time over all samples,
    all through the reference interpreter."""

    def __init__(self, max_recorded):
        self.violations = []
        self.total = 0
        self.domain_errors = []
        self.max_recorded = max_recorded

    def add(self, assumption, component, t, lhs, rhs, y=None, z=None, y2=None, z2=None):
        mask = np.isfinite(lhs) & np.isfinite(rhs) & (lhs > rhs + q.certs._VIOLATION_TOL)
        idx = np.nonzero(mask)[0]
        self.total += len(idx)
        for j in idx:
            if len(self.violations) >= self.max_recorded:
                return
            self.violations.append(q.certs.Violation(
                assumption=assumption, component=component, t=float(t[j]),
                y=None if y is None else y[j].copy(),
                z=None if z is None else z[j].copy(),
                y2=None if y2 is None else y2[j].copy(),
                z2=None if z2 is None else z2[j].copy(),
                lhs=float(lhs[j]), rhs=float(rhs[j]),
            ))

    def eval(self, assumption, expr, env, m):
        try:
            return np.broadcast_to(np.asarray(reference_eval(expr, env), dtype=float), (m,)).copy()
        except q.EvalError:
            pass
        vals = np.full(m, np.nan)
        for j in range(m):
            env_j = q.EvalEnv(
                t=float(np.atleast_1d(env.t)[j]) if np.ndim(env.t) else env.t,
                y=None if env.y is None else env.y[j],
                z=None if env.z is None else env.z[j],
                w=None if env.w is None else env.w[j],
            )
            try:
                vals[j] = reference_eval(expr, env_j)
            except q.EvalError as err:
                self.domain_errors.append((assumption, j, str(err)))
        return vals


def reference_falsify(instance, seed=0, count=10_000, radius=10.0, max_recorded=1000):
    """The falsifier before block streaming: every sample drawn and tested at once."""
    n, d = instance.n, instance.d
    T = instance.grid.horizon
    per = 1 + 2 * n + 2 * n * d
    u = q.certs._sample_uniforms(seed, count, per)
    t = T * u[:, 0]
    yA = radius * (2.0 * u[:, 1:1 + n] - 1.0)
    yB = radius * (2.0 * u[:, 1 + n:1 + 2 * n] - 1.0)
    zA = radius * (2.0 * u[:, 1 + 2 * n:1 + 2 * n + n * d] - 1.0).reshape(count, n, d)
    zB = radius * (2.0 * u[:, 1 + 2 * n + n * d:] - 1.0).reshape(count, n, d)
    recorder = ReferenceRecorder(max_recorded)
    if instance.generator.kind == q.gendsl.STRUCTURED:
        q.certs._falsify_structured(instance, t, yA, yB, zA, zB, recorder)
    else:
        q.certs._falsify_triangular(instance, t, yA, yB, zA, zB, recorder)
    return q.certs.FalsificationReport(
        violations=recorder.violations, violation_count=recorder.total,
        sample_count=count, seed=seed, domain_errors=recorder.domain_errors,
        truncated=recorder.total > len(recorder.violations))


def _bits(x):
    return None if x is None else np.asarray(x, dtype=float).tobytes()


def report_key(report):
    """Everything a report holds, floats and arrays by their bits."""
    return (report.violation_count, report.truncated, report.sample_count, report.seed,
            report.domain_errors,
            [(v.assumption, v.component, _bits(v.t), _bits(v.y), _bits(v.z), _bits(v.y2),
              _bits(v.z2), _bits(v.lhs), _bits(v.rhs)) for v in report.violations])


def rare_domain_error_config():
    """log(y1 + 9.7) and sqrt(|z1| - 0.2) fail at a few percent of the samples,
    so with small blocks some blocks raise and others do not."""
    return structured_config(**{"generator.1.h": "log(y1+9.7)",
                                "generator.1.g": "sqrt(norm(z1)-0.2)*norm2(z1)"})


def every_block_error_config():
    """Domain errors in every block, at different nodes on different rows:
    component 1 fails at log(y1), at sqrt(y2) or at the pow; component 2's
    pow fails only the batch-level guard, never a single row."""
    return remark22_config() | {
        "generator.1.h": "log(y1) + sqrt(y2) + pow(y1 - y2, 1.5)",
        "generator.2.h": "normy + pow(y2, 1.25 + 0.25*sign(y2))",
    }


# (config, seed, count, radius); no count is a multiple of 7 or 64
FALSIFIER_CASES = {
    "planted-h2": (planted_h2_config(), 7, 601, 1e6),
    "triangular-a1": (triangular_a1_config(), 3, 500, 2.0),
    "remark22": (remark22_config(), 0, 450, 10.0),
    "log-y1-rare": (rare_domain_error_config(), 4, 900, 10.0),
    "every-block": (every_block_error_config(), 5, 300, 10.0),
}


class TestBlockStreaming:
    """Streaming the falsifier in index blocks gives the one-block report."""

    @pytest.mark.parametrize("case", sorted(FALSIFIER_CASES))
    @pytest.mark.parametrize("block", [7, 64])
    @pytest.mark.parametrize("max_recorded", [1, 5, 1000])
    def test_matches_reference(self, monkeypatch, case, block, max_recorded):
        cfg, seed, count, radius = FALSIFIER_CASES[case]
        inst, _ = make(cfg)
        want = reference_falsify(inst, seed=seed, count=count, radius=radius,
                                 max_recorded=max_recorded)
        monkeypatch.setattr(q.certs, "_SAMPLE_BLOCK", block)
        got = q.falsify_assumptions(inst, seed=seed, count=count, radius=radius,
                                    max_recorded=max_recorded)
        assert report_key(got) == report_key(want)

    def test_cases_exercise_the_contract(self):
        # truncation and domain errors that fall in only some blocks are covered
        inst, _ = make(planted_h2_config())
        assert reference_falsify(inst, seed=7, count=601, radius=1e6, max_recorded=5).truncated
        cfg, seed, count, radius = FALSIFIER_CASES["log-y1-rare"]
        inst, _ = make(cfg)
        report = reference_falsify(inst, seed=seed, count=count, radius=radius, max_recorded=5)
        hit = {j // 7 for _, j, _ in report.domain_errors}
        assert report.truncated and 0 < len(hit) < -(-count // 7)
        assert {a for a, _, _ in report.domain_errors} == {"H1a", "H1b", "H1d"}

    def test_every_block_fails_at_several_nodes(self):
        cfg, seed, count, radius = FALSIFIER_CASES["every-block"]
        inst, _ = make(cfg)
        report = reference_falsify(inst, seed=seed, count=count, radius=radius)
        assert {j // 7 for _, j, _ in report.domain_errors} == set(range(-(-count // 7)))
        assert {m for _, _, m in report.domain_errors} == {
            "log of nonpositive value at position 0",
            "sqrt of negative value at position 10",
            "pow of negative base with non-integer exponent at position 21"}

    def test_bad_seed_rejected_without_samples(self):
        inst, _ = make(remark22_config())
        with pytest.raises(ValueError):
            q.falsify_assumptions(inst, seed=-1, count=0)
        assert q.falsify_assumptions(inst, seed=0, count=0).clean

    def test_memory_flat_in_sample_count(self):
        # tracemalloc sees numpy's buffers; 16 blocks peak like 2 (one-shot: ~8x)
        inst, _ = make(remark22_config())
        block = q.certs._SAMPLE_BLOCK
        peaks = []
        for blocks in (2, 16):
            tracemalloc.start()
            try:
                q.falsify_assumptions(inst, seed=1, count=blocks * block)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]


class TestNorm:
    @pytest.mark.parametrize("shape, axes", [((9, 2, 3), 1), ((9, 2, 3), 2), ((5, 3), 1),
                                             ((3,), 1), ((2, 4), 2), ((4, 3, 3), 2)])
    def test_same_bits_as_inline_form(self, shape, axes):
        a = np.random.default_rng(2).normal(size=shape) * 7.0
        want = np.sqrt((a ** 2).sum(tuple(range(-axes, 0))))
        assert _bits(q.gendsl.norm(a, axes)) == _bits(want)
