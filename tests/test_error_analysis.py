import math
import warnings

import numpy as np
import pytest

from btt_expm.block_linalg import BlockVector, validate_subgenerator
from btt_expm.dense_expm import assemble_btt_dense, expm_dense_oracle, expm_small
from btt_expm.model_gen import banded_subgenerator, random_subgenerator
from btt_expm import error_analysis as ea

from oracles import dense_eps_circulant, scalar_btt_expm


class TestConstants:
    def test_values(self):
        c = ea.default_constants(m=2)
        assert c.zeta == pytest.approx(1 + 2 * math.sqrt(2), abs=1e-12)
        assert c.gamma == pytest.approx(4 * math.sqrt(2) + 1, abs=1e-12)
        assert c.beta == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert c.tau == 20.0
        assert c.mu == np.finfo(np.float64).eps


class TestPhiChi:
    def test_phi_at_n_equal_one(self):
        c = ea.default_constants(3)
        # log2(1) = 0 collapses both transform terms
        expect = 3 * c.zeta * 0.7 + c.zeta * 0.9 + c.tau
        assert ea.phi_bound(1, 3, 0.7, 0.9, c) == pytest.approx(expect, rel=1e-15)

    def test_phi_independent_transcription(self):
        n, m, umax, ymax = 256, 2, 1.0, 1.0
        c = ea.RoundoffConstants(tau=20.0)
        z = 1 + 2 * math.sqrt(2)
        g = 4 * math.sqrt(2) + 1
        expect = (m * n * (z + g * math.log2(n)) * umax
                  + (z + g * math.sqrt(n) * math.log2(n)) * ymax + 20.0)
        assert ea.phi_bound(n, m, umax, ymax, c) == pytest.approx(expect, rel=1e-14)
        assert expect > 0

    def test_chi_independent_transcription(self):
        n, m = 2, 2
        c = ea.RoundoffConstants(tau=5.0)
        g = 4 * math.sqrt(2) + 1
        expect = m * n * g * 1.0 * 0.5 + g * math.sqrt(2) * 1.0 * 0.25 + 5.0
        assert ea.chi_bound(n, m, 0.5, 0.25, c) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("bound", [ea.phi_bound, ea.chi_bound])
    def test_monotonicity(self, bound):
        base = bound(8, 2, 0.5, 0.5)
        assert bound(16, 2, 0.5, 0.5) >= base
        assert bound(8, 3, 0.5, 0.5) >= base
        assert bound(8, 2, 0.7, 0.5) >= base
        assert bound(8, 2, 0.5, 0.7) >= base
        assert bound(8, 2, 0.5, 0.5, ea.RoundoffConstants(tau=100.0)) >= base

    def test_chi_at_most_phi(self):
        for n in (1, 4, 64):
            assert ea.chi_bound(n, 2, 0.5, 0.8) <= ea.phi_bound(n, 2, 0.5, 0.8)

    def test_total_bounds(self):
        assert ea.eps_roundoff_bound(100.0, 2, 1e-2j, mu=1e-16) == pytest.approx(2e-12)
        assert ea.circulant_roundoff_bound(100.0, 2, mu=1e-16) == pytest.approx(2e-14)


class TestDecayBound:
    def test_sigma_near_one(self):
        for i in (0, 3, 10):
            assert ea.decay_bound(2.0, 4, 1.0 + 1e-12, i) == pytest.approx(1.0, abs=1e-9)

    def test_alpha_zero(self):
        assert ea.decay_bound(0.0, 4, 2.0, 3) == pytest.approx(2.0 ** -3)

    def test_sigma_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            ea.decay_bound(1.0, 4, 1.0, 0)

    def test_computed_blocks_satisfy_bound(self):
        spec = random_subgenerator(4, 2, seed=1, alpha_target=0.5)
        a = expm_dense_oracle(spec)
        for i in range(spec.n):
            rows = a.data[i].sum(axis=1).max()
            assert rows <= ea.decay_bound(spec.alpha, spec.n, 1.05, i) * (1 + 1e-10)

    def test_banded_blocks_satisfy_band_bound(self):
        spec = banded_subgenerator(8, 2, bandwidth=2, seed=2, alpha_target=0.8)
        a = expm_dense_oracle(spec)
        for sigma in (1.05, 1.2, 2.0):
            for i in range(spec.n):
                rows = a.data[i].sum(axis=1).max()
                assert rows <= ea.decay_bound(spec.alpha, 2, sigma, i) * (1 + 1e-10)


class TestEpsApproxBound:
    def test_zero_epsilon(self):
        assert ea.eps_approx_bound(0.7, 0.0) == 0.0

    def test_small_argument_linearization(self):
        b = ea.eps_approx_bound(1e-4, 1e-4)
        assert b == pytest.approx(1e-8, rel=1e-3)
        b_imag = ea.eps_approx_bound(1e-2, 1e-2j)
        assert b_imag == pytest.approx((1e-2 * 1e-2) ** 2, rel=1e-3)

    @pytest.mark.parametrize("eps", [1e-2, 1e-2j])
    def test_dense_difference_below_bound(self, eps):
        spec = random_subgenerator(4, 2, seed=3, alpha_target=0.5)
        et = expm_small(assemble_btt_dense(spec.u))
        ec = expm_small(dense_eps_circulant(spec.u.data, eps))
        approx = ec.real if complex(eps).real == 0 else ec
        measured = np.abs(et - approx).sum(axis=1).max()
        assert measured <= ea.eps_approx_bound(spec.l_norm, eps)


class TestEmbeddingBound:
    def test_shift_by_one_in_K(self):
        f1 = ea.embedding_bound_fK(0.5, 0.8, 4, 16, 3.0)
        f2 = ea.embedding_bound_fK(0.5, 0.8, 4, 17, 3.0)
        assert f2 == pytest.approx(f1 / 3.0, rel=1e-12)

    def test_zero_l_norm(self):
        assert ea.embedding_bound_fK(0.5, 0.0, 4, 16, 2.0) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ea.embedding_bound_fK(0.5, 0.8, 4, 2, 2.0)
        with pytest.raises(ValueError):
            ea.embedding_bound_fK(0.5, 0.8, 4, 16, 1.0)

    def test_measured_embedding_error_below_grid_minimum(self):
        from btt_expm.exp_btt import exp_btt_embedding
        spec = random_subgenerator(4, 2, seed=4, alpha_target=0.3)
        K = 16
        res = exp_btt_embedding(spec, K, use_scaling=False)
        ref = expm_dense_oracle(spec)
        measured = np.abs(res.y.data - ref.data).sum(axis=(0, 2)).max()
        grid = 1.0 + np.geomspace(1e-3, 99.0, 80)
        fmin = min(ea.embedding_bound_fK(spec.alpha, spec.l_norm, spec.n, K, s)
                   for s in grid)
        assert measured <= fmin

    def test_size_function_relation(self):
        # K > g(sigma) exactly when f_K(sigma) < target
        alpha, l, n, target, sigma = 0.4, 0.6, 4, 1e-9, 2.5
        g = ea.embedding_size_g(alpha, l, n, target, sigma)
        k_lo = int(math.floor(g))
        k_hi = int(math.ceil(g)) + 1
        if k_lo >= n:
            assert ea.embedding_bound_fK(alpha, l, n, k_lo, sigma) >= target
        assert ea.embedding_bound_fK(alpha, l, n, k_hi, sigma) < target


class TestTaylorTruncationBound:
    def spec_scalar(self, u0, u1):
        return validate_subgenerator(BlockVector(np.array([[[u0]], [[u1]]])))

    def test_zero_shifted_matrix(self):
        spec = validate_subgenerator(BlockVector(np.array([[[-2.0]]])))
        for r in (1, 3, 10):
            assert ea.taylor_truncation_bound(spec, r) == 0.0

    def test_decreasing_in_r(self):
        spec = self.spec_scalar(-1.0, 1.0)
        values = [ea.taylor_truncation_bound(spec, r) for r in range(2, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bounds_actual_truncation_error(self):
        spec = self.spec_scalar(-1.0, 1.0)
        t = assemble_btt_dense(spec.u) + spec.alpha * np.eye(2)
        exact = expm_small(t)
        for r in range(3, 11):
            bound = ea.taylor_truncation_bound(spec, r)
            s = np.eye(2)
            tk = np.eye(2)
            for k in range(1, r):
                tk = tk @ t / k
                s = s + tk  # partial sum with terms of degree < r
            actual = np.abs(exact - s).sum(axis=1).max()
            assert actual <= bound

    def test_hypothesis_violation_rejected(self):
        spec = self.spec_scalar(-3.0, 3.0)
        with pytest.raises(ValueError):
            ea.taylor_truncation_bound(spec, 1)

    def test_r_below_one_rejected(self):
        spec = self.spec_scalar(-1.0, 1.0)
        with pytest.raises(ValueError):
            ea.taylor_truncation_bound(spec, 0)


class TestRowTailBound:
    @staticmethod
    def row_sums(spec):
        sums = spec.u.data.sum(axis=2)
        far = np.flatnonzero(sums[1:].any(axis=1))
        return sums[:far[-1] + 2]

    def test_bounds_exact_scalar_tail(self):
        spec = banded_subgenerator(512, 1, 3, seed=2, alpha_target=6.0)
        y = scalar_btt_expm(spec.u.data)[:, 0, 0]
        sums = self.row_sums(spec)
        assert sums.shape == (3, 1)
        for L in (1, 8, 32, 64, 128):
            exact = y[L:].sum()
            assert exact > 0
            for t in (0.05, 0.5, 2.0, 700.0 / 2):
                assert math.log(exact) <= ea.row_tail_log_bound(sums, L, t) + 1e-12

    def test_bounds_exact_block_tail(self):
        spec = banded_subgenerator(64, 3, 4, seed=5, slack=0.3, alpha_target=2.0)
        y = expm_dense_oracle(spec).data
        sums = self.row_sums(spec)
        for L in (2, 8, 16, 32):
            exact = y[L:].sum(axis=(0, 2)).max()
            assert exact > 0
            for t in (0.1, 0.7, 3.0):
                assert math.log(exact) <= ea.row_tail_log_bound(sums, L, t) + 1e-12

    def test_matches_hand_formula(self):
        # U_0 = -2, U_1 = 1.5, U_2 = 0.5: -L t + (-2 + 1.5 e^t + 0.5 e^(2t))
        sums = np.array([[-2.0], [1.5], [0.5]])
        t = 0.3
        expect = -10 * t - 2.0 + 1.5 * math.exp(t) + 0.5 * math.exp(2 * t)
        assert ea.row_tail_log_bound(sums, 10, t) == pytest.approx(expect, rel=1e-15)

    def test_range_end_is_finite_or_inf(self):
        # sigma**b stays finite at log sigma = 700/b; a sum that overflows
        # gives inf (no bound), never nan, and no warning
        spec = banded_subgenerator(4096, 2, 2048, seed=1, alpha_target=50.0)
        sums = self.row_sums(spec)
        t = 700.0 / (sums.shape[0] - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(ea.row_tail_log_bound(sums, 0, t))
            assert ea.row_tail_log_bound(sums * 1e10, 0, t) == math.inf

    @pytest.mark.parametrize("t", [0.0, -1.0, 700.0 / 2 * (1 + 1e-12)])
    def test_log_sigma_out_of_range_rejected(self, t):
        with pytest.raises(ValueError):
            ea.row_tail_log_bound(np.array([[-1.0], [0.5], [0.5]]), 4, t)
