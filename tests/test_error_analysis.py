import math
import warnings

import numpy as np
import pytest

from btt_expm.block_linalg import BlockVector, validate_subgenerator
from btt_expm.dense_expm import assemble_btt_dense, expm_dense_oracle
from btt_expm.exp_btt import embedding_tail_bound, exp_btt_embedding
from btt_expm.model_gen import banded_subgenerator, random_subgenerator
from btt_expm import error_analysis as ea

from oracles import dense_eps_circulant, expm_small, row_sums, scalar_btt_expm


class TestConstants:
    def test_values(self):
        assert ea._ZETA == pytest.approx(1 + 2 * math.sqrt(2), abs=1e-12)
        assert ea._GAMMA == pytest.approx(4 * math.sqrt(2) + 1, abs=1e-12)
        assert ea._MU == np.finfo(np.float64).eps
        # tau = 10 m is all that is left at n = 1 with zero norms
        assert ea.phi_bound(1, 2, 0.0, 0.0) == 20.0
        assert ea.chi_bound(1, 3, 0.0, 0.0) == 30.0


class TestPhiChi:
    def test_phi_at_n_equal_one(self):
        # log2(1) = 0 collapses both transform terms
        expect = 3 * ea._ZETA * 0.7 + ea._ZETA * 0.9 + 30.0
        assert ea.phi_bound(1, 3, 0.7, 0.9) == pytest.approx(expect, rel=1e-15)

    def test_phi_independent_transcription(self):
        n, m, umax, ymax = 256, 2, 1.0, 1.0
        z = 1 + 2 * math.sqrt(2)
        g = 4 * math.sqrt(2) + 1
        expect = (m * n * (z + g * math.log2(n)) * umax
                  + (z + g * math.sqrt(n) * math.log2(n)) * ymax + 20.0)
        assert ea.phi_bound(n, m, umax, ymax) == pytest.approx(expect, rel=1e-14)
        assert expect > 0

    def test_chi_independent_transcription(self):
        n, m = 2, 2
        g = 4 * math.sqrt(2) + 1
        expect = m * n * g * 1.0 * 0.5 + g * math.sqrt(2) * 1.0 * 0.25 + 20.0
        assert ea.chi_bound(n, m, 0.5, 0.25) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("bound", [ea.phi_bound, ea.chi_bound])
    def test_monotonicity(self, bound):
        base = bound(8, 2, 0.5, 0.5)
        assert bound(16, 2, 0.5, 0.5) >= base
        assert bound(8, 3, 0.5, 0.5) >= base
        assert bound(8, 2, 0.7, 0.5) >= base
        assert bound(8, 2, 0.5, 0.7) >= base

    def test_chi_at_most_phi(self):
        for n in (1, 4, 64):
            assert ea.chi_bound(n, 2, 0.5, 0.8) <= ea.phi_bound(n, 2, 0.5, 0.8)

    def test_total_bounds(self):
        mu = np.finfo(np.float64).eps
        assert ea.eps_roundoff_bound(100.0, 2, 1e-2j) == pytest.approx(2e4 * mu)
        assert ea.circulant_roundoff_bound(100.0, 2) == pytest.approx(200 * mu)


class TestDecayBound:
    """Block i of the exponential row is below the row's mass from block i
    on, so the tail bound at L = i is a decay bound for block i."""

    def test_sigma_near_one(self):
        # rows of S = sum_j U_j sum to 0: the bound tends to e**0 = 1
        sums = np.array([[-2.0], [1.5], [0.5]])
        for i in (0, 3, 10):
            bound = math.exp(ea.row_tail_log_bound(sums, i, 1e-12))
            assert bound == pytest.approx(1.0, abs=1e-9)

    def test_alpha_zero(self):
        assert ea.row_tail_log_bound(np.zeros((4, 1)), 3, math.log(2.0)) \
            == pytest.approx(-3 * math.log(2.0), rel=1e-15)

    def test_sigma_at_most_one_rejected(self):
        for sigma in (1.0, 0.5):
            with pytest.raises(ValueError):
                ea.row_tail_log_bound(np.array([[-1.0], [1.0]]), 0, math.log(sigma))

    def test_computed_blocks_satisfy_bound(self):
        spec = random_subgenerator(4, 2, seed=1, alpha_target=0.5)
        a = expm_dense_oracle(spec)
        sums = row_sums(spec)
        for i in range(spec.n):
            rows = a.data[i].sum(axis=1).max()
            bound = math.exp(ea.row_tail_log_bound(sums, i, math.log(1.05)))
            assert rows <= bound * (1 + 1e-10)

    def test_banded_blocks_satisfy_band_bound(self):
        spec = banded_subgenerator(8, 2, bandwidth=2, seed=2, alpha_target=0.8)
        a = expm_dense_oracle(spec)
        sums = row_sums(spec)
        assert sums.shape == (2, 2)
        for sigma in (1.05, 1.2, 2.0):
            for i in range(spec.n):
                rows = a.data[i].sum(axis=1).max()
                bound = math.exp(ea.row_tail_log_bound(sums, i, math.log(sigma)))
                assert rows <= bound * (1 + 1e-10)


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
    """The embedding's error on the leading blocks is at most the row's mass
    beyond block K: the tail bound at L = K, minimized over log sigma."""

    def test_shift_by_one_in_K(self):
        spec = random_subgenerator(4, 2, seed=4, alpha_target=0.5)
        sums = row_sums(spec)
        t = math.log(3.0)
        f16 = ea.row_tail_log_bound(sums, 16, t)
        assert ea.row_tail_log_bound(sums, 17, t) == pytest.approx(f16 - t, rel=1e-12)
        assert embedding_tail_bound(spec, 17) < embedding_tail_bound(spec, 16)

    def test_zero_l_norm(self):
        spec = banded_subgenerator(4, 2, 1, seed=4, slack=0.5, alpha_target=1.0)
        assert spec.l_norm == 0.0
        assert embedding_tail_bound(spec, 4) == 0.0

    def test_invalid_arguments(self):
        spec = random_subgenerator(4, 2, seed=4, alpha_target=0.5)
        with pytest.raises(ValueError):
            embedding_tail_bound(spec, 2)
        with pytest.raises(ValueError):
            ea.row_tail_log_bound(row_sums(spec), 16, 0.0)

    def test_measured_embedding_error_below_grid_minimum(self):
        spec = random_subgenerator(4, 2, seed=4, alpha_target=0.3)
        ref = expm_dense_oracle(spec)
        sums = row_sums(spec)
        grid = np.log(1.0 + np.geomspace(1e-3, 99.0, 80))
        for K in (4, 8):
            res = exp_btt_embedding(spec, K, use_scaling=False)
            assert res.n_eff == spec.n
            measured = np.abs(res.y.data - ref.data).sum(axis=(0, 2)).max()
            fmin = math.exp(min(ea.row_tail_log_bound(sums, K, t) for t in grid))
            assert 1e-14 < measured <= fmin
            assert res.predicted_bounds["tail"] <= fmin

    def test_size_function_relation(self):
        # the least length at which the bound meets the target,
        # min over t of (bound at L = 0 - log target) / t: at and above it
        # some t meets the target, below it none does
        spec = random_subgenerator(4, 2, seed=10, alpha_target=0.6)
        sums = row_sums(spec)
        log_target = math.log(1e-9)
        grid = np.linspace(1e-3, 700.0 / (sums.shape[0] - 1), 4000)
        g = min((ea.row_tail_log_bound(sums, 0, t) - log_target) / t for t in grid)
        assert g > spec.n

        def meets(L):
            return min(ea.row_tail_log_bound(sums, L, t) for t in grid) <= log_target

        assert meets(math.ceil(g))
        assert not meets(math.floor(g))


class TestTaylorTruncationBound:
    def test_zero_shifted_matrix(self):
        for r in (1, 3, 10):
            assert ea.taylor_truncation_bound(0.0, r) == 0.0

    def test_decreasing_in_r(self):
        values = [ea.taylor_truncation_bound(1.0, r) for r in range(2, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bounds_actual_truncation_error(self):
        # U_0 = -1, U_1 = 1: the shifted 2 x 2 matrix has inf-norm 1
        spec = validate_subgenerator(BlockVector(np.array([[[-1.0]], [[1.0]]])))
        t = assemble_btt_dense(spec.u) + spec.alpha * np.eye(2)
        norm = np.abs(t).sum(axis=1).max()
        assert norm == 1.0
        exact = expm_small(t)
        for r in range(3, 11):
            bound = ea.taylor_truncation_bound(norm, r)
            s = np.eye(2)
            tk = np.eye(2)
            for k in range(1, r):
                tk = tk @ t / k
                s = s + tk  # partial sum with terms of degree < r
            actual = np.abs(exact - s).sum(axis=1).max()
            assert actual <= bound

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(ValueError):
            ea.taylor_truncation_bound(3.0, 1)

    def test_r_below_one_rejected(self):
        with pytest.raises(ValueError):
            ea.taylor_truncation_bound(1.0, 0)


class TestRowTailBound:
    def test_bounds_exact_scalar_tail(self):
        spec = banded_subgenerator(512, 1, 3, seed=2, alpha_target=6.0)
        y = scalar_btt_expm(spec.u.data)[:, 0, 0]
        sums = row_sums(spec)
        assert sums.shape == (3, 1)
        for L in (1, 8, 32, 64, 128):
            exact = y[L:].sum()
            assert exact > 0
            for t in (0.05, 0.5, 2.0, 700.0 / 2):
                assert math.log(exact) <= ea.row_tail_log_bound(sums, L, t) + 1e-12

    def test_bounds_exact_block_tail(self):
        spec = banded_subgenerator(64, 3, 4, seed=5, slack=0.3, alpha_target=2.0)
        y = expm_dense_oracle(spec).data
        sums = row_sums(spec)
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
        sums = row_sums(spec)
        t = 700.0 / (sums.shape[0] - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(ea.row_tail_log_bound(sums, 0, t))
            assert ea.row_tail_log_bound(sums * 1e10, 0, t) == math.inf

    @pytest.mark.parametrize("spec", [
        banded_subgenerator(64, 3, 4, seed=5, slack=0.3, alpha_target=2.0),
        banded_subgenerator(4096, 1, 7, seed=2, alpha_target=50.0),
        random_subgenerator(2048, 3, density=0.3, seed=11, alpha_target=50.0)],
        ids=["b3", "b6", "b2047"])
    def test_array_form_matches_direct_sum(self, spec):
        # the bound at an array of log sigma, which splits each power
        # sigma**j in two, against sum_j (U_j 1)_i e**(t j) summed directly,
        # and against itself at each log sigma alone (a float)
        sums = row_sums(spec)
        b = sums.shape[0] - 1
        t = np.geomspace(1e-7, 1.0, 40) * (700.0 / b)
        direct = (np.exp(np.outer(t, np.arange(b + 1))) @ sums).max(axis=1) - 5 * t
        got = ea.row_tail_log_bound(sums, 5, t)
        tol = {"rtol": 1e-12, "atol": 1e-12 * np.abs(sums).sum()}
        np.testing.assert_allclose(got, direct, **tol)
        alone = [ea.row_tail_log_bound(sums, 5, x) for x in t[::7]]
        assert all(isinstance(x, float) for x in alone)
        np.testing.assert_allclose(alone, got[::7], **tol)

    @pytest.mark.parametrize("t", [0.0, -1.0, 700.0 / 2 * (1 + 1e-12)])
    def test_log_sigma_out_of_range_rejected(self, t):
        with pytest.raises(ValueError):
            ea.row_tail_log_bound(np.array([[-1.0], [0.5], [0.5]]), 4, t)
