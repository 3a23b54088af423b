import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from btt_expm.block_linalg import BlockVector, error_report, validate_subgenerator
from btt_expm.dense_expm import expm_dense_oracle
from btt_expm.errors import NumericalError
from btt_expm.exp_btt import (MethodConfig, compute_exponential,
                              exp_btt_embedding, exp_btt_eps,
                              exp_btt_eps_averaged, exp_btt_taylor,
                              embedding_tail_bound,
                              repeated_squaring,
                              scaling_exponent, select_embedding_K,
                              select_epsilon)
from btt_expm.exp_circulant import exp_circulant
from btt_expm.fft_transforms import _transform_stack
from btt_expm.model_gen import banded_subgenerator, random_subgenerator
from btt_expm.structured_mul import btt_times_btt
from btt_expm import error_analysis as ea
from btt_expm import exp_btt, structured_mul

from oracles import (block_row_inf_norm, eps_average_rows, erlang_clock_exact,
                     erlang_clock_row, expm_small, l_norm, row_sums, scalar_btt_expm)

MU = float(np.finfo(np.float64).eps)


def spec_of(arr):
    return validate_subgenerator(BlockVector(np.asarray(arr, dtype=float)))


class TestScalingExponent:
    @pytest.mark.parametrize("alpha,p", [(3.0, 2), (0.5, 0), (1024.0, 11), (1.0, 0)])
    def test_values(self, alpha, p):
        spec = spec_of([[[-alpha]]])
        assert scaling_exponent(spec) == p

    def test_scaled_alpha_at_most_one(self):
        for alpha in (1.5, 3.0, 7.9, 100.0):
            spec = spec_of([[[-alpha]]])
            p = scaling_exponent(spec)
            assert alpha / 2 ** p <= 1.0


class TestRepeatedSquaring:
    def test_zero_squarings(self):
        v = np.random.default_rng(0).standard_normal((4, 2, 2))
        np.testing.assert_array_equal(repeated_squaring(v, 0), v)

    def test_hand_square(self):
        y = np.array([[[2.0]], [[3.0]]])
        out = repeated_squaring(y, 1)
        np.testing.assert_allclose(out.ravel(), [4.0, 12.0], atol=1e-13)

    def test_squaring_half_exponent(self):
        spec = random_subgenerator(4, 2, seed=1, alpha_target=0.8)
        half = expm_dense_oracle(spec.scaled(1))
        full = expm_dense_oracle(spec)
        squared = repeated_squaring(half.data, 1)
        assert np.abs(squared - full.data).max() <= 1e-12

    def test_hand_square_at_growing_lengths(self):
        # (2 + 3z)**2 = 4 + 12z + 9z**2, then squared again and kept to 4
        # terms: 16 + 96z + 216z**2 + 216z**3
        y = np.array([[[2.0]], [[3.0]]])
        out = repeated_squaring(y, 2, [4, 4])
        np.testing.assert_allclose(out.ravel(), [16.0, 96.0, 216.0, 216.0])
        # kept to 2 terms first, the z**2 term is dropped before the second
        # square, which changes only the blocks from 2 on
        out = repeated_squaring(y, 2, [2, 4])
        np.testing.assert_allclose(out.ravel(), [16.0, 96.0, 144.0, 0.0])

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError):
            repeated_squaring(np.ones((2, 1, 1)), -1)


class TestEpsMethod:
    def test_single_block_any_epsilon(self):
        spec = random_subgenerator(1, 2, slack=0.5, seed=2)
        for eps in (0.5, 1e-3j, 0.1 + 0.1j):
            res = exp_btt_eps(spec, eps)
            np.testing.assert_allclose(res.y.data[0], expm_small(spec.u.data[0]),
                                       rtol=1e-12, atol=1e-15)

    def test_error_within_approximation_bound_plus_roundoff(self):
        spec = random_subgenerator(4, 2, seed=20, alpha_target=1.0)
        ref = expm_dense_oracle(spec)
        scaled = spec.scaled(scaling_exponent(spec))
        for eps in (1e-2j, 3e-2j):
            res = exp_btt_eps(spec, eps)
            nw = error_report(res.y, ref).nw_abs
            bound = ea.eps_approx_bound(scaled.l_norm, eps) + 1e-10
            assert nw <= bound

    def test_error_v_shape_over_theta(self):
        spec = random_subgenerator(4, 2, seed=20, alpha_target=1.0)
        ref = expm_dense_oracle(spec)
        thetas = np.geomspace(1e-9, 0.999, 10)
        errs = [error_report(exp_btt_eps(spec, 1j * t).y, ref).nw_rel
                for t in thetas]
        best = int(np.argmin(errs))
        assert 0 < best < len(errs) - 1          # interior minimum
        assert errs[0] > errs[best] < errs[-1]   # falls then rises
        assert min(errs) <= 1e-9

    def test_imaginary_epsilon_beats_real_at_same_magnitude(self):
        spec = random_subgenerator(4, 2, seed=20, alpha_target=1.0)
        ref = expm_dense_oracle(spec)
        for t in (1e-2, 1e-3):
            e_im = error_report(exp_btt_eps(spec, 1j * t).y, ref).nw_abs
            e_re = error_report(exp_btt_eps(spec, t).y, ref).nw_abs
            assert e_im <= e_re

    def test_epsilon_validation(self):
        spec = random_subgenerator(4, 2, seed=3)
        with pytest.raises(ValueError):
            exp_btt_eps(spec, 0.0)
        with pytest.raises(ValueError):
            exp_btt_eps(spec, 1.0)
        exp_btt_eps(spec, 1.5, allow_large_eps=True)

    @pytest.mark.parametrize("call", [
        lambda s: exp_btt_eps(s, math.nan),
        lambda s: exp_btt_eps(s, complex(0.0, math.nan)),
        lambda s: exp_btt_eps(s, complex(math.nan, 1e-3)),
        lambda s: exp_btt_eps(s, math.inf, allow_large_eps=True),
        lambda s: exp_btt_eps(s, complex(0.0, -math.inf), allow_large_eps=True),
        lambda s: exp_btt_eps_averaged(s, math.inf, 2, allow_large_eps=True),
    ], ids=["nan", "nan_imag", "nan_real", "inf", "inf_imag", "averaged_inf"])
    def test_non_finite_parameter_rejected(self, call):
        # a NaN or infinite eps or theta gave a NaN row and NaN bounds
        with pytest.raises(ValueError, match="finite"):
            call(random_subgenerator(4, 2, seed=3))


class TestAveragedMethod:
    def test_k_one_reduces_to_imaginary_eps(self):
        spec = random_subgenerator(4, 2, seed=20, alpha_target=1.0)
        a = exp_btt_eps_averaged(spec, 1e-2, 1).y.data
        b = exp_btt_eps(spec, 1e-2j).y.data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("theta", [1e-2, 0.5])
    @pytest.mark.parametrize("n", [1, 5, 64])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_core_is_the_mean_of_k_circulants(self, m, k, n, theta):
        # the N-th roots of the k rotated eps are together the kN-th roots of
        # i theta**k, so one circulant of kN blocks gives the mean of the k
        # eps-circulant rows of N blocks
        spec = random_subgenerator(n, m, slack=0.3, seed=n + m + k, alpha_target=4.0)
        sspec = spec.scaled(scaling_exponent(spec))
        log_eps = complex(k * math.log(theta), math.pi / 2)
        core = exp_btt._eps_core(k, log_eps, "single_point_approx", 1j * theta)
        row, _ = core(sspec, sspec.u.data.copy())
        size = min(2 * n, exp_btt._next_pow2(n))
        padded = np.zeros((size, m, m))
        padded[:n] = sspec.u.data
        ref = eps_average_rows(padded, theta, k)[:n]
        diff = block_row_inf_norm(BlockVector(row - ref))
        assert diff <= 1e-13 * block_row_inf_norm(BlockVector(ref))

    @pytest.mark.parametrize("theta,k,large", [(1e-2, 200, False), (2.0, 1100, True)])
    def test_theta_power_outside_float_range(self, theta, k, large):
        # theta**k underflows (1e-400) or overflows (2**1100): the core takes
        # its log and never forms it
        spec = random_subgenerator(8, 2, seed=20, alpha_target=1.0)
        ref = expm_dense_oracle(spec)
        res = exp_btt_eps_averaged(spec, theta, k, allow_large_eps=large)
        assert error_report(res.y, ref).nw_rel <= 100 * MU

    def test_more_points_cannot_hurt(self):
        spec = random_subgenerator(4, 2, seed=20, alpha_target=1.0)
        ref = expm_dense_oracle(spec)
        errs = {k: error_report(exp_btt_eps_averaged(spec, 1e-2, k).y, ref).nw_rel
                for k in (1, 2, 4)}
        assert errs[2] < errs[1]
        assert errs[4] <= errs[2]

    def test_k_four_reaches_roundoff_floor(self):
        spec = random_subgenerator(4, 2, seed=20, alpha_target=1.0)
        ref = expm_dense_oracle(spec)
        rep = error_report(exp_btt_eps_averaged(spec, 1e-2, 4).y, ref)
        assert rep.nw_rel <= 100 * MU

    def test_parameter_validation(self):
        spec = random_subgenerator(4, 2, seed=3)
        with pytest.raises(ValueError):
            exp_btt_eps_averaged(spec, 0.0, 2)
        with pytest.raises(ValueError):
            exp_btt_eps_averaged(spec, 1.5, 2)
        with pytest.raises(ValueError):
            exp_btt_eps_averaged(spec, 1e-2, 0)


class TestEmbeddingMethod:
    def test_trivial_size_one(self):
        spec = random_subgenerator(1, 2, slack=0.3, seed=5)
        res = exp_btt_embedding(spec, 1)
        np.testing.assert_allclose(res.y.data[0], expm_small(spec.u.data[0]),
                                   rtol=1e-12, atol=1e-15)

    def test_error_decreases_with_doubling_until_floor(self):
        spec = random_subgenerator(8, 2, seed=21, alpha_target=1.0)
        ref = expm_dense_oracle(spec)
        errs = [error_report(exp_btt_embedding(spec, K).y, ref).nw_abs
                for K in (8, 16, 32, 64, 128)]
        floor = 100 * MU
        for a, b in zip(errs, errs[1:]):
            assert b <= a or a <= floor

    def test_rows_dominate_truth_and_shrink_with_K(self):
        spec = random_subgenerator(8, 2, seed=22, alpha_target=0.5)
        a = expm_dense_oracle(spec).data
        s1 = exp_btt_embedding(spec, 16, use_scaling=False).y.data
        s2 = exp_btt_embedding(spec, 32, use_scaling=False).y.data
        assert (s1 - a).min() >= -1e-12
        assert (s2 - a).min() >= -1e-12
        assert (s2 - s1).max() <= 1e-12

    def test_error_below_tail_bound(self):
        # the error on the leading blocks is at most the row's mass beyond
        # block K, plus roundoff; at K = n the bound is within 20x of it
        for spec in (random_subgenerator(4, 2, seed=6, alpha_target=0.3),
                     random_subgenerator(8, 3, seed=6, alpha_target=2.0)):
            ref = expm_dense_oracle(spec)
            for K in (spec.n, 2 * spec.n, 8 * spec.n):
                res = exp_btt_embedding(spec, K, use_scaling=False)
                assert res.n_eff == spec.n
                bound = embedding_tail_bound(spec, K)
                assert res.predicted_bounds["tail"] == bound
                nw = error_report(res.y, ref).nw_abs
                assert nw <= bound + res.predicted_bounds["roundoff"]
                if K == spec.n:
                    assert bound <= 20 * nw

    def test_reported_tail_is_the_minimized_bound(self):
        spec = random_subgenerator(6, 2, seed=6, alpha_target=3.0)
        res = exp_btt_embedding(spec, 20)
        scaled = spec.scaled(res.scaling_p)
        assert res.method_used.K == 32 and res.n_eff == 6
        assert res.predicted_bounds["tail"] == embedding_tail_bound(scaled, 32)
        sums = row_sums(scaled)
        grid = np.log(1.0 + np.geomspace(1e-3, 99.0, 80))
        assert res.predicted_bounds["tail"] <= math.exp(
            min(ea.row_tail_log_bound(sums, 32, t) for t in grid))

    def test_tail_bound_finite_at_large_n(self):
        # the bound uses the row's actual band: at n = 8192 it meets 1e-12 at
        # K = n, where a bound that takes every row to have bandwidth n asked
        # for K = 32n
        spec = banded_subgenerator(8192, 2, 4, seed=0, alpha_target=200.0)
        scaled = spec.scaled(scaling_exponent(spec))
        K = select_embedding_K(scaled, 1e-12)
        assert K == 8192
        bound = embedding_tail_bound(scaled, K)
        assert math.isfinite(bound) and bound <= 1e-12

    def test_K_below_n_rejected(self):
        spec = random_subgenerator(4, 2, seed=3)
        with pytest.raises(ValueError):
            exp_btt_embedding(spec, 3)


class TestLargeScalarOracle:
    """m = 1 at n = 4096, against the exact power-series recurrence: products
    and transforms at lengths no dense oracle reaches."""

    @pytest.fixture(scope="class")
    def case(self):
        spec = banded_subgenerator(4096, 1, 4, seed=5, alpha_target=20.0)
        return spec, BlockVector(scalar_btt_expm(spec.u.data))

    def test_recurrence_matches_dense_oracle(self):
        spec = banded_subgenerator(64, 1, 4, seed=3, alpha_target=3.0)
        ref = expm_dense_oracle(spec)
        assert error_report(BlockVector(scalar_btt_expm(spec.u.data)), ref).nw_rel <= 1e-14

    def test_taylor(self, case):
        spec, ref = case
        assert error_report(exp_btt_taylor(spec, 1e-15).y, ref).nw_rel <= 1e-12

    def test_embedding(self, case):
        spec, ref = case
        p = scaling_exponent(spec)
        res = exp_btt_embedding(spec, select_embedding_K(spec.scaled(p), 1e-14))
        assert res.scaling_p == p > 0
        assert error_report(res.y, ref).nw_rel <= 1e-12
        assert res.predicted_bounds["tail"] <= 1e-14


class TestTaylorMethod:
    def test_scalar_case(self):
        spec = spec_of([[[-1.0]]])
        res = exp_btt_taylor(spec, 1e-15)
        assert res.y.data[0, 0, 0] == pytest.approx(math.exp(-1), abs=1e-14)

    def test_matches_oracle(self):
        spec = random_subgenerator(4, 2, seed=7, alpha_target=0.8)
        res = exp_btt_taylor(spec, 1e-15)
        assert error_report(res.y, expm_dense_oracle(spec)).nw_rel <= 1e-12

    def test_partial_sums_stay_nonnegative(self):
        # rebuild the shifted iteration with the public products: every
        # partial sum before the exp(-alpha) factor is a sum of nonnegative
        # terms, so only roundoff-level negativity can appear
        spec = random_subgenerator(4, 2, seed=8, alpha_target=0.8)
        shifted = spec.u.data.copy()
        shifted[0] += spec.alpha * np.eye(spec.m)
        w = shifted
        y = shifted.copy()
        y[0] += np.eye(spec.m)
        for r in range(2, 12):
            w = btt_times_btt(shifted, w / r)
            y = y + w
            assert y.min() >= -1e-12

    def test_scaling_from_whole_row(self):
        # m = 1: the shifted leading block is 0, which gave p = 0 and no
        # convergence within 200 terms at alpha = 200
        spec = banded_subgenerator(4096, 1, 4, seed=0, alpha_target=200.0)
        res = exp_btt_taylor(spec, 1e-15, 200)
        assert res.scaling_p == scaling_exponent(spec) == 8
        ref = BlockVector(scalar_btt_expm(spec.u.data))
        assert error_report(res.y, ref).nw_rel <= 1e-12

    def test_non_convergence_raises(self, monkeypatch):
        # the degree is fixed before the first product, so none is made
        spec = random_subgenerator(4, 2, seed=20, alpha_target=1.0)
        monkeypatch.setattr(exp_btt, "btt_times_btt", None)
        with pytest.raises(NumericalError, match="terms"):
            exp_btt_taylor(spec, 1e-15, max_terms=2)

    @pytest.mark.parametrize("tol", [1e-4, 1e-10, 1e-15])
    def test_degree_fixed_by_bound(self, tol, monkeypatch):
        # the least degree d whose remainder bound is at most tol: d - 1
        # products for the series and p for the squarings; the fixed operand
        # is transformed once, each series product then takes two transforms
        # and each squaring two
        spec = banded_subgenerator(512, 2, 3, seed=1, alpha_target=2.0)
        p = scaling_exponent(spec)
        alpha = spec.alpha / 2 ** p
        d = next(d for d in range(1, 200)
                 if ea.taylor_truncation_bound(alpha, d + 1) <= tol)
        assert d == 1 or ea.taylor_truncation_bound(alpha, d) > tol
        calls = []
        transforms = []

        def counting(*args, **kwargs):
            calls.append(1)
            return btt_times_btt(*args, **kwargs)

        def counting_transform(*args, **kwargs):
            transforms.append(1)
            return _transform_stack(*args, **kwargs)

        monkeypatch.setattr(exp_btt, "btt_times_btt", counting)
        monkeypatch.setattr(structured_mul, "_transform_stack", counting_transform)
        res = exp_btt_taylor(spec, tol)
        assert len(calls) == d - 1 + p
        assert len(transforms) == 2 * (d - 1) + 1 + 2 * p
        assert res.predicted_bounds["series"] == \
            math.exp(-alpha) * ea.taylor_truncation_bound(alpha, d + 1)

    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
    def test_error_within_series_bound(self, tol):
        # p = 0 and n' = n: the reported bound covers the whole error
        spec = random_subgenerator(4, 2, seed=7, alpha_target=0.8)
        res = exp_btt_taylor(spec, tol)
        assert res.scaling_p == 0 and res.n_eff == spec.n
        err = error_report(res.y, expm_dense_oracle(spec)).nw_abs
        assert err <= res.predicted_bounds["series"] + 1e-14

    def test_parameter_validation(self):
        spec = random_subgenerator(4, 2, seed=3)
        with pytest.raises(ValueError):
            exp_btt_taylor(spec, 0.0)
        with pytest.raises(ValueError):
            exp_btt_taylor(spec, 1e-10, max_terms=1)


class TestSelectEpsilon:
    def test_imaginary_formula(self):
        spec = random_subgenerator(4, 2, seed=9, alpha_target=0.6)
        scaled = spec.scaled(scaling_exponent(spec))
        eps = select_epsilon(scaled, imaginary=True)
        phi = ea.phi_bound(4, scaled.m, float(np.abs(scaled.u.data).max()), 1.0)
        expect = (scaled.m * MU * phi / scaled.l_norm ** 2) ** (1.0 / 3.0)
        assert eps.real == 0
        assert eps.imag == pytest.approx(expect, rel=1e-12)

    def test_real_formula(self):
        spec = random_subgenerator(4, 2, seed=9, alpha_target=0.6)
        scaled = spec.scaled(scaling_exponent(spec))
        eps = select_epsilon(scaled, imaginary=False)
        phi = ea.phi_bound(4, scaled.m, float(np.abs(scaled.u.data).max()), 1.0)
        expect = (scaled.m * MU * phi / scaled.l_norm) ** 0.5
        assert eps.imag == 0
        assert eps.real == pytest.approx(expect, rel=1e-12)

    def test_degenerate_block_diagonal(self):
        spec = spec_of([[[-1.0]]])
        assert select_epsilon(spec) == 1j * MU ** (1.0 / 3.0)

    def test_degenerate_block_diagonal_real(self):
        # the block-diagonal default honours imaginary=False too
        spec = spec_of([[[-1.0]], [[0.0]]])
        eps = select_epsilon(spec, imaginary=False)
        assert eps.imag == 0 and eps.real == MU ** (1.0 / 3.0)

    def test_clamped_into_valid_range(self):
        arr = np.zeros((2, 1, 1))
        arr[0, 0, 0] = -1.0
        arr[1, 0, 0] = 1e-9
        spec = validate_subgenerator(BlockVector(arr))
        eps = select_epsilon(spec, imaginary=False)
        assert 0 < abs(eps) < 1


class TestSelectEmbeddingK:
    def test_selected_K_satisfies_target(self):
        spec = random_subgenerator(4, 2, seed=10, alpha_target=0.6)
        sums = row_sums(spec)
        grid = np.log(1.0 + np.geomspace(1e-4, 999.0, 300))
        for target in (1e-6, 1e-9, 1e-12):
            K = select_embedding_K(spec, target)
            assert K >= spec.n and K & (K - 1) == 0
            assert embedding_tail_bound(spec, K) <= target
            fmin = min(ea.row_tail_log_bound(sums, K, t) for t in grid)
            assert fmin < math.log(target)

    def test_half_size_fails_the_bound(self):
        # K is the smallest power of two at or above the least length, so
        # K/2 cannot meet the target at any sigma
        spec = random_subgenerator(4, 2, seed=10, alpha_target=0.6)
        sums = row_sums(spec)
        grid = np.log(1.0 + np.geomspace(1e-4, 999.0, 300))
        target = 1e-9
        K = select_embedding_K(spec, target)
        assert K // 2 >= spec.n
        fmin_half = min(ea.row_tail_log_bound(sums, K // 2, t) for t in grid)
        assert fmin_half >= math.log(target)

    def test_looser_target_never_needs_larger_K(self):
        spec = random_subgenerator(8, 2, seed=11, alpha_target=0.6)
        targets = (1e-13, 1e-10, 1e-7, 1e-4)
        ks = [select_embedding_K(spec, t) for t in targets]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_zero_l_norm(self):
        spec = spec_of([[[-1.0]]])
        assert select_embedding_K(spec, 1e-12) == 1

    def test_vanishing_alpha_limit(self):
        # with alpha ~ 0 the off-diagonal row sums are ~1e-8, and the least
        # length comes from a large sigma; the returned K must match a
        # brute-force minimization
        spec = random_subgenerator(4, 2, seed=17, alpha_target=1e-8)
        target = 1e-12
        K = select_embedding_K(spec, target)
        sums = row_sums(spec)
        grid = np.linspace(1e-4, 700.0 / (sums.shape[0] - 1), 20000)
        g_min = min((ea.row_tail_log_bound(sums, 0, t) - math.log(target)) / t
                    for t in grid)
        expect = 1
        while expect < max(g_min, spec.n):
            expect <<= 1
        assert K == expect


class TestMethodConfigAndDispatch:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            MethodConfig("newton")

    def test_missing_required_field(self):
        with pytest.raises(ValueError, match="requires"):
            MethodConfig("embedding")

    def test_extraneous_field(self):
        with pytest.raises(ValueError, match="does not take"):
            MethodConfig("taylor", taylor_tol=1e-12, max_terms=50, K=8)

    def test_taylor_rejects_no_scaling(self):
        with pytest.raises(ValueError, match="always scales"):
            MethodConfig("taylor", taylor_tol=1e-15, max_terms=200, use_scaling=False)

    def test_dispatch_matches_direct_calls(self):
        spec = random_subgenerator(4, 2, seed=12, alpha_target=0.5)
        pairs = [
            (MethodConfig("eps_circulant", epsilon=1e-2j),
             exp_btt_eps(spec, 1e-2j)),
            (MethodConfig("eps_averaged", theta_mag=1e-2, k=2),
             exp_btt_eps_averaged(spec, 1e-2, 2)),
            (MethodConfig("embedding", K=16),
             exp_btt_embedding(spec, 16)),
            (MethodConfig("taylor", taylor_tol=1e-14, max_terms=100),
             exp_btt_taylor(spec, 1e-14, 100)),
        ]
        for config, direct in pairs:
            via = compute_exponential(spec, config)
            np.testing.assert_array_equal(via.y.data, direct.y.data)


class TestCrossMethodProperties:
    @pytest.mark.parametrize("seed", [13, 14])
    def test_methods_agree_pairwise(self, seed):
        spec = random_subgenerator(8, 2, seed=seed, alpha_target=0.05)
        scaled = spec.scaled(scaling_exponent(spec))
        rows = [
            exp_btt_eps(spec, select_epsilon(scaled)).y,
            exp_btt_embedding(spec, 4 * spec.n).y,
            exp_btt_taylor(spec, 1e-15).y,
        ]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                assert error_report(rows[i], rows[j]).nw_rel <= 1e-9

    @pytest.mark.parametrize("n", [3, 5, 6, 7])
    def test_non_power_of_two_lengths(self, n):
        spec = random_subgenerator(n, 2, seed=n, alpha_target=0.3)
        ref = expm_dense_oracle(spec)
        assert error_report(exp_btt_taylor(spec, 1e-15).y, ref).nw_rel <= 1e-12
        assert error_report(exp_btt_embedding(spec, 8 * n).y, ref).nw_rel <= 1e-10

    def test_structural_invariants_all_methods(self):
        spec = random_subgenerator(8, 3, seed=15, alpha_target=0.05)
        scaled = spec.scaled(scaling_exponent(spec))
        results = [
            exp_btt_eps(spec, select_epsilon(scaled)),
            exp_btt_eps_averaged(spec, 1e-2, 4),
            exp_btt_embedding(spec, 32),
            exp_btt_taylor(spec, 1e-15),
        ]
        b0 = expm_small(spec.u.data[0])
        for res in results:
            y = res.y
            assert y.is_real
            assert y.data.min() >= -1e-10
            assert y.data.sum(axis=(0, 2)).max() <= 1.0 + 1e-10
            assert np.abs(y.data[0] - b0).max() <= 1e-10

    def test_scaled_instance_round_trip(self):
        # alpha above 1 exercises the squaring path of every method
        spec = random_subgenerator(4, 2, seed=16, alpha_target=6.0)
        ref = expm_dense_oracle(spec)
        assert scaling_exponent(spec) == 3
        assert error_report(exp_btt_taylor(spec, 1e-15).y, ref).nw_rel <= 1e-12
        res = exp_btt_eps_averaged(spec, 1e-2, 4)
        assert res.scaling_p == 3
        assert error_report(res.y, ref).nw_rel <= 1e-11


def run_method(name, spec):
    p = scaling_exponent(spec)
    if name == "eps_circulant":
        return exp_btt_eps(spec, select_epsilon(spec.scaled(p)))
    if name == "eps_averaged":
        return exp_btt_eps_averaged(spec, 1e-2, 4)
    if name == "embedding":
        return exp_btt_embedding(spec, select_embedding_K(spec.scaled(p), 1e-12))
    return exp_btt_taylor(spec, 1e-15)


METHOD_NAMES = ("eps_circulant", "eps_averaged", "embedding", "taylor")


def draw_row(data):
    # the inputs of the property tests: m in {1, 2, 3}, n up to 4096 for
    # m = 1 and n m <= 192 otherwise, any band, density, slack and alpha
    m = data.draw(st.sampled_from([1, 1, 2, 3]), label="m")
    top = 4096 if m == 1 else 192 // m
    n = data.draw(st.one_of(st.integers(1, top), st.integers(top // 2, top)), label="n")
    band = data.draw(st.one_of(st.integers(1, min(n, 4)), st.just(n)), label="band")
    density = data.draw(st.floats(0.2, 1.0), label="density")
    slack = data.draw(st.sampled_from([0.0, 0.0, 0.1, 1.0]), label="slack")
    alpha = data.draw(st.sampled_from([0.05, 1.0, 7.0, 50.0, 200.0]), label="alpha")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    assume(n * m > 1 or slack > 0)
    assume(m > 1 or band > 1 or slack > 0)
    return random_subgenerator(n, m, density=density, slack=slack, seed=seed,
                               alpha_target=alpha, bandwidth=band)


class TestEffectiveLength:
    """Every method runs on the leading n' blocks and returns zeros beyond."""

    @pytest.fixture(scope="class")
    def long_case(self):
        spec = banded_subgenerator(2 ** 14, 1, 4, seed=3, alpha_target=50.0)
        return spec, BlockVector(scalar_btt_expm(spec.u.data))

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_large_n_accuracy(self, long_case, name):
        spec, ref = long_case
        res = run_method(name, spec)
        assert res.n_eff < spec.n
        assert error_report(res.y, ref).nw_rel <= 1e-12
        assert np.all(res.y.data[res.n_eff:] == 0)

    def test_bound_is_below_roundoff_of_the_row(self, long_case):
        spec, ref = long_case
        n_eff, lengths, bound = exp_btt._schedule(spec, 0)
        assert n_eff & (n_eff - 1) == 0 and lengths == [n_eff]
        # the row sums to 1 (a generator), so the target is mu / 8
        assert 0 < bound <= MU / 8
        assert ref.data[n_eff:].sum() <= bound
        # half of n' is not certified at any sigma of a fine grid
        sums = spec.u.data[:4, :, 0]
        grid = np.linspace(1e-3, 700.0 / 3, 20000)
        half = min(ea.row_tail_log_bound(sums, n_eff // 2, t) for t in grid)
        assert half > math.log(MU / 8)
        # the leading blocks of a row have the same n'
        assert exp_btt._schedule(spec.leading(2 * n_eff), 0) == (n_eff, lengths, bound)

    def test_erlang_clock_keeps_full_length(self):
        spec = erlang_clock_row(4096, 2)
        assert exp_btt._schedule(spec, 0) == (4096, [4096], 0.0)
        res = exp_btt_eps_averaged(spec, 1e-2, 1)
        assert res.n_eff == 4096
        # the levels below the last run short, so the squarings drop mass;
        # the row sums to 1, and each of the p levels drops at most mu/8
        assert 0 < res.predicted_bounds["truncation"] <= res.scaling_p * MU / 8

    def test_dense_row_keeps_full_length(self):
        spec = random_subgenerator(2048, 3, density=0.3, seed=11, alpha_target=50.0)
        assert exp_btt._schedule(spec, 0) == (2048, [2048], 0.0)

    def test_block_diagonal_row(self):
        spec = banded_subgenerator(64, 2, 1, seed=4, slack=0.5, alpha_target=3.0)
        assert spec.l_norm == 0.0
        assert exp_btt._schedule(spec, 0) == (1, [1], 0.0)
        b0 = expm_small(spec.u.data[0])
        for name in METHOD_NAMES:
            res = run_method(name, spec)
            assert res.n_eff == 1
            np.testing.assert_allclose(res.y.data[0], b0, rtol=1e-12, atol=1e-15)
            assert np.all(res.y.data[1:] == 0)

    def test_embedding_keeps_oversampling(self, monkeypatch):
        spec = banded_subgenerator(1000, 2, 4, seed=2, alpha_target=5.0)
        lengths = []

        def recording(data, n, log_eps=0):
            lengths.append(n)
            return exp_circulant(data, n, log_eps)

        monkeypatch.setattr(exp_btt, "exp_circulant", recording)
        res = exp_btt_embedding(spec, 3000)
        assert res.n_eff < 512
        # K rounds up to 4096 = 4 pad(n); the circulant keeps 4 L_0, L_0 the
        # length the core runs at
        L0 = exp_btt._schedule(spec, res.scaling_p)[1][0]
        assert L0 < res.n_eff
        assert lengths == [4 * L0]
        assert res.method_used.K == 4096
        ref = exp_btt_taylor(spec, 1e-15).y
        assert error_report(res.y, ref).nw_rel <= 1e-12

    def test_reported_config_reproduces_result(self):
        # the reported K was the circulant length 512, below n = 1000, which
        # compute_exponential rejected
        spec = banded_subgenerator(1000, 2, 4, seed=2, alpha_target=5.0)
        res = exp_btt_embedding(spec, 3000)
        again = compute_exponential(spec, res.method_used)
        assert again.method_used == res.method_used
        assert again.predicted_bounds == res.predicted_bounds
        np.testing.assert_array_equal(again.y.data, res.y.data)

    def test_taylor_reports_truncation(self):
        spec = banded_subgenerator(512, 2, 3, seed=1, alpha_target=2.0)
        res = exp_btt_taylor(spec, 1e-15)
        n_eff, _, bound = exp_btt._schedule(spec, 0)
        assert res.n_eff == n_eff < 512
        assert res.predicted_bounds.keys() == {"truncation", "series"}
        # the bound at n' plus the mass the shorter levels drop
        truncation = exp_btt._schedule(spec, res.scaling_p)[2]
        assert res.predicted_bounds["truncation"] == truncation
        assert bound < truncation <= bound + res.scaling_p * MU / 8

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_dropped_mass_within_bound(self, data):
        spec = draw_row(data)
        name = data.draw(st.sampled_from(METHOD_NAMES), label="method")
        n, m = spec.n, spec.m
        # exact rows: the scalar recurrence (m = 1, any n) or the dense oracle
        if m == 1:
            exact = scalar_btt_expm(spec.u.data)
        else:
            exact = expm_dense_oracle(spec, cap=192).data

        res = run_method(name, spec)
        event("n' < n" if res.n_eff < n else "n' = n")
        bounds = res.predicted_bounds
        tail = exact[res.n_eff:].sum(axis=(0, 2)).max(initial=0.0)
        assert tail <= bounds["truncation"]
        lengths = exp_btt._schedule(spec, res.scaling_p)[1]
        full = res.n_eff == n and lengths[0] == lengths[-1]
        assert full == (bounds["truncation"] == 0.0) or spec.l_norm == 0.0
        # the mass the shorter levels drop from the leading n' blocks is
        # within the reported truncation, plus the method's own error bounds
        # and roundoff, which at most doubles in each squaring of a row of
        # norm at most 1
        k = res.n_eff
        missed = (exact[:k].sum(axis=(0, 2)) - res.y.data[:k].sum(axis=(0, 2))).max()
        assert missed <= sum(bounds.values()) + 2.0 ** res.scaling_p * 64 * MU
        assert res.y.n == n
        assert np.all(res.y.data[res.n_eff:] == 0)
        assert not res.y.data.flags.writeable
        with pytest.raises(ValueError):
            res.y.data[-1, 0, 0] = 1.0
        if res.n_eff < n:
            # the row holds all but a roundoff share of its mass; rows that
            # lose mass past block n (n = 3, alpha = 200) lose relative
            # accuracy in the squarings at any length
            assert error_report(res.y, BlockVector(exact)).nw_rel <= 1e-9

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_schedule_meets_level_targets(self, data):
        # L_0..L_p are non-decreasing powers of two ending at pad(n'); each
        # L_j < pad(n') meets its level's target (mu/8) e**s_min 2**-(p-j) on
        # the 2**-(p-j)-scaled row, checked on a fine grid of the bound in
        # its direct form; the reported truncation covers the dropped mass
        # accumulated as E_j = 2 E_(j-1) + drop_j, plus the bound at n'
        spec = draw_row(data)
        p = scaling_exponent(spec)
        n_eff, lengths, truncation = exp_btt._schedule(spec, p)
        assert (n_eff, lengths[-1]) == (exp_btt._schedule(spec, 0)[0], exp_btt._next_pow2(n_eff))
        assert len(lengths) == p + 1
        assert all(L & (L - 1) == 0 for L in lengths)
        assert all(a <= b for a, b in zip(lengths, lengths[1:]))
        if spec.l_norm == 0.0:  # block-diagonal: every block after the first is 0
            assert truncation == 0.0 and set(lengths) == {1}
            return
        sums = row_sums(spec)
        b = sums.shape[0] - 1
        # the grid's minima are within 1% of the bound's (a step of 1% in
        # log sigma), so each comparison allows 2%
        t = np.geomspace(1e-9, 1.0, 2000) * (700.0 / b)
        with np.errstate(over="ignore"):
            growth = (np.exp(np.outer(t, np.arange(b + 1))) @ sums).max(axis=1)
        log_target = math.log(MU / 8) + sums.sum(axis=0).min()
        missed = 0.0
        for j, L in enumerate(lengths):
            scale = 2.0 ** (j - p)
            log_drop = (scale * growth - L * t).min()
            missed *= 2.0
            if L < lengths[-1]:
                event("a level runs short")
                assert log_drop <= log_target + math.log(scale) + 0.02
                missed += math.exp(log_drop)
        if n_eff < spec.n:
            missed += math.exp((growth - n_eff * t).min())
        assert truncation >= missed * math.exp(-0.02)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_selected_K_meets_target(self, data):
        # the rule picks K on the whole scaled row; the run takes the tail at
        # the leading n' blocks and K pad(n') / pad(n)
        spec = draw_row(data)
        target = data.draw(st.sampled_from([1e-6, 1e-9, 1e-12, 1e-14]), label="target")
        K = select_embedding_K(spec.scaled(scaling_exponent(spec)), target)
        res = exp_btt_embedding(spec, K)
        event("n' < n" if res.n_eff < spec.n else "n' = n")
        assert res.predicted_bounds["tail"] <= target


def check_derived_specs(spec, k, p):
    # the row sums, the table and l_norm of the spec and of its leading and
    # scaled specs equal the oracle's on their own arrays: the sums and G
    # bit for bit, l_norm to 4 mu (its summation order differs at m = 8)
    for s in (spec, spec.leading(k), spec.scaled(p), spec.leading(k).scaled(p)):
        sums = row_sums(s)
        np.testing.assert_array_equal(s.row_sums, sums)
        assert s.row_sums.flags.owndata  # a view would keep all n blocks' sums
        t, g = s.tail_grid
        assert t.size == 571 and t[-1] == 700.0 / max(sums.shape[0] - 1, 1)
        np.testing.assert_array_equal(g, ea.row_tail_log_bound(sums, 0, t))
        assert s.l_norm == pytest.approx(l_norm(s), rel=4 * MU, abs=0)


class TestBoundTable:
    """Validation sums the rows and evaluates the tail bound's table once;
    the leading and scaled specs derive theirs from it exactly, and no
    selector or method call evaluates the bound again."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_derived_specs_match_fresh_sums(self, data):
        spec = draw_row(data)
        k = data.draw(st.integers(1, spec.n), label="k")
        p = data.draw(st.integers(0, 12), label="p")
        check_derived_specs(spec, k, p)

    @pytest.mark.parametrize("k,p", [(1, 0), (2, 1), (64, 3)])
    def test_block_diagonal_row(self, k, p):
        spec = banded_subgenerator(64, 2, 1, seed=4, slack=0.5, alpha_target=3.0)
        assert spec.row_sums.shape == (1, 2) and spec.l_norm == 0.0
        check_derived_specs(spec, k, p)

    @pytest.mark.parametrize("n,m,alpha", [(2 ** 15, 1, 50.0), (2 ** 10, 8, 5.0),
                                           (2 ** 12, 2, 200.0)])
    def test_embedding_call_reuses_validation_table(self, monkeypatch, n, m, alpha):
        # the bound is evaluated once, in validation, on the 571-point table;
        # both selectors and every method's schedule and bounds only read it
        points = []
        evaluate = ea.row_tail_log_bound

        def counting(sums, L, log_sigma):
            points.append(np.size(log_sigma))
            return evaluate(sums, L, log_sigma)

        monkeypatch.setattr(ea, "row_tail_log_bound", counting)
        spec = banded_subgenerator(n, m, 4, seed=1, alpha_target=alpha)
        assert points == [571]
        points.clear()
        for name in METHOD_NAMES:  # select_epsilon and select_embedding_K too
            run_method(name, spec)
        assert points == []


class TestErlangClockOracle:
    """All four methods at n = 2**14, m = 2 and n = 2**16, m = 1 against the
    exact Poisson-times-e**Q row: rows whose mass spans all n blocks, so
    n' = n, p = log2(n) and the squarings run at growing lengths."""

    @pytest.fixture(scope="class", params=[(2 ** 14, 2), (2 ** 16, 1)],
                    ids=["16384x2", "65536x1"])
    def case(self, request):
        n, m = request.param
        return erlang_clock_row(n, m), BlockVector(erlang_clock_exact(n, m))

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_accuracy(self, case, name):
        spec, ref = case
        res = run_method(name, spec)
        assert res.n_eff == spec.n
        assert error_report(res.y, ref).nw_rel <= 5e-10


class TestStructuralInvariants:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_invariants_every_method(self, data):
        # entries >= 0, row sums <= exp(S) 1 with S = sum_j U_j (the whole
        # semi-infinite row's mass), leading block = expm(U_0), and the
        # reported config reproduces the row
        spec = draw_row(data)
        mass = expm_small(spec.u.data.sum(axis=0)).sum(axis=1)
        b0 = expm_small(spec.u.data[0])
        for name in METHOD_NAMES:
            res = run_method(name, spec)
            y = res.y.data
            assert y.min() >= -1e-10, name
            assert np.all(y.sum(axis=(0, 2)) <= mass + 1e-10), name
            assert np.abs(y[0] - b0).sum(axis=1).max() <= 1e-10, name
            again = compute_exponential(spec, res.method_used)
            np.testing.assert_array_equal(again.y.data, y)


class TestOneCirculant:
    # every circulant method makes exactly one call of the one circulant
    # kernel, through the name exp_btt calls it by; Taylor makes none
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_one_kernel_call_per_method_call(self, name, monkeypatch):
        spec = banded_subgenerator(1000, 2, 4, seed=2, alpha_target=5.0)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return exp_circulant(*args, **kwargs)

        monkeypatch.setattr(exp_btt, "exp_circulant", counting)
        run_method(name, spec)
        assert len(calls) == (0 if name == "taylor" else 1)
