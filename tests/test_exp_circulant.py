import numpy as np
import pytest

from btt_expm.exp_circulant import exp_circulant
from btt_expm.model_gen import random_subgenerator
from btt_expm import error_analysis as ea

from oracles import (dense_circulant, dense_eps_circulant, exp_eps_circulant,
                     expm_small, first_block_row)


def random_bv(n, m, seed):
    return np.random.default_rng(seed).standard_normal((n, m, m))


class TestExpEpsCirculant:
    def test_single_block(self):
        u = random_bv(1, 2, 0)
        out = exp_eps_circulant(u, 0.5j)
        np.testing.assert_allclose(out[0], expm_small(u[0]),
                                   rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("eps", [0.5, 1e-2j, -0.2 + 0.1j])
    def test_diagonal_case(self, eps):
        # only the leading block nonzero and diagonal: the matrix is diagonal
        arr = np.zeros((4, 1, 1))
        arr[0, 0, 0] = -0.7
        out = exp_eps_circulant(arr, eps)
        np.testing.assert_allclose(out[0, 0, 0], np.exp(-0.7), rtol=1e-13)
        assert np.abs(out[1:]).max() <= 1e-15

    # |eps| > 1 too: the kernel takes any nonzero eps, and the methods in
    # exp_btt check the range
    @pytest.mark.parametrize("eps", [1e-2j, 0.3, 0.2 + 0.4j, 2.0])
    def test_matches_dense_assembly(self, eps):
        spec = random_subgenerator(4, 2, seed=3)
        ref = first_block_row(expm_small(dense_eps_circulant(spec.u.data, eps)), 4, 2)
        out = exp_eps_circulant(spec.u.data, eps)
        nw = np.abs(out - ref).sum(axis=(0, 2)).max()
        assert nw <= 1e-10

    def test_complex_input_matches_dense(self):
        rng = np.random.default_rng(9)
        arr = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        arr *= 0.5
        eps = 0.3 + 0.2j
        ref = first_block_row(expm_small(dense_eps_circulant(arr, eps)), 4, 2)
        out = exp_eps_circulant(arr, eps)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValueError):
            exp_eps_circulant(random_bv(4, 1, 0), 0.0)


class TestExpCirculant:
    def test_single_block(self):
        u = random_bv(1, 2, 4)
        np.testing.assert_allclose(exp_circulant(u, 1)[0], expm_small(u[0]),
                                   rtol=1e-13, atol=1e-15)

    def test_scalar_multiple_of_identity(self):
        arr = np.zeros((8, 2, 2))
        arr[0] = -1.3 * np.eye(2)
        out = exp_circulant(arr, 8)
        np.testing.assert_allclose(out[0], np.exp(-1.3) * np.eye(2), rtol=1e-13)
        assert np.abs(out[1:]).max() <= 1e-15

    def test_matches_dense_assembly_and_real(self):
        u = random_bv(4, 2, 5)
        out = exp_circulant(u, 4)
        assert np.isrealobj(out)
        ref = first_block_row(expm_small(dense_circulant(u)), 4, 2)
        nw = np.abs(out - ref).sum(axis=(0, 2)).max()
        assert nw <= 1e-11 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [5, 7, 12])
    def test_real_half_spectrum_matches_dense(self, n):
        # only n//2 + 1 frequencies are exponentiated; the real inverse
        # transform must restore the whole row, odd lengths included
        spec = random_subgenerator(n, 2, seed=30 + n, alpha_target=2.0)
        out = exp_circulant(spec.u.data, n)
        assert np.isrealobj(out)
        ref = first_block_row(expm_small(dense_circulant(spec.u.data)), n, 2)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_agrees_with_eps_variant_at_one(self):
        spec = random_subgenerator(8, 2, seed=6)
        a = exp_circulant(spec.u.data, 8)
        b = exp_eps_circulant(spec.u.data, 1.0).real
        assert np.abs(a - b).max() <= 1e-12


class TestStructureAndBounds:
    def test_result_commutes_with_input_matrix(self):
        spec = random_subgenerator(4, 2, seed=7)
        eps = 1e-2j
        y = exp_eps_circulant(spec.u.data, eps)
        cy = dense_eps_circulant(y, eps)
        cu = dense_eps_circulant(spec.u.data.astype(complex), eps)
        comm = np.abs(cy @ cu - cu @ cy).max()
        assert comm <= 1e-10

    def test_roundoff_below_eps_circulant_bound(self):
        spec = random_subgenerator(4, 2, seed=8, alpha_target=1.0)
        n, m = spec.n, spec.m
        eps = 1e-2j
        dense = first_block_row(expm_small(dense_eps_circulant(spec.u.data, eps)), n, m)
        out = exp_eps_circulant(spec.u.data, eps)
        measured = max(np.abs(out[k] - dense[k]).sum(axis=1).max() for k in range(n))
        ymax = max(np.abs(dense[k]).sum(axis=1).max() for k in range(n))
        phi = ea.phi_bound(n, m, float(np.abs(spec.u.data).max()), ymax)
        assert measured <= ea.eps_roundoff_bound(phi, m, eps)

    def test_roundoff_below_circulant_bound(self):
        spec = random_subgenerator(4, 2, seed=8, alpha_target=1.0)
        n, m = spec.n, spec.m
        dense = first_block_row(expm_small(dense_circulant(spec.u.data)), n, m)
        out = exp_circulant(spec.u.data, n)
        measured = max(np.abs(out[k] - dense[k]).sum(axis=1).max() for k in range(n))
        ymax = max(np.abs(dense[k]).sum(axis=1).max() for k in range(n))
        chi = ea.chi_bound(n, m, float(np.abs(spec.u.data).max()), ymax)
        assert measured <= ea.circulant_roundoff_bound(chi, m)



class TestZeroPadding:
    # a row shorter than the circulant is zero-padded by the transform: the
    # result is the leading blocks of the call on the explicitly padded row,
    # bit for bit, in a fresh array
    @pytest.mark.parametrize("n", [16, 12])
    @pytest.mark.parametrize("log_eps,complex_", [
        (0, False), (0, True), (-2.0, False), (-4.6 + 1.5707963267948966j, False),
        (-4.6 + 1.5707963267948966j, True)])
    def test_short_row_is_leading_blocks_of_padded_row(self, n, log_eps, complex_):
        rng = np.random.default_rng(40)
        arr = 0.5 * rng.standard_normal((5, 2, 2))
        if complex_:
            arr = arr + 0.5j * rng.standard_normal((5, 2, 2))
        padded = np.zeros((n, 2, 2), dtype=arr.dtype)
        padded[:5] = arr
        out = exp_circulant(arr, n, log_eps)
        assert out.shape == (5, 2, 2) and out.flags.owndata
        assert np.isrealobj(out) == (log_eps == 0 and not complex_)
        np.testing.assert_array_equal(out, exp_circulant(padded, n, log_eps)[:5])
