import cmath

import numpy as np
import pytest

from btt_expm import exp_circulant as exp_circulant_module
from btt_expm.exp_circulant import exp_circulant
from btt_expm.fft_transforms import _transform_stack

from oracles import (dense_eps_circulant, direct_dft, direct_idft,
                     exp_eps_circulant, expm_small, first_block_row,
                     kron_transform_matrix)

# numpy's conventions: fft(x) = n * direct_dft(x), ifft(x) = direct_idft(x) / n


def fwd(x, n=None):
    x = np.asarray(x, dtype=np.complex128)
    return _transform_stack(x.reshape(-1, 1, 1), n or len(x)).ravel()


def inv(x, n=None):
    x = np.asarray(x, dtype=np.complex128)
    return _transform_stack(x.reshape(-1, 1, 1), n or len(x), inverse=True).ravel()


class TestPlan:
    # numpy builds and caches its own transform plans; what a plan must get
    # right is checked through the transform
    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_roots_on_unit_circle(self, n):
        # the transform of the unit impulse at index 1 lists the roots of unity
        x = np.zeros(n)
        x[min(1, n - 1)] = 1.0
        roots = fwd(x)
        assert np.abs(np.abs(roots) - 1.0).max() <= 1e-15
        expect = np.exp(-2j * np.pi * np.arange(n) * min(1, n - 1) / n)
        assert np.abs(roots - expect).max() <= 1e-15


class TestScalarTransforms:
    def test_idft_unit_vector_gives_ones(self):
        x = np.zeros(8)
        x[0] = 1.0
        np.testing.assert_allclose(inv(x) * 8, np.ones(8), atol=1e-15)

    def test_idft_ones_n2(self):
        np.testing.assert_allclose(inv(np.ones(2)) * 2, [2.0, 0.0], atol=1e-15)

    def test_dft_ones_gives_unit_vector(self):
        out = fwd(np.ones(8)) / 8
        expect = np.zeros(8)
        expect[0] = 1.0
        np.testing.assert_allclose(out, expect, atol=1e-15)

    def test_idft_matches_direct_evaluation(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        ref = direct_idft(x) / 8
        assert np.abs(inv(x) - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_dft_matches_direct_evaluation(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        ref = direct_dft(x) * 8
        assert np.abs(fwd(x) - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 8, 12])
    def test_real_transforms_match_direct_evaluation(self, n):
        rng = np.random.default_rng(30 + n)
        x = rng.standard_normal(n)
        half = _transform_stack(x.reshape(n, 1, 1), n, real=True).ravel()
        ref = n * direct_dft(x)
        assert half.shape == (n // 2 + 1,)
        assert np.abs(half - ref[: n // 2 + 1]).max() <= 1e-13 * np.abs(ref).max()
        # the inverse reads only the leading half of a Hermitian spectrum
        back = _transform_stack(ref[: n // 2 + 1].reshape(-1, 1, 1), n,
                                inverse=True, real=True).ravel()
        assert back.dtype.kind == "f"
        expect = direct_idft(ref) / n
        assert np.abs(back - expect).max() <= 1e-13 * np.abs(x).max()

    @pytest.mark.parametrize("q", range(15))
    def test_round_trip_identity(self, q):
        n = 2 ** q
        rng = np.random.default_rng(q)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = inv(fwd(x))
        assert np.abs(back - x).max() <= 1e-13 * np.abs(x).max()
        xr = x.real.reshape(n, 1, 1)
        back_r = _transform_stack(_transform_stack(xr, n, real=True), n,
                                  inverse=True, real=True)
        assert np.abs(back_r - xr).max() <= 1e-13 * np.abs(xr).max()

    @pytest.mark.parametrize("q", [0, 3, 8, 12])
    def test_parseval(self, q):
        n = 2 ** q
        rng = np.random.default_rng(40 + q)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.linalg.norm(fwd(x))
        rhs = np.sqrt(n) * np.linalg.norm(x)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_length_mismatch(self):
        # a transform length above the input length zero-pads it: the
        # triangular products rely on this
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        padded = np.concatenate([x, np.zeros(3)])
        np.testing.assert_allclose(fwd(x, 8), 8 * direct_dft(padded), atol=1e-13)


class TestBlockTransforms:
    def test_zero_blocks(self):
        v = np.zeros((4, 2, 2))
        for real in (False, True):
            assert np.abs(_transform_stack(v, 4, real=real)).max() == 0.0
            assert np.abs(_transform_stack(v.astype(complex), 4, inverse=True,
                                           real=real)).max() == 0.0

    def test_m1_reduces_to_scalar_transform(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(8)
        v = x.reshape(8, 1, 1)
        np.testing.assert_allclose(_transform_stack(v, 8, inverse=True).ravel(),
                                   direct_idft(x) / 8, atol=1e-14)
        np.testing.assert_allclose(_transform_stack(v, 8).ravel(),
                                   8 * direct_dft(x), atol=1e-14)

    def test_matches_dense_kronecker(self):
        rng = np.random.default_rng(6)
        n, m = 4, 2
        arr = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
        big = kron_transform_matrix(n, m)
        stacked = arr.reshape(n * m, m)
        ref = (big @ stacked).reshape(n, m, m) / n
        out = _transform_stack(arr, n, inverse=True)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        ref_fwd = (big.conj().T @ stacked).reshape(n, m, m)
        out_fwd = _transform_stack(arr, n)
        assert np.abs(out_fwd - ref_fwd).max() <= 1e-13 * np.abs(ref_fwd).max()

    def test_commutes_with_entry_selection(self):
        rng = np.random.default_rng(7)
        m = 3
        for n in (7, 8):
            arr = rng.standard_normal((n, m, m))
            out = _transform_stack(arr, n, real=True)
            assert out.shape == (n // 2 + 1, m, m)
            for r in range(m):
                for s in range(m):
                    np.testing.assert_allclose(
                        out[:, r, s], n * direct_dft(arr[:, r, s])[: n // 2 + 1],
                        atol=1e-13)

    def test_length_mismatch(self):
        # zero-padding to a longer transform, and the real inverse returning
        # exactly the requested number of blocks
        rng = np.random.default_rng(8)
        arr = rng.standard_normal((4, 2, 2))
        padded = np.concatenate([arr, np.zeros((4, 2, 2))])
        half = _transform_stack(arr, 8, real=True)
        np.testing.assert_allclose(half, _transform_stack(padded, 8, real=True),
                                   atol=1e-14)
        back = _transform_stack(half, 8, inverse=True, real=True)
        assert back.shape == (8, 2, 2)
        np.testing.assert_allclose(back, padded, atol=1e-14)


class TestEpsilonScaling:
    # the theta**k scaling inside exp_eps_circulant, theta = epsilon**(1/n)
    @pytest.mark.parametrize("eps", [1.0, 0.5, 1e-2j, -0.3, 0.1 + 0.2j, 1e-8j])
    def test_theta_power_recovers_epsilon(self, eps):
        # the fast path agrees with the dense eps-circulant exponential only
        # if theta**n equals epsilon; roundoff grows like |eps|**-(n-1)/n
        n, m = 8, 2
        rng = np.random.default_rng(11)
        u = 0.5 * rng.standard_normal((n, m, m))
        ref = first_block_row(expm_small(dense_eps_circulant(u, eps)), n, m)
        out = exp_eps_circulant(u, eps)
        assert np.abs(out - ref).max() <= 1e-13 * max(1.0, abs(eps) ** (-(n - 1) / n))

    @pytest.mark.parametrize("eps", [1.0, 1e-4, 1e-8, 1e-2j, -0.7 + 0.1j])
    def test_powers_times_inverse_powers(self, eps):
        # exp of c times the eps-shift Z (Z**n = eps I) has first row
        # sum_j eps**j c**(k + j n) / (k + j n)!; any mismatch between the
        # forward powers and the inverse ones shows up block by block
        n, c = 16, 1.5
        arr = np.zeros((n, 1, 1))
        arr[1] = c
        out = exp_eps_circulant(arr, eps).ravel()
        k = np.arange(n)
        fact = np.cumprod(np.concatenate([[1.0], np.arange(1.0, 2 * n)]))
        expect = c ** k / fact[k] + eps * c ** (k + n) / fact[k + n]
        assert np.abs(out - expect).max() <= 1e-14 * max(1.0, abs(eps) ** (-(n - 1) / n))

    def test_unit_epsilon_is_identity(self):
        # theta = 1 leaves the blocks as they are: the plain circulant result
        u = np.random.default_rng(8).standard_normal((8, 2, 2))
        out = exp_eps_circulant(u, 1.0)
        assert np.abs(out.imag).max() <= 1e-14
        np.testing.assert_allclose(out.real, exp_circulant(u, 8), rtol=1e-13,
                                   atol=1e-15)

    @pytest.mark.parametrize("eps", [1e-8, 1e-4, 1.0, 1e-2j])
    def test_forward_then_inverse_is_identity(self, eps):
        # exp(C_eps) = D**-1 exp(C) D with D = diag(theta**k) and C the
        # circulant of the scaled blocks theta**k u_k
        rng = np.random.default_rng(9)
        n = 8
        u = rng.standard_normal((n, 2, 2))
        theta = abs(eps) ** (1.0 / n) * cmath.exp(1j * cmath.phase(eps) / n)
        powers = theta ** np.arange(n)
        scaled = exp_circulant(u * powers[:, None, None], n)
        out = exp_eps_circulant(u, eps)
        expect = scaled / powers[:, None, None]
        amplification = max(1.0, abs(eps) ** (-(n - 1) / n))
        assert np.abs(out - expect).max() <= 1e-13 * amplification * np.abs(expect).max()

    def test_ones_blocks_pick_up_theta_powers(self, monkeypatch):
        # principal branch by polar exponentiation: the blocks that reach the
        # forward transform are theta**k
        n, eps = 4, 1e-2j
        rho, phi = abs(eps), np.angle(eps)
        theta = rho ** (1.0 / n) * np.exp(1j * phi / n)
        seen = []
        real_transform = exp_circulant_module._transform_stack

        def spy(stack, *args, **kwargs):
            seen.append(np.array(stack))
            return real_transform(stack, *args, **kwargs)

        monkeypatch.setattr(exp_circulant_module, "_transform_stack", spy)
        exp_eps_circulant(np.ones((n, 1, 1)), eps)
        np.testing.assert_allclose(seen[0].ravel(), theta ** np.arange(n), rtol=1e-13)
