import numpy as np
import pytest

from btt_expm.fft_transforms import _transform_stack
from btt_expm.structured_mul import btt_times_btt

from oracles import dense_btt, first_block_row


def bv(arr):
    return np.asarray(arr, dtype=float)


def identity_row(n, m):
    arr = np.zeros((n, m, m))
    arr[0] = np.eye(m)
    return arr


def random_bv(n, m, seed):
    return np.random.default_rng(seed).standard_normal((n, m, m))


class TestHandExamples:
    # n=2, m=1 product worked out by hand
    u = bv([[[2.0]], [[3.0]]])
    x = bv([[[5.0]], [[7.0]]])

    def test_btt_times_btt(self):
        np.testing.assert_allclose(
            btt_times_btt(self.u, self.x).ravel(), [10.0, 29.0],
            atol=1e-14)


class TestIdentityCases:
    def test_identity_row_acts_as_identity(self):
        x = random_bv(8, 2, 0)
        out = btt_times_btt(identity_row(8, 2), x)
        np.testing.assert_allclose(out, x, atol=1e-13)

    @pytest.mark.parametrize("op", [btt_times_btt])
    def test_right_multiply_by_identity(self, op):
        u = random_bv(8, 2, 1)
        out = op(u, identity_row(8, 2))
        np.testing.assert_allclose(out, u, atol=1e-13)


class TestDenseOracle:
    # the acceptance micro-suite range: n <= 32, m <= 3, any length
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 3, 6, 12])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_products_match_dense_assembly(self, n, m):
        rng = np.random.default_rng(n * 7 + m)
        u = rng.standard_normal((n, m, m))
        x = rng.standard_normal((n, m, m))
        scale = max(np.abs(u).max() * np.abs(x).max() * n, 1.0)
        out = btt_times_btt(u, x)
        ref = first_block_row(dense_btt(u) @ dense_btt(x), n, m)
        assert np.abs(out - ref).max() <= 1e-12 * scale


class TestSquare:
    # a square transforms its operand once; the result is still the product
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_square_matches_dense_assembly(self, m, complex_):
        rng = np.random.default_rng(20 + m)
        arr = rng.standard_normal((12, m, m))
        if complex_:
            arr = arr + 1j * rng.standard_normal((12, m, m))
        out = btt_times_btt(arr, arr)
        assert np.isrealobj(out) == (not complex_)
        ref = first_block_row(dense_btt(arr) @ dense_btt(arr), 12, m)
        scale = max(np.abs(arr).max() ** 2 * 12 * m, 1.0)
        assert np.abs(out - ref).max() <= 1e-13 * scale

    @pytest.mark.parametrize("complex_", [False, True])
    def test_given_transform_gives_same_bits(self, complex_):
        rng = np.random.default_rng(30)
        u, x = (rng.standard_normal((8, 2, 2)) for _ in range(2))
        if complex_:
            u = u + 1j * rng.standard_normal((8, 2, 2))
            x = x + 1j * rng.standard_normal((8, 2, 2))
        u_hat = _transform_stack(u, 16, real=not complex_)
        np.testing.assert_array_equal(btt_times_btt(u, x, u_hat=u_hat),
                                      btt_times_btt(u, x))


class TestAlgebra:
    def test_linearity(self):
        u = random_bv(8, 2, 3)
        x = random_bv(8, 2, 4)
        z = random_bv(8, 2, 5)
        a, b = 0.7, -1.3
        combo = a * x + b * z
        lhs = btt_times_btt(u, combo)
        rhs = a * btt_times_btt(u, x) + b * btt_times_btt(u, z)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    def test_btt_product_associativity(self):
        a = random_bv(8, 2, 6)
        b = random_bv(8, 2, 7)
        c = random_bv(8, 2, 8)
        left = btt_times_btt(btt_times_btt(a, b), c)
        right = btt_times_btt(a, btt_times_btt(b, c))
        assert np.abs(left - right).max() <= 1e-11 * max(1.0, np.abs(left).max())


class TestRealness:
    def test_real_inputs_give_real_outputs(self):
        assert np.isrealobj(btt_times_btt(random_bv(8, 2, 9), random_bv(8, 2, 10)))

    def test_complex_inputs_stay_complex(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal((4, 1, 1)) + 1j * rng.standard_normal((4, 1, 1))
        x = rng.standard_normal((4, 1, 1))
        assert np.iscomplexobj(btt_times_btt(u, x))
        assert np.iscomplexobj(btt_times_btt(x, u))


class TestErrors:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            btt_times_btt(random_bv(4, 2, 0), random_bv(8, 2, 0))
        with pytest.raises(ValueError):
            btt_times_btt(random_bv(4, 2, 0), random_bv(4, 3, 0))


class TestLengths:
    # operands shorter than n are rows whose later blocks are zero: the
    # transforms zero-pad them, bit for bit as explicit zero blocks
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n,lu,lx", [(8, 3, 5), (8, 8, 2), (12, 5, 12), (16, 1, 1)])
    def test_short_operands_match_padded_ones(self, n, lu, lx, complex_):
        rng = np.random.default_rng(50 + n + lu)
        u, x = rng.standard_normal((lu, 2, 2)), rng.standard_normal((lx, 2, 2))
        if complex_:
            u = u + 1j * rng.standard_normal((lu, 2, 2))
        pu, px = (np.concatenate([a, np.zeros((n - len(a), 2, 2), a.dtype)]) for a in (u, x))
        out = btt_times_btt(u, x, n)
        assert out.shape == (n, 2, 2)
        np.testing.assert_array_equal(out, btt_times_btt(pu, px))

    def test_short_square_matches_padded_square(self):
        y = np.random.default_rng(60).standard_normal((3, 2, 2))
        padded = np.concatenate([y, np.zeros((5, 2, 2))])
        np.testing.assert_array_equal(btt_times_btt(y, y, 8),
                                      btt_times_btt(padded, padded))

    def test_operand_longer_than_n_rejected(self):
        # cropping at 2n would wrap its blocks from n on into the leading ones
        with pytest.raises(ValueError):
            btt_times_btt(random_bv(4, 2, 0), random_bv(4, 2, 1), 3)
        with pytest.raises(ValueError):
            btt_times_btt(random_bv(2, 2, 0), random_bv(5, 2, 1), 4)
