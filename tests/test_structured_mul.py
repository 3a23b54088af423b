import numpy as np
import pytest

from btt_expm.block_linalg import BlockVector
from btt_expm.fft_transforms import _transform_stack
from btt_expm.structured_mul import btt_times_btt

from oracles import dense_btt, first_block_row


def bv(arr):
    return BlockVector(np.asarray(arr, dtype=float))


def identity_row(n, m):
    arr = np.zeros((n, m, m))
    arr[0] = np.eye(m)
    return BlockVector(arr)


def random_bv(n, m, seed):
    return BlockVector(np.random.default_rng(seed).standard_normal((n, m, m)))


class TestHandExamples:
    # n=2, m=1 product worked out by hand
    u = bv([[[2.0]], [[3.0]]])
    x = bv([[[5.0]], [[7.0]]])

    def test_btt_times_btt(self):
        np.testing.assert_allclose(
            btt_times_btt(self.u, self.x).data.ravel(), [10.0, 29.0],
            atol=1e-14)


class TestIdentityCases:
    def test_identity_row_acts_as_identity(self):
        x = random_bv(8, 2, 0)
        out = btt_times_btt(identity_row(8, 2), x)
        np.testing.assert_allclose(out.data, x.data, atol=1e-13)

    @pytest.mark.parametrize("op", [btt_times_btt])
    def test_right_multiply_by_identity(self, op):
        u = random_bv(8, 2, 1)
        out = op(u, identity_row(8, 2))
        np.testing.assert_allclose(out.data, u.data, atol=1e-13)


class TestDenseOracle:
    # the acceptance micro-suite range: n <= 32, m <= 3, any length
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 3, 6, 12])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_products_match_dense_assembly(self, n, m):
        rng = np.random.default_rng(n * 7 + m)
        u = BlockVector(rng.standard_normal((n, m, m)))
        x = BlockVector(rng.standard_normal((n, m, m)))
        scale = max(np.abs(u.data).max() * np.abs(x.data).max() * n, 1.0)
        out = btt_times_btt(u, x).data
        ref = first_block_row(dense_btt(u.data) @ dense_btt(x.data), n, m)
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
        y = BlockVector(arr)
        out = btt_times_btt(y, y)
        assert out.is_real == (not complex_)
        ref = first_block_row(dense_btt(arr) @ dense_btt(arr), 12, m)
        scale = max(np.abs(arr).max() ** 2 * 12 * m, 1.0)
        assert np.abs(out.data - ref).max() <= 1e-13 * scale

    @pytest.mark.parametrize("complex_", [False, True])
    def test_given_transform_gives_same_bits(self, complex_):
        rng = np.random.default_rng(30)
        u, x = (rng.standard_normal((8, 2, 2)) for _ in range(2))
        if complex_:
            u = u + 1j * rng.standard_normal((8, 2, 2))
            x = x + 1j * rng.standard_normal((8, 2, 2))
        u, x = BlockVector(u), BlockVector(x)
        u_hat = _transform_stack(u.data, 16, real=not complex_)
        np.testing.assert_array_equal(btt_times_btt(u, x, u_hat=u_hat).data,
                                      btt_times_btt(u, x).data)


class TestAlgebra:
    def test_linearity(self):
        u = random_bv(8, 2, 3)
        x = random_bv(8, 2, 4)
        z = random_bv(8, 2, 5)
        a, b = 0.7, -1.3
        combo = BlockVector(a * x.data + b * z.data)
        lhs = btt_times_btt(u, combo).data
        rhs = a * btt_times_btt(u, x).data + b * btt_times_btt(u, z).data
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    def test_btt_product_associativity(self):
        a = random_bv(8, 2, 6)
        b = random_bv(8, 2, 7)
        c = random_bv(8, 2, 8)
        left = btt_times_btt(btt_times_btt(a, b), c).data
        right = btt_times_btt(a, btt_times_btt(b, c)).data
        assert np.abs(left - right).max() <= 1e-11 * max(1.0, np.abs(left).max())


class TestRealness:
    def test_real_inputs_give_real_outputs(self):
        assert btt_times_btt(random_bv(8, 2, 9), random_bv(8, 2, 10)).is_real

    def test_complex_inputs_stay_complex(self):
        rng = np.random.default_rng(11)
        u = BlockVector(rng.standard_normal((4, 1, 1)) + 1j * rng.standard_normal((4, 1, 1)))
        x = BlockVector(rng.standard_normal((4, 1, 1)))
        assert not btt_times_btt(u, x).is_real
        assert not btt_times_btt(x, u).is_real


class TestErrors:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            btt_times_btt(random_bv(4, 2, 0), random_bv(8, 2, 0))
        with pytest.raises(ValueError):
            btt_times_btt(random_bv(4, 2, 0), random_bv(4, 3, 0))
