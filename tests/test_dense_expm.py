import math

import numpy as np
import pytest

from btt_expm.block_linalg import BlockVector, validate_subgenerator
from btt_expm.dense_expm import (_CHUNK_ENTRIES, _DEGREE, _MU, _expm_stack,
                                 _stack_matmul, assemble_btt_dense,
                                 expm_dense_oracle)
from btt_expm.model_gen import random_subgenerator
from btt_expm import dense_expm

from oracles import dense_btt, expm_small, long_taylor_expm


class TestExpmSmall:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(expm_small(np.zeros((3, 3))), np.eye(3))

    def test_scalar(self):
        out = expm_small(np.array([[-1.0]]))
        assert out[0, 0] == pytest.approx(0.36787944117144233, rel=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_long_taylor_reference(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 2))
        a *= 2.0 / np.abs(a).sum(axis=1).max()
        ref = long_taylor_expm(a).real
        out = expm_small(a)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_long_taylor_complex(self, seed):
        rng = np.random.default_rng(50 + seed)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a *= 1.5 / np.abs(a).sum(axis=1).max()
        ref = long_taylor_expm(a)
        out = expm_small(a)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("seed", range(4))
    def test_subgenerator_gives_substochastic_result(self, seed):
        spec = random_subgenerator(1, 3, slack=0.4, seed=seed)
        out = expm_small(spec.u.data[0])
        assert out.min() >= -1e-14
        assert out.sum(axis=1).max() <= 1.0 + 1e-13

    def test_commuting_product_property(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        a /= np.abs(a).sum(axis=1).max()
        b = 0.5 * a @ a - 0.3 * a + 0.1 * np.eye(3)  # commutes with a
        lhs = expm_small(a + b)
        rhs = expm_small(a) @ expm_small(b)
        assert np.abs(lhs - rhs).max() <= 1e-11 * np.abs(lhs).max()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            expm_small(np.ones((2, 3)))
        with pytest.raises(ValueError):
            expm_small(np.array([[np.inf]]))

    def test_stack_matches_single(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((5, 2, 2)) * 3.0
        out = _expm_stack(stack)
        for k in range(5):
            np.testing.assert_allclose(out[k], expm_small(stack[k]),
                                       rtol=1e-14, atol=1e-16)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8])
    def test_stack_matmul_matches_matmul(self, m, complex_):
        # broadcast multiply-adds up to m = 4, stacked matmul above
        rng = np.random.default_rng(m)
        x, y = (rng.standard_normal((33, m, m)) for _ in range(2))
        if complex_:
            x = x + 1j * rng.standard_normal((33, m, m))
            y = y + 1j * rng.standard_normal((33, m, m))
        out = _stack_matmul(x, y)
        assert out.dtype == x.dtype
        np.testing.assert_allclose(out, x @ y, rtol=0, atol=1e-14 * m)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8])
    def test_stack_matches_long_taylor(self, m, complex_):
        # more blocks than one chunk holds, not a whole number of chunks, with
        # inf-norms spread over [0, 40] so blocks take different squarings
        nstack = 2 * (_CHUNK_ENTRIES // (m * m)) + 7
        rng = np.random.default_rng(10 * m + complex_)
        stack = rng.standard_normal((nstack, m, m))
        if complex_:
            stack = stack + 1j * rng.standard_normal((nstack, m, m))
        norms = np.abs(stack).sum(axis=2).max(axis=1)
        stack *= (np.linspace(0.0, 40.0, nstack) / norms)[:, None, None]
        out = _expm_stack(stack)
        assert out.dtype == (np.complex128 if complex_ else np.float64)
        ref = long_taylor_expm(stack)
        err = np.abs(out - ref).sum(axis=2).max(axis=1)
        # real 2x2 and 3x3 blocks of norm 25-40 with complex eigenvalue pairs
        # are ill-conditioned: against an 80-bit reference this kernel is off
        # by up to 1.8e-13 there, and the reference above by 1.4e-13
        tol = 1e-13 if complex_ else 3e-13
        assert np.all(err <= tol * np.abs(ref).sum(axis=2).max(axis=1))

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("m", [2, 5])
    def test_six_products_at_norm_half(self, m, complex_, monkeypatch):
        # Paterson-Stockmeyer: x^2, x^3, x^4 and three steps in x^4; blocks
        # of norm at most 1/2 (1/2 itself included) take no squaring
        rng = np.random.default_rng(m)
        stack = rng.standard_normal((40, m, m))
        if complex_:
            stack = stack + 1j * rng.standard_normal((40, m, m))
        norms = np.abs(stack).sum(axis=2).max(axis=1)
        stack *= (np.linspace(0.0, 0.5, 40) / norms)[:, None, None]
        stack[-1] = 0.25 * (np.eye(m) + np.eye(m, k=1))  # norm 1/2 exactly
        calls = []
        product = dense_expm._stack_matmul

        def counted(x, y):
            calls.append(x.shape[0])
            return product(x, y)

        monkeypatch.setattr(dense_expm, "_stack_matmul", counted)
        out = _expm_stack(stack)
        assert calls == [40] * 6
        # the reference, not the kernel, is off by up to 3e-14 here
        ref = long_taylor_expm(stack)
        err = np.abs(out - ref).sum(axis=2).max(axis=1)
        assert np.all(err <= 1e-13 * np.abs(ref).sum(axis=2).max(axis=1))

    def test_degree_is_smallest_meeting_remainder_bound(self):
        def remainder(d):
            return math.exp(0.5) * 0.5 ** (d + 1) / math.factorial(d + 1)
        assert remainder(_DEGREE) <= _MU < remainder(_DEGREE - 1)

    @pytest.mark.parametrize("m", [2, 5])
    def test_transpose_and_fortran_order(self, m):
        # the diagonal terms must be added whatever the memory layout; a
        # positive matrix keeps its high powers near their norm bound, so a
        # dropped Taylor term shows after the squarings
        rng = np.random.default_rng(m)
        a = rng.uniform(0.5, 1.0, (m, m))
        a *= 16.0 / np.abs(a).sum(axis=1).max()
        ref = expm_small(a)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(expm_small(a.T), ref.T, rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(expm_small(np.asfortranarray(a)), ref,
                                   rtol=0, atol=1e-14 * scale)

    @pytest.mark.parametrize("m", [2, 5])
    def test_stack_layout_independent(self, m):
        # every axis reversed in memory, as numpy 1.x returns a transform
        # taken along axis 0 of a stack
        nstack = _CHUNK_ENTRIES // (m * m) + 3
        rng = np.random.default_rng(m)
        c = (rng.standard_normal((m, m, nstack))
             + 1j * rng.standard_normal((m, m, nstack))) * 2.0
        strided = c.T
        assert not strided.flags.c_contiguous
        ref = _expm_stack(np.ascontiguousarray(strided))
        out = _expm_stack(strided)
        err = np.abs(out - ref).sum(axis=2).max(axis=1)
        assert np.all(err <= 1e-14 * np.abs(ref).sum(axis=2).max(axis=1))


class TestAssemblies:
    @pytest.mark.parametrize("n,m", [(1, 2), (4, 2), (5, 3)])
    def test_match_independent_loops(self, n, m):
        rng = np.random.default_rng(n + m)
        u = BlockVector(rng.standard_normal((n, m, m)))
        np.testing.assert_array_equal(assemble_btt_dense(u), dense_btt(u.data))


class TestDenseOracle:
    def test_single_block(self):
        spec = random_subgenerator(1, 2, slack=0.5, seed=7)
        out = expm_dense_oracle(spec)
        np.testing.assert_allclose(out.data[0], expm_small(spec.u.data[0]),
                                   rtol=1e-13, atol=1e-16)

    def test_block_diagonal_input(self):
        # far blocks all zero: exponential row is (exp(U0), 0, ..., 0)
        arr = np.zeros((4, 2, 2))
        arr[0] = np.array([[-1.0, 0.3], [0.2, -0.8]])
        spec = validate_subgenerator(BlockVector(arr))
        out = expm_dense_oracle(spec)
        np.testing.assert_allclose(out.data[0], expm_small(arr[0]),
                                   rtol=1e-13, atol=1e-16)
        assert np.abs(out.data[1:]).max() == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_leading_block_and_substochasticity(self, seed):
        spec = random_subgenerator(4, 2, slack=0.2, seed=seed)
        out = expm_dense_oracle(spec)
        np.testing.assert_allclose(out.data[0], expm_small(spec.u.data[0]),
                                   rtol=1e-13, atol=1e-15)
        assert out.data.min() >= -1e-14
        row_sums = out.data.sum(axis=(0, 2))
        assert row_sums.max() <= 1.0 + 1e-13

    def test_cap_enforced(self):
        spec = random_subgenerator(8, 2, seed=0)
        with pytest.raises(ValueError, match="cap"):
            expm_dense_oracle(spec, cap=8)

    def test_componentwise_accuracy_with_forced_scaling(self):
        # poisson-like case with exactly known tiny blocks: A_j = exp(-1)/j!
        pad = np.zeros((32, 1, 1))
        pad[0, 0, 0] = -1.0
        pad[1, 0, 0] = 1.0
        spec = validate_subgenerator(BlockVector(pad))
        out = expm_dense_oracle(spec, min_scaling=8).data.ravel()
        for j in (0, 5, 15, 25, 31):
            exact = math.exp(-1) / math.factorial(j)
            assert out[j] == pytest.approx(exact, rel=1e-7)
