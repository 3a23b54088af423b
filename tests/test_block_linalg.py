import numpy as np
import pytest

from btt_expm.block_linalg import BlockVector, error_report, validate_subgenerator
from btt_expm.errors import ValidationError
from btt_expm.model_gen import random_subgenerator

from oracles import block_row_inf_norm, brute_error_metrics


def bv(*blocks):
    return BlockVector(np.asarray(blocks, dtype=float))


class TestBlockVector:
    def test_basic_properties(self):
        v = bv([[1.0, 2.0], [3.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]])
        assert (v.n, v.m, len(v)) == (2, 2, 2)
        assert v.is_real

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BlockVector(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            BlockVector(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            BlockVector(np.zeros((0, 1, 1)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            bv([[np.nan]])

    def test_immutable(self):
        v = bv([[1.0]])
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 2.0

    def test_complex_supported(self):
        v = BlockVector(np.array([[[1 + 1j]]]))
        assert not v.is_real


class TestValidate:
    def test_single_block(self):
        spec = validate_subgenerator(bv([[-1.0]]))
        assert spec.alpha == 1.0
        assert spec.l_norm == 0.0

    def test_two_block_generator(self):
        spec = validate_subgenerator(bv([[-1.0]], [[1.0]]))
        assert spec.alpha == 1.0
        assert spec.l_norm == 1.0

    def test_positive_row_sum_rejected(self):
        with pytest.raises(ValidationError, match="row sum"):
            validate_subgenerator(bv([[-1.0]], [[2.0]]))

    def test_nonnegative_diagonal_rejected(self):
        with pytest.raises(ValidationError, match="diagonal"):
            validate_subgenerator(bv([[0.0]]))

    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(ValidationError, match="off-diagonal"):
            validate_subgenerator(bv([[-1.0, -0.1], [0.3, -1.0]]))
        with pytest.raises(ValidationError, match="off-diagonal"):
            validate_subgenerator(bv([[-1.0]], [[-0.5]]))

    def test_complex_rejected(self):
        with pytest.raises(ValidationError, match="real"):
            validate_subgenerator(BlockVector(np.array([[[-1.0 + 0j]]])))

    def test_row_sum_tolerance(self):
        # tiny positive row sums (file round-trip noise) are accepted
        spec = validate_subgenerator(bv([[-1.0]], [[1.0 + 1e-14]]))
        assert spec.alpha == 1.0
        with pytest.raises(ValidationError):
            validate_subgenerator(bv([[-1.0]], [[1.0 + 1e-14]]), tol=1e-16)

    def test_idempotent_on_accepted_inputs(self):
        spec = random_subgenerator(6, 2, density=0.8, slack=0.3, seed=5)
        again = validate_subgenerator(spec.u)
        assert again.alpha == spec.alpha
        assert again.l_norm == spec.l_norm

    @pytest.mark.parametrize("seed", range(8))
    def test_l_norm_at_most_alpha(self, seed):
        spec = random_subgenerator(8, 3, density=0.9, slack=0.1, seed=seed)
        assert spec.l_norm <= spec.alpha + 1e-12

    def test_scaled_spec(self):
        spec = random_subgenerator(4, 2, seed=1, alpha_target=6.0)
        half = spec.scaled(2)
        assert half.alpha == spec.alpha / 4
        assert half.l_norm == spec.l_norm / 4
        np.testing.assert_allclose(half.u.data, spec.u.data / 4, rtol=0, atol=0)


class TestBlockRowInfNorm:
    def test_single_block(self):
        assert block_row_inf_norm(bv([[1.0, -2.0], [0.0, 3.0]])) == 3.0

    def test_two_scalar_blocks(self):
        assert block_row_inf_norm(bv([[2.0]], [[-3.0]])) == 5.0

    def test_matches_dense_concatenation(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((2, 2, 2))
        v = BlockVector(arr)
        concat = np.hstack([arr[0], arr[1]])
        assert block_row_inf_norm(v) == pytest.approx(
            np.abs(concat).sum(axis=1).max(), rel=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_iff_all_blocks_zero(self, seed):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal((3, 2, 2))
        assert block_row_inf_norm(BlockVector(arr)) > 0
        assert block_row_inf_norm(BlockVector(np.zeros((3, 2, 2)))) == 0.0


class TestErrorReport:
    def test_identical_inputs(self):
        v = bv([[0.5]], [[0.25]])
        rep = error_report(v, v)
        assert (rep.cw_abs, rep.cw_rel, rep.nw_abs, rep.nw_rel) == (0, 0, 0, 0)

    def test_scalar_offset(self):
        rep = error_report(bv([[1.0 + 1e-3]]), bv([[1.0]]))
        assert rep.cw_abs == pytest.approx(1e-3)
        assert rep.cw_rel == pytest.approx(1e-3)
        assert rep.nw_abs == pytest.approx(1e-3)
        assert rep.nw_rel == pytest.approx(1e-3)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 3, 3))
        b = a + 1e-6 * rng.standard_normal((4, 3, 3))
        rep = error_report(BlockVector(b), BlockVector(a))
        cw_abs, cw_rel, nw_abs, nw_rel = brute_error_metrics(b, a)
        assert rep.cw_abs == pytest.approx(cw_abs, rel=1e-13)
        assert rep.cw_rel == pytest.approx(cw_rel, rel=1e-13)
        assert rep.nw_abs == pytest.approx(nw_abs, rel=1e-13)
        assert rep.nw_rel == pytest.approx(nw_rel, rel=1e-13)

    @pytest.mark.parametrize("seed", range(4))
    def test_norm_component_inequalities(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, m = 4, 2
        a = rng.standard_normal((n, m, m))
        b = a + rng.standard_normal((n, m, m)) * 0.01
        rep = error_report(BlockVector(b), BlockVector(a))
        assert rep.cw_abs <= rep.nw_abs + 1e-15
        assert rep.nw_abs <= n * m * rep.cw_abs + 1e-15

    def test_zero_reference_entries_skipped(self):
        computed = BlockVector(np.array([[[1.0, 0.5], [0.5, 1.0]]]))
        reference = BlockVector(np.array([[[1.0, 0.0], [0.5, 1.0]]]))
        rep = error_report(computed, reference)
        assert rep.cw_rel_skipped == 1
        assert rep.cw_rel == 0.0  # only the zero-reference entry differs

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            error_report(bv([[1.0]]), bv([[1.0]], [[1.0]]))
