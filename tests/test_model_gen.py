import math

import numpy as np
import pytest

from btt_expm.block_linalg import validate_subgenerator
from btt_expm.dense_expm import expm_dense_oracle
from btt_expm.exp_btt import exp_btt_embedding
from btt_expm.model_gen import SplitMix64, banded_subgenerator, random_subgenerator
from btt_expm import error_analysis as ea

from oracles import expm_small


class TestSplitMix64:
    def test_known_stream(self):
        # frozen first outputs of the documented recipe for seed 1234567
        rng = SplitMix64(1234567)
        got = [rng.next_uint64() for _ in range(3)]
        rng2 = SplitMix64(1234567)
        assert got == [rng2.next_uint64() for _ in range(3)]
        assert all(0 <= v < 2 ** 64 for v in got)

    def test_uniform_range(self):
        rng = SplitMix64(99)
        vals = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert 0.3 < sum(vals) / len(vals) < 0.7


class TestRandomSubgenerator:
    def test_deterministic_bitwise(self):
        a = random_subgenerator(6, 2, density=0.8, slack=0.3, seed=42)
        b = random_subgenerator(6, 2, density=0.8, slack=0.3, seed=42)
        np.testing.assert_array_equal(a.u.data, b.u.data)
        assert a.alpha == b.alpha and a.l_norm == b.l_norm

    def test_different_seeds_differ(self):
        a = random_subgenerator(6, 2, seed=1)
        b = random_subgenerator(6, 2, seed=2)
        assert np.abs(a.u.data - b.u.data).max() > 0

    def test_generator_rows_sum_to_zero(self):
        spec = random_subgenerator(8, 3, density=1.0, slack=0.0, seed=3)
        row_sums = spec.u.data.sum(axis=(0, 2))
        assert np.abs(row_sums).max() <= 1e-14 * spec.alpha

    def test_slack_makes_strict_subgenerator(self):
        spec = random_subgenerator(8, 3, density=1.0, slack=0.5, seed=3)
        row_sums = spec.u.data.sum(axis=(0, 2))
        assert row_sums.max() < 0

    @pytest.mark.parametrize("seed", range(6))
    def test_output_validates(self, seed):
        spec = random_subgenerator(5, 2, density=0.5, slack=0.2, seed=seed)
        again = validate_subgenerator(spec.u)
        assert again.alpha == spec.alpha

    def test_alpha_target_exact(self):
        spec = random_subgenerator(6, 2, seed=4, alpha_target=0.03)
        assert spec.alpha == pytest.approx(0.03, rel=1e-15)

    def test_sparse_rows_redrawn_not_degenerate(self):
        # density low enough that zero off-diagonal rows would occur
        spec = random_subgenerator(2, 1, density=0.05, slack=0.0, seed=0)
        assert spec.u.data[1, 0, 0] > 0

    def test_degenerate_one_by_one_generator_rejected(self):
        with pytest.raises(ValueError, match="slack"):
            random_subgenerator(1, 1, slack=0.0, seed=0)
        spec = random_subgenerator(1, 1, slack=0.5, seed=0)
        assert spec.alpha > 0

    def test_degenerate_scalar_band_one_generator_rejected(self):
        # m = 1 with no far blocks has no off-diagonal entry to redraw
        with pytest.raises(ValueError, match="slack"):
            random_subgenerator(4, 1, slack=0.0, seed=0, bandwidth=1)
        spec = random_subgenerator(4, 1, slack=0.5, seed=0, bandwidth=1)
        assert spec.l_norm == 0.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            random_subgenerator(0, 2)
        with pytest.raises(ValueError):
            random_subgenerator(4, 2, density=0.0)
        with pytest.raises(ValueError):
            random_subgenerator(4, 2, density=1.5)
        with pytest.raises(ValueError):
            random_subgenerator(4, 2, slack=-1.0)
        with pytest.raises(ValueError):
            random_subgenerator(4, 2, seed=0, alpha_target=-2.0)


class TestBandedSubgenerator:
    def test_band_enforced(self):
        spec = banded_subgenerator(8, 2, bandwidth=3, seed=5)
        assert np.abs(spec.u.data[3:]).max() == 0.0
        assert np.abs(spec.u.data[1:3]).max() > 0.0

    def test_band_one_is_block_diagonal(self):
        spec = banded_subgenerator(4, 2, bandwidth=1, seed=6, slack=0.4)
        out = expm_dense_oracle(spec)
        np.testing.assert_allclose(out.data[0], expm_small(spec.u.data[0]),
                                   rtol=1e-13, atol=1e-16)
        assert np.abs(out.data[1:]).max() == 0.0

    def test_full_band_same_family_as_unbanded(self):
        a = banded_subgenerator(6, 2, bandwidth=6, seed=7)
        b = random_subgenerator(6, 2, seed=7)
        np.testing.assert_array_equal(a.u.data, b.u.data)

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            banded_subgenerator(4, 2, bandwidth=0)
        with pytest.raises(ValueError):
            banded_subgenerator(4, 2, bandwidth=5)

    def test_banded_decay_consistent_with_bound(self):
        # large-K embedding as reference; row sums of block i must respect
        # the tail bound at L = i, which sees only the band's two blocks
        spec = banded_subgenerator(8, 2, bandwidth=2, seed=8, alpha_target=0.8)
        a = exp_btt_embedding(spec, 16 * spec.n).y
        sums = spec.u.data.sum(axis=2)
        assert not sums[2:].any()
        sigma_grid = (1.05, 1.5, 2.0, 4.0)
        for i in range(spec.n):
            rows = a.data[i].sum(axis=1).max()
            best = math.exp(min(ea.row_tail_log_bound(sums[:2], i, math.log(s))
                                for s in sigma_grid))
            assert rows <= best * (1 + 1e-10) + 1e-13
