"""Synthetic subgenerator instances for tests and experiments.

Randomness comes from SplitMix64, a tiny documented generator with fixed
constants, so corpora are reproducible bit for bit from the seed alone and
can be regenerated by any implementation of the same recipe.
"""

from __future__ import annotations

import numpy as np

from .block_linalg import BlockVector, SubgeneratorSpec, validate_subgenerator

__all__ = ["SplitMix64", "random_subgenerator", "banded_subgenerator"]

_M64 = 0xFFFFFFFFFFFFFFFF


class SplitMix64:
    """SplitMix64 PRNG (Steele, Lea and Flood's 2014 mixing constants).

    State is a single 64-bit counter advanced by the golden-ratio increment;
    ``uniform()`` maps the top 53 bits of the mixed output to [0, 1).
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _M64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _M64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_uint64() >> 11) * 2.0 ** -53


def random_subgenerator(n: int, m: int, density: float = 1.0, slack: float = 0.0,
                        seed: int = 0, *, alpha_target: float | None = None,
                        bandwidth: int | None = None) -> SubgeneratorSpec:
    """Draw a random subgenerator with n blocks of order m.

    Off-diagonal entries are uniform in [0, 1); entries of the far blocks are
    independently zeroed with probability 1 - density.  The diagonal of the
    leading block closes each row to a sum of -slack * uniform(), so slack = 0
    yields a generator (zero row sums) and slack > 0 a strict subgenerator.

    Draw order (fixed, so corpora are portable): far blocks in index order,
    entries row-major, one value draw then one density draw each; then the
    leading block off-diagonals row-major; then one slack draw per row.  A
    row whose off-diagonal part sums to zero while its slack term is zero is
    redrawn unmasked, since the diagonal must stay negative.

    ``alpha_target`` rescales the instance so the largest diagonal decay rate
    equals it exactly (a linear rescale, preserving all sign and row-sum
    structure).  ``bandwidth`` zeroes blocks with index >= bandwidth.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    if slack < 0.0:
        raise ValueError("slack must be nonnegative")
    band = n if bandwidth is None else bandwidth
    if not 1 <= band <= n:
        raise ValueError(f"bandwidth must lie in [1, {n}], got {band}")
    if m == 1 and band == 1 and slack == 0.0:
        raise ValueError(
            "a scalar generator with no off-diagonal blocks has a zero diagonal; "
            "use slack > 0")

    rng = SplitMix64(seed)
    arr = np.zeros((n, m, m))

    for i in range(1, band):
        for r in range(m):
            for c in range(m):
                value = rng.uniform()
                if density < 1.0 and rng.uniform() >= density:
                    value = 0.0
                arr[i, r, c] = value
    for r in range(m):
        for c in range(m):
            if c != r:
                arr[0, r, c] = rng.uniform()

    for r in range(m):
        slack_term = slack * rng.uniform()
        total = float(arr[:, r, :].sum()) + slack_term
        while total == 0.0:
            # redraw the whole off-diagonal row unmasked
            for c in range(m):
                if c != r:
                    arr[0, r, c] = rng.uniform()
            for i in range(1, band):
                for c in range(m):
                    arr[i, r, c] = rng.uniform()
            total = float(arr[:, r, :].sum()) + slack_term
        arr[0, r, r] = -total

    if alpha_target is not None:
        if not alpha_target > 0:
            raise ValueError("alpha_target must be positive")
        current = float(-np.diagonal(arr[0]).min())
        arr *= alpha_target / current

    return validate_subgenerator(BlockVector(arr))


def banded_subgenerator(n: int, m: int, bandwidth: int, seed: int = 0,
                        density: float = 1.0, slack: float = 0.0, *,
                        alpha_target: float | None = None) -> SubgeneratorSpec:
    """Random subgenerator whose blocks vanish from index ``bandwidth`` on;
    the decay of the exponential's blocks is then governed by the band."""
    return random_subgenerator(n, m, density=density, slack=slack, seed=seed,
                               alpha_target=alpha_target, bandwidth=bandwidth)
