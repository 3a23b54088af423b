"""The package's one structured product: two upper-triangular block-Toeplitz
matrices multiply to the one whose first block-row is the causal block
convolution c_k = sum_{j<=k} u_j @ x_{k-j} of theirs.  It is computed as an
elementwise product of block transforms at length 2n, where no wrap-around
can reach the first n blocks, keeping n blocks.

Real operands take the real transforms and give a real result by
construction; complex operands take the complex ones.
"""

from __future__ import annotations

from .block_linalg import BlockVector
from .fft_transforms import _transform_stack

__all__ = ["btt_times_btt"]


def btt_times_btt(u: BlockVector, x: BlockVector) -> BlockVector:
    """First block-row of the product of two upper-triangular block-Toeplitz
    matrices given by their first block-rows."""
    if u.n != x.n or u.m != x.m:
        raise ValueError(
            f"operand shapes differ: (n={u.n}, m={u.m}) vs (n={x.n}, m={x.m})")
    n2, real = 2 * u.n, u.is_real and x.is_real
    w = _transform_stack(u.data, n2, real=real) @ _transform_stack(x.data, n2, real=real)
    return BlockVector._wrap(_transform_stack(w, n2, inverse=True, real=real)[: u.n].copy())
