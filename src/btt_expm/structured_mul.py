"""The package's one structured product: two upper-triangular block-Toeplitz
matrices multiply to the one whose first block-row is the causal block
convolution c_k = sum_{j<=k} u_j @ x_{k-j} of theirs.  It is computed as an
elementwise product of block transforms at length 2n, where no wrap-around
can reach the first n blocks, keeping n blocks.

Real operands take the real transforms and give a real result by
construction; complex operands take the complex ones.  The frequency stacks
are multiplied with ``dense_expm._stack_matmul``, the product the
small-exponential kernel uses too: m broadcast multiply-adds for m <= 4,
stacked matmul above.  A square (``x is u``) transforms its operand once,
and a caller multiplying by one fixed ``u`` many times can pass u's
transform as ``u_hat``, so each such product costs one forward and one
inverse transform.
"""

from __future__ import annotations

from .block_linalg import BlockVector
from .dense_expm import _stack_matmul
from .fft_transforms import _transform_stack

__all__ = ["btt_times_btt"]


def btt_times_btt(u: BlockVector, x: BlockVector, *, u_hat=None) -> BlockVector:
    """First block-row of the product of two upper-triangular block-Toeplitz
    matrices given by their first block-rows.

    ``u_hat``, when given, must be ``_transform_stack(u.data, 2 * u.n,
    real=True)`` for real operands (``real=False`` otherwise)."""
    if u.n != x.n or u.m != x.m:
        raise ValueError(
            f"operand shapes differ: (n={u.n}, m={u.m}) vs (n={x.n}, m={x.m})")
    n2, real = 2 * u.n, u.is_real and x.is_real
    if u_hat is None:
        u_hat = _transform_stack(u.data, n2, real=real)
    x_hat = u_hat if x is u else _transform_stack(x.data, n2, real=real)
    w = _stack_matmul(u_hat, x_hat)
    return BlockVector._wrap(_transform_stack(w, n2, inverse=True, real=real)[: u.n].copy())
