"""The package's one structured product: two upper-triangular block-Toeplitz
matrices multiply to the one whose first block-row is the causal block
convolution c_k = sum_{j<=k} u_j @ x_{k-j} of theirs.  The first n blocks
are computed as an elementwise product of block transforms at length 2n,
where no wrap-around can reach them.  Operands shorter than n are rows
whose later blocks are zero: the transforms zero-pad them.

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

import numpy as np

from .dense_expm import _stack_matmul
from .fft_transforms import _transform_stack

__all__ = ["btt_times_btt"]


def btt_times_btt(u: np.ndarray, x: np.ndarray, n: int | None = None, *,
                  u_hat=None) -> np.ndarray:
    """The first n blocks (default ``len(u)``) of the first block-row of the
    product of two upper-triangular block-Toeplitz matrices given by the
    (N, m, m) stacks of their first block-rows, each of at most n blocks.

    ``u_hat``, when given, must be ``_transform_stack(u, 2 * n, real=True)``
    for real operands (``real=False`` otherwise)."""
    n = u.shape[0] if n is None else n
    # an operand longer than n would wrap its blocks from n on into the
    # leading ones at transform length 2n
    if u.shape[1:] != x.shape[1:] or max(u.shape[0], x.shape[0]) > n:
        raise ValueError(f"operands of shapes {u.shape} and {x.shape} "
                         f"do not fit a product of {n} blocks")
    real = not (np.iscomplexobj(u) or np.iscomplexobj(x))
    if u_hat is None:
        u_hat = _transform_stack(u, 2 * n, real=real)
    x_hat = u_hat if x is u else _transform_stack(x, 2 * n, real=real)
    w = _stack_matmul(u_hat, x_hat)
    return _transform_stack(w, 2 * n, inverse=True, real=real)[:n].copy()
