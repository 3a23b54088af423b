"""Exponentials of block-circulant and block-eps-circulant matrices.

Both families are block-diagonalized by the Fourier block transform (the
eps variant after a diagonal scaling by the powers of the n-th root of
epsilon), so the exponential reduces to independent m x m exponentials in
the transformed domain plus two block transforms.  A real circulant has a
Hermitian spectrum, so only its n//2 + 1 leading frequencies are
exponentiated and the real inverse transform restores the rest.  The small
exponentials are one call of the stacked kernel ``dense_expm._expm_stack``.
The eps kernel takes log(epsilon), so the eps methods can run it on a
zero-padded row at an epsilon outside the float range.
"""

from __future__ import annotations

import math

import numpy as np

from .block_linalg import BlockVector
from .dense_expm import _expm_stack
from .fft_transforms import _transform_stack

__all__ = ["exp_eps_circulant", "exp_circulant"]


def exp_eps_circulant(u: BlockVector, epsilon: complex) -> BlockVector:
    """First block-row Y of the exponential of the block-eps-circulant matrix
    with first block-row ``u``, for any nonzero ``epsilon`` (zero raises
    ``ValueError``); the methods in ``exp_btt`` check its range.

    The scaling uses the principal n-th root theta of epsilon: block k is
    multiplied by theta**k before the transform and by theta**-k after.
    """
    epsilon = complex(epsilon)
    # log(epsilon) on the principal branch
    log_eps = complex(math.log(abs(epsilon)), math.atan2(epsilon.imag, epsilon.real))
    return BlockVector._wrap(_exp_eps_circulant(u.data, u.n, log_eps))


def _exp_eps_circulant(data: np.ndarray, n: int, log_eps: complex) -> np.ndarray:
    """The leading ``len(data)`` blocks of the row of ``exp_eps_circulant``
    for epsilon = e**log_eps and the row ``data`` zero-padded to n blocks.
    Only those blocks are scaled, so an epsilon whose powers over all n
    blocks leave the float range still works."""
    # log(theta); both power tables are taken from it directly, so
    # theta**k * theta**-k is 1 to machine accuracy
    log_theta = log_eps / n
    k = np.arange(data.shape[0])[:, None, None]
    v = _transform_stack(data * np.exp(k * log_theta), n)
    v = _expm_stack(v)  # rebinding frees the transform before the inverse
    y = _transform_stack(v, n, inverse=True)[:data.shape[0]]
    y *= np.exp(-k * log_theta)
    return y


def exp_circulant(u: BlockVector) -> BlockVector:
    """First block-row Y of the exponential of the block-circulant matrix with
    first block-row ``u``.  Real input yields a real result."""
    n = u.n
    v = _transform_stack(u.data, n, real=u.is_real)
    v = _expm_stack(v)  # rebinding frees the transform before the inverse
    return BlockVector._wrap(_transform_stack(v, n, inverse=True, real=u.is_real))
