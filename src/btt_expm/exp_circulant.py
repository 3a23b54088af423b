"""Exponentials of block-circulant and block-eps-circulant matrices.

Both families are block-diagonalized by the Fourier block transform (the
eps variant after a diagonal scaling by the powers of the n-th root of
epsilon), so the exponential reduces to independent m x m exponentials in
the transformed domain plus two block transforms.  A real circulant has a
Hermitian spectrum, so only its n//2 + 1 leading frequencies are
exponentiated and the real inverse transform restores the rest.  The small
exponentials are one call of the stacked kernel ``dense_expm._expm_stack``.
"""

from __future__ import annotations

import cmath
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
    n = u.n
    # log(theta) on the principal branch; both power tables are taken from it
    # directly, so theta**k * theta**-k is 1 to machine accuracy
    log_theta = (math.log(abs(epsilon)) + 1j * cmath.phase(epsilon)) / n
    k = np.arange(n)[:, None, None]
    v = _transform_stack(u.data * np.exp(k * log_theta), n)
    v = _expm_stack(v)  # rebinding frees the transform before the inverse
    y = _transform_stack(v, n, inverse=True)
    y *= np.exp(-k * log_theta)
    return BlockVector._wrap(y)


def exp_circulant(u: BlockVector) -> BlockVector:
    """First block-row Y of the exponential of the block-circulant matrix with
    first block-row ``u``.  Real input yields a real result."""
    n = u.n
    v = _transform_stack(u.data, n, real=u.is_real)
    v = _expm_stack(v)  # rebinding frees the transform before the inverse
    return BlockVector._wrap(_transform_stack(v, n, inverse=True, real=u.is_real))
