"""The exponential of a block-eps-circulant matrix, eps = 1 (the plain
circulant) included.

The Fourier block transform block-diagonalizes the circulant, and, after a
diagonal scaling by the powers of the n-th root of eps, the eps-circulant
too, so the exponential reduces to independent m x m exponentials in the
transformed domain plus two block transforms.  The small exponentials are
one call of the stacked kernel ``dense_expm._expm_stack``.  The kernel takes
log(eps), so the eps methods can run it at an eps outside the float range,
and a row shorter than the circulant, which the transform zero-pads.  A real
row at log eps = 0 has a Hermitian spectrum, so only its n//2 + 1 leading
frequencies are exponentiated and the real inverse transform restores the
rest.
"""

from __future__ import annotations

import numpy as np

from .dense_expm import _expm_stack
from .fft_transforms import _transform_stack

__all__ = ["exp_circulant"]


def exp_circulant(data: np.ndarray, n: int, log_eps: complex = 0) -> np.ndarray:
    """The leading ``len(data)`` blocks of the first block-row of the
    exponential of the block-(e**log_eps)-circulant matrix of n blocks whose
    first block-row is ``data`` zero-padded to n.  Real data at log_eps = 0
    gives a real result.

    Otherwise block k is multiplied by theta**k before the transform and by
    theta**-k after, theta the n-th root e**(log_eps / n); only the kept
    blocks are scaled, so an eps whose powers over all n blocks leave the
    float range still works."""
    length = data.shape[0]
    real = log_eps == 0 and not np.iscomplexobj(data)
    if not real:
        # both power tables are taken from log(theta) directly, so
        # theta**k * theta**-k is 1 to machine accuracy
        k, log_theta = np.arange(length)[:, None, None], log_eps / n
        data = data * np.exp(k * log_theta)
    v = _transform_stack(data, n, real=real)
    v = _expm_stack(v)  # rebinding frees the transform before the inverse
    y = _transform_stack(v, n, inverse=True, real=real)[:length]
    # a fresh array either way, so the n-block inverse is freed on return
    return y.copy() if real else y * np.exp(-k * log_theta)
