"""The one block transform the package uses: numpy's pocketfft along axis 0.

A block-vector is an (n, m, m) stack; transforming it means transforming each
of its m*m component sequences, i.e. applying F (x) I_m.  numpy's conventions
are kept: the forward transform is unnormalized with kernel exp(-2*pi*1j/n),
the inverse carries the 1/n.  Real stacks take the real transforms, which
keep only the n//2 + 1 nonnegative frequencies (the rest are their conjugates)
and return a real result by construction.

Any length works; whether to pad to a power of two is decided by the callers
in ``exp_btt``, not here.
"""

from __future__ import annotations

import numpy as np

__all__: list[str] = []


def _transform_stack(stack: np.ndarray, n: int, *, inverse: bool = False,
                     real: bool = False) -> np.ndarray:
    """Length-n transform of every component sequence of an (N, m, m) stack.

    The input is cropped or zero-padded to n along axis 0.  With ``real``,
    the forward transform takes a real stack to its n//2 + 1 leading
    frequencies, and the inverse takes those frequencies back to n real
    blocks.
    """
    if real:
        fn = np.fft.irfft if inverse else np.fft.rfft
    else:
        fn = np.fft.ifft if inverse else np.fft.fft
    return fn(stack, n, axis=0)
