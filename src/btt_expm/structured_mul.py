"""Fast products with block-circulant and block-triangular block-Toeplitz
matrices, all through one primitive: the block convolution
c_k = sum_j u_j @ x_{k-j}, computed as an elementwise product of block
transforms.

* Two triangular block-Toeplitz matrices multiply to the one whose first
  block-row is the causal convolution of theirs: transform at length 2n (no
  wrap-around can reach the first n blocks) and keep n blocks.
* Two block-circulants multiply to the one whose first block-row is the
  circular convolution of theirs, at length n.
* A structured matrix times a block-vector is a correlation, which is the
  convolution with the reversed vector, reversed back.

Real operands take the real transforms and give a real result by
construction; complex operands take the complex ones.
"""

from __future__ import annotations

import numpy as np

from .block_linalg import BlockVector
from .fft_transforms import _transform_stack

__all__ = [
    "circulant_times_vector",
    "btt_times_vector",
    "btt_times_btt",
    "circulant_times_circulant",
]


def _check_pair(u: BlockVector, x: BlockVector) -> None:
    if u.n != x.n or u.m != x.m:
        raise ValueError(
            f"operand shapes differ: (n={u.n}, m={u.m}) vs (n={x.n}, m={x.m})")


def _convolve(u: np.ndarray, x: np.ndarray, length: int) -> np.ndarray:
    # length 2n: causal (triangular) convolution in the first n blocks;
    # length n: circular (circulant) convolution
    real = u.dtype.kind == "f" and x.dtype.kind == "f"
    w = _transform_stack(u, length, real=real) @ _transform_stack(x, length, real=real)
    return _transform_stack(w, length, inverse=True, real=real)


def _circ_reverse(x: np.ndarray) -> np.ndarray:
    # x_{-k mod n}
    return np.roll(x[::-1], 1, axis=0)


def circulant_times_vector(u: BlockVector, x: BlockVector) -> BlockVector:
    """Product of the block-circulant matrix with first block-row ``u`` and the
    block-vector ``x``."""
    _check_pair(u, x)
    y = _convolve(u.data, _circ_reverse(x.data), u.n)
    return BlockVector._wrap(_circ_reverse(y))


def btt_times_vector(u: BlockVector, x: BlockVector) -> BlockVector:
    """Product of the upper-triangular block-Toeplitz matrix with first
    block-row ``u`` and the block-vector ``x``."""
    _check_pair(u, x)
    y = _convolve(u.data, x.data[::-1], 2 * u.n)[: u.n]
    return BlockVector._wrap(y[::-1])


def btt_times_btt(u: BlockVector, x: BlockVector) -> BlockVector:
    """First block-row of the product of two upper-triangular block-Toeplitz
    matrices given by their first block-rows."""
    _check_pair(u, x)
    return BlockVector._wrap(_convolve(u.data, x.data, 2 * u.n)[: u.n].copy())


def circulant_times_circulant(u: BlockVector, x: BlockVector) -> BlockVector:
    """First block-row of the product of two block-circulant matrices given by
    their first block-rows."""
    _check_pair(u, x)
    return BlockVector._wrap(_convolve(u.data, x.data, u.n))
