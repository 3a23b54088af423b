"""Dense matrix exponentials.

Two uses: the small-block exponentials inside the FFT-diagonalized methods,
and the brute-force oracle that assembles the full structured matrix and
exponentiates it for validation at moderate sizes.  The stacked m x m
product ``_stack_matmul`` serves the small-block kernel and the frequency
products of ``structured_mul`` alike.

The small-block kernel is scaling-and-squaring with a Taylor polynomial of
fixed degree (Higham, SIMAX 26(4), 2005; Al-Mohy & Higham, SIMAX 31(3),
2009): every block is scaled by a power of two to inf-norm at most 1/2, the
degree-14 polynomial is evaluated over the whole stack by Paterson and
Stockmeyer's scheme in x^4 (6 products where Horner's rule takes 13), and
each block is squared back by its own number of steps.  The degree is the
smallest whose truncation error is below machine epsilon at norm 1/2, so no
term count is tested at run time.  The stack is processed in chunks of a
fixed number of entries, which keeps the temporaries small; 1 x 1 blocks are
the scalar exponential.

The oracle keeps the convergence-tested Taylor sum.  For subgenerator input
it first shifts by alpha*I so every Taylor term is nonnegative and the
summation is cancellation-free, then folds exp(-alpha) into the squaring.
"""

from __future__ import annotations

import math

import numpy as np

from .block_linalg import BlockVector, SubgeneratorSpec
from .errors import NumericalError

__all__ = [
    "expm_dense_oracle",
    "assemble_btt_dense",
]

_MAX_TERMS = 200
_MU = float(np.finfo(np.float64).eps)
_CHUNK_ENTRIES = 2 ** 13
_BROADCAST_MAX_M = 4  # above this, stacked matmul beats m broadcast multiply-adds

# smallest d with e^(1/2) (1/2)^(d+1) / (d+1)! <= mu: the Taylor remainder
# bound at inf-norm 1/2
_DEGREE = 14
_COEFFS = [1.0 / math.factorial(k) for k in range(_DEGREE + 1)]


def _inf_norms(stack: np.ndarray) -> np.ndarray:
    return np.abs(stack).sum(axis=2).max(axis=1)


def _taylor_stack(b: np.ndarray) -> np.ndarray:
    """exp of every matrix in a stack, norms assumed <= 1/2."""
    nstack, m, _ = b.shape
    total = np.zeros_like(b)
    idx = np.arange(m)
    total[:, idx, idx] = 1.0
    term = total.copy()
    spare = np.empty_like(b)  # ping-pong buffer: keeps the product allocation-free
    for k in range(1, _MAX_TERMS + 1):
        np.matmul(term, b, out=spare)
        spare *= 1.0 / k
        term, spare = spare, term
        total += term
        if np.all(_inf_norms(term) <= _MU * _inf_norms(total)):
            return total
    raise NumericalError(f"matrix exponential Taylor sum did not converge in {_MAX_TERMS} terms")


def _scaling_steps(norm: float) -> int:
    if norm <= 0.5:
        return 0
    return int(math.ceil(math.log2(norm / 0.5)))


def _stack_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[k] @ y[k] for every k of two (N, m, m) stacks, real or complex: m
    broadcast multiply-adds for m <= 4, stacked matmul above."""
    m = x.shape[-1]
    if m > _BROADCAST_MAX_M:
        return x @ y
    out = x[:, :, :1] * y[:, :1, :]
    for k in range(1, m):
        out += x[:, :, k:k + 1] * y[:, k:k + 1, :]
    return out


def _expm_chunk(a: np.ndarray) -> np.ndarray:
    m = a.shape[-1]
    # smallest s >= 0 with norm / 2**s <= 1/2, exactly: norm = f * 2**e with
    # f in [1/2, 1), so s = e when f == 1/2 and e + 1 otherwise
    frac, expo = np.frexp(_inf_norms(a))
    s = np.maximum(expo + (frac > 0.5), 0)
    x = a * np.ldexp(1.0, -s)[:, None, None]
    # Paterson-Stockmeyer in x^4 (Higham, Functions of Matrices, 2008,
    # sec. 4.2): with B_i = sum_(j<4) c_(4i+j) x^j, r = B_3, then
    # r = x^4 r + B_i for i = 2, 1, 0, six products in all.  The diagonal is
    # indexed, so the add holds for any memory layout of r
    idx = np.arange(m)
    x2 = _stack_matmul(x, x)
    powers = (x, x2, _stack_matmul(x2, x))
    x4 = _stack_matmul(x2, x2)
    r = None
    for i in range(_DEGREE // 4 * 4, -1, -4):
        r = 0.0 if r is None else _stack_matmul(x4, r)
        for c, xj in zip(_COEFFS[i + 1:i + 4], powers):
            r += c * xj
        r[:, idx, idx] += _COEFFS[i]
    for step in range(int(s.max())):
        mask = s > step
        sub = r[mask]
        r[mask] = _stack_matmul(sub, sub)
    return r


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """exp of every matrix in an (N, m, m) stack, in float64 or complex128
    (complex input stays complex)."""
    a = np.asarray(a)
    out = np.empty(a.shape, dtype=np.result_type(a.dtype, np.float64))
    nstack, m = a.shape[0], a.shape[-1]
    if m == 1:
        return np.exp(a, out=out)
    chunk = max(1, _CHUNK_ENTRIES // (m * m))
    for lo in range(0, nstack, chunk):
        out[lo:lo + chunk] = _expm_chunk(a[lo:lo + chunk])
    return out


def assemble_btt_dense(u: BlockVector) -> np.ndarray:
    """The full (n*m) x (n*m) upper-triangular block-Toeplitz matrix."""
    n, m = u.n, u.m
    out = np.zeros((n, m, n, m), dtype=u.dtype)
    i, j = np.triu_indices(n)
    out[i, :, j, :] = u.data[j - i]
    return out.reshape(n * m, n * m)


def expm_dense_oracle(spec: SubgeneratorSpec, cap: int = 512, *,
                      min_scaling: int = 0) -> BlockVector:
    """First block-row of the exponential of the full triangular matrix,
    computed densely.  Only intended for validation: refuses n*m > cap.

    The shifted Taylor sum and the squarings are cancellation-free, so
    entries are accurate in the relative sense.  Entries fed exclusively by
    series orders beyond the truncation point are the exception; forcing
    extra scaling steps via ``min_scaling`` lets the squarings rebuild those
    high orders from accurately-summed low ones.
    """
    n, m = spec.n, spec.m
    if n * m > cap:
        raise ValueError(f"dense oracle refused: n*m = {n * m} exceeds cap {cap}")
    t = assemble_btt_dense(spec.u)
    shifted = t + spec.alpha * np.eye(n * m)
    s = max(_scaling_steps(float(np.abs(shifted).sum(axis=1).max())), min_scaling)
    out = _taylor_stack((shifted / 2.0 ** s)[None])[0]
    out *= math.exp(-spec.alpha / 2.0 ** s)
    spare = np.empty_like(out)
    for _ in range(s):
        np.matmul(out, out, out=spare)
        out, spare = spare, out
    row = out[:m].reshape(m, n, m).transpose(1, 0, 2)
    return BlockVector._wrap(np.ascontiguousarray(row))
