"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way (index loops, direct
summation) so the fast paths in the package are checked against code that
shares none of their machinery.  The one exception is ``expm_small``, the
package's small-exponential kernel on one matrix, which the tests use as
the exponential of a leading block or of a small dense assembly; the kernel
itself is checked against ``long_taylor_expm``.
"""

import cmath
import math

import numpy as np

from btt_expm.block_linalg import BlockVector, validate_subgenerator
from btt_expm.dense_expm import _expm_stack
from btt_expm.exp_circulant import exp_circulant


def direct_idft(x):
    """O(n^2) evaluation of the unnormalized inverse transform."""
    n = len(x)
    w = np.exp(2j * np.pi / n)
    out = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            out[i] += w ** (i * j) * x[j]
    return out


def direct_dft(x):
    n = len(x)
    w = np.exp(-2j * np.pi / n)
    out = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            out[i] += w ** (i * j) * x[j]
    return out / n


def kron_transform_matrix(n, m):
    """Dense (n*m) x (n*m) matrix of the block transform F (x) I_m."""
    w = np.exp(2j * np.pi / n)
    f = np.array([[w ** (i * j) for j in range(n)] for i in range(n)])
    return np.kron(f, np.eye(m))


def dense_circulant(blocks):
    """Block-circulant matrix from its first block-row, by index loops."""
    arr = np.asarray(blocks)
    n, m, _ = arr.shape
    out = np.zeros((n * m, n * m), dtype=arr.dtype)
    for i in range(n):
        for j in range(n):
            out[i * m:(i + 1) * m, j * m:(j + 1) * m] = arr[(j - i) % n]
    return out


def dense_btt(blocks):
    """Upper-triangular block-Toeplitz matrix from its first block-row."""
    arr = np.asarray(blocks)
    n, m, _ = arr.shape
    out = np.zeros((n * m, n * m), dtype=arr.dtype)
    for i in range(n):
        for j in range(i, n):
            out[i * m:(i + 1) * m, j * m:(j + 1) * m] = arr[j - i]
    return out


def dense_eps_circulant(blocks, epsilon):
    arr = np.asarray(blocks)
    n, m, _ = arr.shape
    out = np.zeros((n * m, n * m), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            blk = arr[j - i] if j >= i else epsilon * arr[n + j - i]
            out[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk
    return out


def scalar_btt_expm(a):
    """First row of the exponential of the scalar (m = 1) upper-triangular
    Toeplitz matrix with first row ``a``: the power-series exponential
    b_0 = exp(a_0), k * b_k = sum_{j=1..k} j * a_j * b_{k-j}.

    For a subgenerator every a_j with j >= 1 is nonnegative, so every term is
    nonnegative and the recurrence is accurate entry by entry.  The sum stops
    at the last nonzero a_j: O(n * bandwidth), O(n^2) for a full row."""
    a = np.asarray(a, dtype=float).ravel()
    n = len(a)
    ja = np.arange(n) * a
    far = np.nonzero(a[1:])[0]
    band = int(far[-1]) + 1 if far.size else 0
    b = np.zeros(n)
    b[0] = np.exp(a[0])
    for k in range(1, n):
        w = min(k, band)
        b[k] = np.dot(ja[1:w + 1], b[k - 1::-1][:w]) / k
    return b.reshape(n, 1, 1)


def erlang_clock_row(n, m):
    """U_1 = lam I, U_0 = Q - lam I with lam = n/2 and Q = J - m I (J the
    all-ones matrix): the mass travels with an Erlang clock of n phases and
    spans the whole row."""
    lam = n / 2
    q = np.full((m, m), 1.0) - m * np.eye(m)
    u = np.zeros((n, m, m))
    u[0] = q - lam * np.eye(m)
    u[1] = lam * np.eye(m)
    return validate_subgenerator(BlockVector(u))


def erlang_clock_exact(n, m):
    """Exact first block-row of the exponential of ``erlang_clock_row(n, m)``.

    Q commutes with I, so Y_k = e**-lam lam**k / k! e**Q, and J**2 = m J
    gives e**Q = e**-m I + (1 - e**-m) / m J in closed form.  The Poisson
    weights are built outward from the mode by their ratios lam / k, in log
    space, past the point where they underflow, and normalized to sum 1.
    Summing the log-ratios keeps the weights relatively accurate where
    lgamma(k + 1), near 3e5 at k = 2**15, would lose about 1e-11 to
    cancellation."""
    lam = n / 2
    mode = int(lam)
    k = np.arange(max(n, int(lam + 40 * lam ** 0.5) + 100), dtype=float)
    log_w = np.zeros(k.size)
    log_w[mode + 1:] = np.cumsum(np.log(lam / k[mode + 1:]))
    log_w[:mode] = np.cumsum(np.log(k[mode:0:-1] / lam))[::-1]
    w = np.exp(log_w)
    w = w[:n] / w.sum()
    eq = np.exp(-m) * np.eye(m) + (1 - np.exp(-m)) / m * np.ones((m, m))
    return w[:, None, None] * eq


def exp_eps_circulant(u, epsilon):
    """First block-row of the exponential of the block-eps-circulant matrix
    with first block-row ``u`` (an (n, m, m) array), for any nonzero
    ``epsilon``: the package's kernel at log(epsilon) on the principal
    branch.  ``u`` is taken as complex, so epsilon = 1 takes the scaled
    complex path too and the result is always complex."""
    epsilon = complex(epsilon)
    if epsilon == 0:
        raise ValueError("epsilon must be nonzero")
    log_eps = complex(math.log(abs(epsilon)), math.atan2(epsilon.imag, epsilon.real))
    return exp_circulant(np.asarray(u, dtype=complex), len(u), log_eps)


def eps_average_rows(u, theta, k):
    """The mean of the real parts of ``exp_eps_circulant(u, eps_j)`` over
    the k rotated values eps_j = i**(1/k) * w_k**j * theta: the eps-averaged
    core as k separate circulants."""
    root_i = cmath.exp(1j * math.pi / (2 * k))  # principal k-th root of i
    rows = [exp_eps_circulant(u, root_i * cmath.exp(2j * math.pi * j / k) * theta).real
            for j in range(k)]
    return sum(rows) / k


def first_block_row(mat, n, m):
    """(n, m, m) stack of the blocks in the first block-row of a dense matrix."""
    return np.stack([mat[:m, j * m:(j + 1) * m] for j in range(n)])


def long_taylor_expm(a, terms=60, squarings=6):
    """Reference exponential: fixed-length Taylor sum on a/2**squarings,
    then repeated squaring.  Independent of the package's kernel.  Accepts
    one matrix or an (N, m, m) stack, each matrix exponentiated on its own."""
    a = np.asarray(a, dtype=np.complex128)
    b = a / 2.0 ** squarings
    total = np.broadcast_to(np.eye(a.shape[-1], dtype=np.complex128), a.shape)
    term = total
    for k in range(1, terms + 1):
        term = term @ b / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def brute_error_metrics(computed, reference):
    """The four error metrics by direct loops; zero reference entries are
    skipped in the component-wise relative metric."""
    c = np.asarray(computed)
    r = np.asarray(reference)
    n, m, _ = c.shape
    cw_abs = 0.0
    cw_rel = 0.0
    for h in range(n):
        for i in range(m):
            for j in range(m):
                d = abs(c[h, i, j] - r[h, i, j])
                cw_abs = max(cw_abs, d)
                if r[h, i, j] != 0:
                    cw_rel = max(cw_rel, d / abs(r[h, i, j]))
    row_diff = np.zeros(m)
    row_ref = np.zeros(m)
    for i in range(m):
        for h in range(n):
            for j in range(m):
                row_diff[i] += abs(c[h, i, j] - r[h, i, j])
                row_ref[i] += abs(r[h, i, j])
    nw_abs = row_diff.max()
    nw_rel = nw_abs / row_ref.max()
    return cw_abs, cw_rel, float(nw_abs), float(nw_rel)


def row_sums(spec):
    """U_j 1 for j = 0..b, b the last nonzero block (0 for a block-diagonal
    row), the input of ``error_analysis.row_tail_log_bound``."""
    sums = spec.u.data.sum(axis=2)
    far = np.flatnonzero(sums[1:].any(axis=1))
    return sums[:far[-1] + 2] if far.size else sums[:1]


def l_norm(spec):
    """Inf-norm of the wrapped lower-triangular part of the eps-circulant:
    the largest row sum over the stacked tails [U_(n-i), ..., U_(n-1)],
    i = 1..n-1, by cumulative sums of absolute values."""
    arr = spec.u.data
    if arr.shape[0] == 1:
        return 0.0
    return float(np.cumsum(np.abs(arr[:0:-1]).sum(axis=2), axis=0).max())


def expm_small(a):
    """exp(a) for one square matrix, by the package's small-exponential
    kernel on a stack of one."""
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    arr = arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return _expm_stack(arr[None])[0]


def block_row_inf_norm(v):
    """Inf-norm of the m x (n*m) concatenation of the blocks of a
    BlockVector."""
    return float(np.abs(np.hstack(list(v.data))).sum(axis=1).max())
