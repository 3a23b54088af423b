"""References for the exponential row, written apart from the package.

Nothing here imports ``btt_expm``: the benchmark checks the package's output
against code that shares none of its algorithms, transforms or parsers.

* (a) ``scalar_reference``: m = 1, the power-series recurrence
  b_0 = exp(a_0), k b_k = sum_{j=1..k} j a_j b_{k-j}.  Every a_j with j >= 1
  is nonnegative, so every term is nonnegative and the recurrence is free of
  cancellation: each entry is accurate in the relative sense.
* (b) ``block_reference``: any m, the Taylor series of the alpha-shifted,
  scaled block row (all terms nonnegative), with truncated block
  convolutions done by ``numpy.fft``, then squared back.
* (c) ``check_row``: properties every exponential row has (entries >= 0,
  row sums <= 1, leading block = expm(U_0) from ``scipy.linalg.expm``), next
  to the norm-wise error against (a) or (b).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# Norm-wise relative error allowed per call, by accuracy class.  The eps
# methods balance an O(|eps|^2) approximation error against FFT roundoff, so
# eps_circulant lands near mu^(2/3) ~ 4e-11; the other three are accurate to
# roundoff amplified by the p squarings.  Each bound is at least 10x the
# largest error measured on the workloads; see README.
TOLERANCES = {
    "eps_circulant": 5e-10,
    "eps_averaged": 1e-10,
    "embedding": 1e-10,
    "taylor": 1e-10,
    "cli_expm": 1e-10,
}


def row_norm(arr: np.ndarray) -> float:
    """Inf-norm of the block row [A_0, ..., A_{n-1}] given as an (n, m, m) array."""
    return float(np.abs(arr).sum(axis=(0, 2)).max())


def scalar_reference(a: np.ndarray) -> np.ndarray:
    """(a): the exact exponential row of the n x n triangular Toeplitz matrix
    with first row ``a`` (a_0 < 0, a_j >= 0), by the power-series recurrence.
    O(n * bandwidth) for a banded row, O(n^2) at worst."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    ja = np.arange(n) * a
    nonzero = np.nonzero(a[1:])[0]
    band = int(nonzero[-1]) + 1 if nonzero.size else 0
    b = np.zeros(n)
    b[0] = math.exp(a[0])
    for k in range(1, n):
        w = min(k, band)
        if w:
            b[k] = np.dot(ja[1:w + 1], b[k - 1::-1][:w]) / k
    return b


def _conv(x: np.ndarray, yhat: np.ndarray, n: int) -> np.ndarray:
    # first block row of T(x) T(y): sum_j x_j y_{k-j}, k < n
    xhat = np.fft.rfft(x, 2 * n, axis=0)
    return np.fft.irfft(xhat @ yhat, 2 * n, axis=0)[:n]


def block_reference(u: np.ndarray) -> np.ndarray:
    """(b): the exponential row of the upper block-triangular block-Toeplitz
    subgenerator with first block row ``u`` (shape (n, m, m)).

    S = U + alpha I is nonnegative, so exp(U) = exp(-alpha) exp(S) and the
    series of exp(S / 2^q) has only nonnegative terms; q makes
    ||S / 2^q|| <= 1/2, and q squarings bring the row back.
    """
    u = np.asarray(u, dtype=np.float64)
    n, m, _ = u.shape
    alpha = float(-np.diagonal(u[0]).min())
    s = u.copy()
    s[0] += alpha * np.eye(m)
    norm = row_norm(s)
    q = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0 else 0
    t = s / 2.0 ** q
    that = np.fft.rfft(t, 2 * n, axis=0)

    total = np.zeros_like(t)
    total[0] = np.eye(m)
    term = total.copy()
    for k in range(1, 80):
        term = _conv(term, that, n) / k
        total += term
        if row_norm(term) <= 1e-18 * row_norm(total):
            break
    else:
        raise ArithmeticError("reference Taylor series did not converge")
    total *= math.exp(-alpha / 2.0 ** q)
    for _ in range(q):
        total = _conv(total, np.fft.rfft(total, 2 * n, axis=0), n)
    return total


def reference(u: np.ndarray) -> np.ndarray:
    """(a) for scalar blocks, (b) otherwise; shape (n, m, m)."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape[1] == 1:
        return scalar_reference(u[:, 0, 0])[:, None, None]
    return block_reference(u)


def leading_block(u: np.ndarray) -> np.ndarray:
    """expm(U_0), the leading block of every exponential row."""
    return scipy.linalg.expm(np.asarray(u, dtype=np.float64)[0])


def check_row(y: np.ndarray, ref: np.ndarray, lead: np.ndarray,
              tol: float) -> tuple[float, list[str]]:
    """Norm-wise relative error of ``y`` against ``ref``, and the reasons
    ``y`` is rejected (empty when it passes).  ``tol`` bounds the error and,
    scaled by ||ref||, each property residual."""
    if y.shape != ref.shape:
        return math.inf, [f"shape {y.shape} differs from reference {ref.shape}"]
    if not np.isfinite(y).all():
        return math.inf, ["non-finite entries"]
    scale = row_norm(ref)
    err = row_norm(y - ref) / scale
    failures = []
    if err > tol:
        failures.append(f"norm-wise relative error {err:.3e} > {tol:.1e}")
    low = float(y.min())
    if low < -tol * scale:
        failures.append(f"negative entry {low:.3e}")
    top = float(y.sum(axis=(0, 2)).max())
    if top > 1.0 + tol:
        failures.append(f"row sum {top!r} exceeds 1")
    lead_err = float(np.abs(y[0] - lead).sum(axis=1).max()) / scale
    if lead_err > tol:
        failures.append(f"leading block differs from expm(U0) by {lead_err:.3e}")
    return err, failures


def parse_btt(text: str) -> np.ndarray:
    """Read a ``btt v1`` block-vector file into an (n, m, m) array."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty block-vector file")
    head = lines[0].split()
    if len(head) != 4 or head[:2] != ["btt", "v1"] \
            or not head[2].startswith("n=") or not head[3].startswith("m="):
        raise ValueError(f"bad header {lines[0]!r}")
    n, m = int(head[2][2:]), int(head[3][2:])
    values = np.array(" ".join(lines[1:]).split(), dtype=np.float64)
    if values.size != n * m * m:
        raise ValueError(f"expected {n * m * m} values, found {values.size}")
    return values.reshape(n, m, m)
