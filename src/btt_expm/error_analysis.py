"""Evaluators for the error bounds that drive parameter selection and
validation: FFT roundoff bounds for the two circulant exponentials, the
eps-circulant approximation bound, the Taylor truncation bound, and the one
tail bound, on the mass of the exponential row beyond a given block.  The
tail bound is c G(t) - L t on the row scaled by c, so validation tabulates
G once on a grid of t = log sigma (``tail_grid``), and every use is a
minimum over that one table, with no further evaluation of G: ``exp_btt``
picks the effective length and the length of each scaling level, bounds
the mass those lengths drop, picks the embedding length K and bounds the
embedding's error: the K-circulant's row is exp(U(z)) mod (z**K - 1),
whose block k is sum_{l>=0} Y_{k+lK}, so with every Y nonnegative its error
on the leading blocks is at most the row's mass beyond block K.  The Taylor
truncation bound fixes the Taylor route's degree before its first product.

The roundoff bounds use fixed constants: the unit roundoff ``_MU``, the
FFT constants ``_ZETA`` and ``_GAMMA`` of the first-order analysis, and
tau = 10 m for the relative accuracy of the small exponential kernel.

All evaluators are closed-form over-estimates; the tests check computed
errors against them on synthetic instances.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "phi_bound",
    "chi_bound",
    "eps_roundoff_bound",
    "circulant_roundoff_bound",
    "eps_approx_bound",
    "taylor_truncation_bound",
    "row_tail_log_bound",
    "tail_grid",
]

_MU = float(np.finfo(np.float64).eps)
_ZETA = 1.0 + 2.0 * math.sqrt(2.0)
_GAMMA = 4.0 * math.sqrt(2.0) + 1.0


def phi_bound(n: int, m: int, umax: float, ymax: float) -> float:
    """Roundoff amplification factor of the eps-circulant exponential: the
    computed block error is bounded by mu * m * phi / |eps|."""
    q = math.log2(n)
    return (m * n * (_ZETA + _GAMMA * q) * umax
            + (_ZETA + _GAMMA * math.sqrt(n) * q) * ymax
            + 10.0 * m)


def chi_bound(n: int, m: int, umax: float, ymax: float) -> float:
    """Roundoff factor of the plain circulant exponential: block error is
    bounded by mu * m * chi.  Always at most phi_bound (fewer terms)."""
    q = math.log2(n)
    return (m * n * _GAMMA * q * umax
            + _GAMMA * math.sqrt(n) * q * ymax
            + 10.0 * m)


def eps_roundoff_bound(phi: float, m: int, epsilon: complex) -> float:
    """Total roundoff bound mu * m * phi / |eps| for the eps-circulant path."""
    return _MU * m * phi / abs(complex(epsilon))


def circulant_roundoff_bound(chi: float, m: int) -> float:
    """Total roundoff bound mu * m * chi for the circulant path."""
    return _MU * m * chi


def eps_approx_bound(l_norm: float, epsilon: complex) -> float:
    """Approximation error of replacing the triangular matrix by its
    eps-circulant: expm1(|eps| * l_norm), improving to
    expm1((|eps| * l_norm)**2) for pure-imaginary eps (where the real part of
    the computed row is taken)."""
    epsilon = complex(epsilon)
    t = abs(epsilon) * l_norm
    if epsilon.real == 0:
        t = t * t
    return math.expm1(t)


def taylor_truncation_bound(norm: float, r: int) -> float:
    """Bound on the inf-norm of the tail sum_{k>=r} V**k / k! of the Taylor
    series of exp(V), for any V with inf-norm at most ``norm``:
    norm**r / r! / (1 - norm / (r + 1)).  Requires norm < r + 1."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if norm / (r + 1) >= 1:
        raise ValueError(
            f"norm {norm!r} must be below r + 1 = {r + 1}")
    if norm == 0:
        return 0.0
    return math.exp(r * math.log(norm) - math.lgamma(r + 1)) / (1.0 - norm / (r + 1))


def row_tail_log_bound(row_sums: np.ndarray, L: int, log_sigma):
    """Natural log of a bound on the mass max_i (sum_{k>=L} Y_k 1)_i of the
    exponential row beyond block L, at sigma = exp(log_sigma) > 1: a float
    for one log sigma, an array for an array of them.

    ``row_sums[j]`` is U_j 1 for j = 0..b, where b is the last nonzero block.
    Extended by zero blocks, the row has sum_k Y_k sigma**k = exp(U(sigma))
    with U(sigma) = sum_j U_j sigma**j Metzler, so exp(U(sigma)) 1 is at most
    e**(max row sum of U(sigma)) 1, and every Y_k is nonnegative:
    log mass <= -L log_sigma + max_i sum_j (U_j 1)_i sigma**j.  Valid for
    log_sigma in (0, 700 / b], where sigma**b cannot overflow.  sigma**j is
    taken as sigma**(Q r) sigma**q for j = Q r + q, Q ~ sqrt(b + 1), so a
    point costs about 2 sqrt(b) exponentials and O(b m) multiply-adds.
    """
    t = np.asarray(log_sigma, dtype=float)
    b1, m = row_sums.shape
    if not (np.all(t > 0) and np.all(t <= 700.0 / max(b1 - 1, 1))):
        raise ValueError(f"log_sigma must lie in (0, 700/b], got {t} with b = {b1 - 1}")
    Q = math.isqrt(b1 - 1) + 1
    R = -(-b1 // Q)
    coef = np.zeros((R * Q, m))
    coef[:b1] = row_sums
    ts = t.reshape(-1, 1)
    # every factor is at most e**700, and U_0 1, the one negative term, is
    # multiplied by e**0, so an overflow gives inf and never nan
    with np.errstate(over="ignore"):
        giant = np.exp(ts * (Q * np.arange(R))) @ coef.reshape(R, Q * m)
        baby = np.exp(ts * np.arange(Q))[:, None, :]
        growth = (baby @ giant.reshape(-1, Q, m))[:, 0, :].max(axis=1)
    out = growth - L * ts[:, 0]
    return float(out[0]) if t.ndim == 0 else out


# the log sigma grid of the tail bound, in units of 700/b, the end of its
# range: log-spaced, because the minima lie at small log sigma, with 6 * 95
# steps of 2.9% each, fine enough that no query needs points of its own.
# Any log sigma gives a valid bound, so every grid minimum over-estimates
# safely.
_COARSE = np.geomspace(1e-7, 1.0, 571)


def tail_grid(row_sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table (t, G(t)) of the tail bound: points t = log sigma and
    G(t) = ``row_tail_log_bound(row_sums, 0, t)`` at them.  At scale c and
    length L the bound is c G(t) - L t, so one table serves every scale and
    length; scaling the row sums by a power of two scales every finite G
    exactly."""
    t = _COARSE * (700.0 / max(row_sums.shape[0] - 1, 1))
    return t, row_tail_log_bound(row_sums, 0, t)
