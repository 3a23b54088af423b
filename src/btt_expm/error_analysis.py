"""Evaluators for the error bounds that drive parameter selection and
validation: FFT roundoff bounds for the two circulant exponentials, the
eps-circulant approximation bound, the Taylor truncation bound, and the one
tail bound, on the mass of the exponential row beyond a given block.  The
tail bound, minimized over log sigma in ``exp_btt``, picks the effective
length, picks the embedding length K and bounds the embedding's error: the
K-circulant's row is exp(U(z)) mod (z**K - 1), whose block k is
sum_{l>=0} Y_{k+lK}, so with every Y nonnegative its error on the leading
blocks is at most the row's mass beyond block K.

All evaluators are closed-form over-estimates; the tests check computed
errors against them on synthetic instances.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .block_linalg import SubgeneratorSpec, _row_norm

__all__ = [
    "RoundoffConstants",
    "default_constants",
    "phi_bound",
    "chi_bound",
    "eps_roundoff_bound",
    "circulant_roundoff_bound",
    "eps_approx_bound",
    "taylor_truncation_bound",
    "row_tail_log_bound",
]

_SQRT2 = math.sqrt(2.0)
_MU = float(np.finfo(np.float64).eps)


@dataclasses.dataclass(frozen=True)
class RoundoffConstants:
    """Constants of the first-order FFT roundoff analysis.

    ``tau`` is the relative accuracy constant of the small matrix
    exponential kernel; it depends on that algorithm and is caller-supplied
    (default heuristic: 10*m).
    """

    tau: float
    mu: float = _MU
    zeta: float = 1.0 + 2.0 * _SQRT2
    gamma: float = 4.0 * _SQRT2 + 1.0
    beta: float = 2.0 * _SQRT2


def default_constants(m: int, mu: float = _MU) -> RoundoffConstants:
    return RoundoffConstants(tau=10.0 * m, mu=mu)


def phi_bound(n: int, m: int, umax: float, ymax: float,
              consts: RoundoffConstants | None = None) -> float:
    """Roundoff amplification factor of the eps-circulant exponential: the
    computed block error is bounded by mu * m * phi / |eps|."""
    if consts is None:
        consts = default_constants(m)
    q = math.log2(n)
    return (m * n * (consts.zeta + consts.gamma * q) * umax
            + (consts.zeta + consts.gamma * math.sqrt(n) * q) * ymax
            + consts.tau)


def chi_bound(n: int, m: int, umax: float, ymax: float,
              consts: RoundoffConstants | None = None) -> float:
    """Roundoff factor of the plain circulant exponential: block error is
    bounded by mu * m * chi.  Always at most phi_bound (fewer terms)."""
    if consts is None:
        consts = default_constants(m)
    q = math.log2(n)
    return (m * n * consts.gamma * q * umax
            + consts.gamma * math.sqrt(n) * q * ymax
            + consts.tau)


def eps_roundoff_bound(phi: float, m: int, epsilon: complex, mu: float = _MU) -> float:
    """Total roundoff bound mu * m * phi / |eps| for the eps-circulant path."""
    return mu * m * phi / abs(complex(epsilon))


def circulant_roundoff_bound(chi: float, m: int, mu: float = _MU) -> float:
    """Total roundoff bound mu * m * chi for the circulant path."""
    return mu * m * chi


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


def taylor_truncation_bound(spec: SubgeneratorSpec, r: int) -> float:
    """Norm bound on the tail of the shifted Taylor series truncated after the
    term of degree r - 1, using the inf-norm of the shifted matrix in place of
    its spectral radius (a valid over-estimate)."""
    if r < 1:
        raise ValueError("r must be at least 1")
    shifted = spec.u.data.copy()
    shifted[0] += spec.alpha * np.eye(spec.m)
    t = _row_norm(shifted)
    if t / (r + 1) >= 1:
        raise ValueError(
            f"norm {t!r} of the shifted matrix must be below r + 1 = {r + 1}")
    if t == 0:
        return 0.0
    return math.exp(r * math.log(t) - math.lgamma(r + 1)) / (1.0 - t / (r + 1))


def row_tail_log_bound(row_sums: np.ndarray, L: int, log_sigma: float) -> float:
    """Natural log of a bound on the mass max_i (sum_{k>=L} Y_k 1)_i of the
    exponential row beyond block L, at sigma = exp(log_sigma) > 1.

    ``row_sums[j]`` is U_j 1 for j = 0..b, where b is the last nonzero block.
    Extended by zero blocks, the row has sum_k Y_k sigma**k = exp(U(sigma))
    with U(sigma) = sum_j U_j sigma**j Metzler, so exp(U(sigma)) 1 is at most
    e**(max row sum of U(sigma)) 1, and every Y_k is nonnegative:
    log mass <= -L log_sigma + max_i sum_j (U_j 1)_i sigma**j.  Valid for
    log_sigma in (0, 700 / b], where sigma**b cannot overflow; O(b m).
    """
    t = float(log_sigma)
    b = row_sums.shape[0] - 1
    if not 0 < t <= 700.0 / max(b, 1):
        raise ValueError(f"log_sigma must lie in (0, 700/b], got {t} with b = {b}")
    with np.errstate(over="ignore"):
        growth = float((np.exp(t * np.arange(b + 1)) @ row_sums).max())
    return growth - L * t
