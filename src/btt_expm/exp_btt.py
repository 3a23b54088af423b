"""Top-level methods for the exponential of a block-triangular block-Toeplitz
subgenerator.

Four routes, all returning the first block-row of the exponential:

* ``exp_btt_eps``: approximate by the eps-circulant exponential; a pure
  imaginary eps makes the error quadratic in |eps| after taking real parts.
* ``exp_btt_eps_averaged``: average the real parts over k rotated values of
  eps, cancelling the error terms below degree 2k; the average is the row
  of one eps-circulant of k times the length.
* ``exp_btt_embedding``: embed into a K-circulant and keep the leading blocks;
  the error is at most the row's mass beyond block K.
* ``exp_btt_taylor``: shifted Taylor series, summing only nonnegative terms,
  to a degree d fixed in advance by its remainder bound, evaluated by
  Paterson-Stockmeyer in about 2 sqrt(d) structured products.

Every route runs one pipeline: validate -> scale -> length schedule -> pad
-> core -> squarings -> zero-filled tail.  A route validates its parameters
and supplies its core; ``_run`` does every other stage, once for all four,
and is the one place that decides n', the scaling, the lengths and the
padding.  Past that, the kernels take (N, m, m) arrays and leave any
further zero-padding to their transforms: the circulant's, from L_0 to its
length, and each squaring's, from the row to L_j.

* scale: the input is divided by 2**p so the decay rate is at most 1.
* length schedule: the leading n' blocks of exp(T_n) are exp(T_n') exactly,
  so each route works on the leading n' blocks only, and the row of
  exp(T / 2**(p - j)) at scaling level j needs fewer still.  The spec's
  table of the a-priori tail bound (``tail_grid``, built in validation)
  fixes n' and the power-of-two lengths L_0 <= ... <= L_p = pad(n')
  (``_schedule``), picks the embedding length (``select_embedding_K``) and
  bounds the embedding's error (``embedding_tail_bound``).
* pad: the leading L_0 blocks are zero-padded to L_0 (the padded
  exponential contains the original one as its leading principal part).
* core: the route's own computation on the scaled, padded row, at L_0.
* squarings: squaring j squares the row at transform length 2 L_j and
  keeps L_j blocks.  ``"truncation"`` bounds the mass that n' and the
  shorter levels drop.
* tail: the leading n' blocks are returned in a row of n blocks whose
  remaining blocks are zero and, for large rows, never written.
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
import mmap

import numpy as np

from . import error_analysis as ea
from . import structured_mul
from .block_linalg import BlockVector, SubgeneratorSpec
from .errors import NumericalError
from .exp_circulant import exp_circulant
from .structured_mul import btt_times_btt

__all__ = [
    "MethodConfig",
    "ExpResult",
    "scaling_exponent",
    "repeated_squaring",
    "exp_btt_eps",
    "exp_btt_eps_averaged",
    "exp_btt_embedding",
    "exp_btt_taylor",
    "select_epsilon",
    "select_embedding_K",
    "embedding_tail_bound",
    "compute_exponential",
]

_MU = float(np.finfo(np.float64).eps)

METHODS = ("eps_circulant", "eps_averaged", "embedding", "taylor")

_REQUIRED_FIELDS = {
    "eps_circulant": ("epsilon",),
    "eps_averaged": ("theta_mag", "k"),
    "embedding": ("K",),
    "taylor": ("taylor_tol", "max_terms"),
}


@dataclasses.dataclass(frozen=True)
class MethodConfig:
    """Method selector plus exactly the parameters that method needs.

    ``use_scaling=False`` applies to the first three methods; the Taylor
    route always scales and rejects it.
    """

    method: str
    epsilon: complex | None = None
    theta_mag: float | None = None
    k: int | None = None
    K: int | None = None
    taylor_tol: float | None = None
    max_terms: int | None = None
    use_scaling: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        required = _REQUIRED_FIELDS[self.method]
        for name in ("epsilon", "theta_mag", "k", "K", "taylor_tol", "max_terms"):
            value = getattr(self, name)
            if name in required and value is None:
                raise ValueError(f"method {self.method!r} requires {name}")
            if name not in required and value is not None:
                raise ValueError(f"method {self.method!r} does not take {name}")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.method == "taylor" and not self.use_scaling:
            raise ValueError("method 'taylor' always scales: it takes neither "
                             "use_scaling=False nor --no-scaling")


@dataclasses.dataclass(frozen=True)
class ExpResult:
    """Computed first block-row plus provenance: which method, what scaling
    exponent was applied, the effective length n' the method ran at (blocks
    from n' on are zero), and the predicted error bounds, always among them
    ``"truncation"``, the bound on the row mass beyond n' plus the mass the
    scaling levels run below pad(n') blocks drop from the leading n' blocks
    (0.0 when n' = n and every level runs at pad(n))."""

    y: BlockVector
    method_used: MethodConfig
    scaling_p: int
    n_eff: int
    predicted_bounds: dict[str, float]


def scaling_exponent(spec: SubgeneratorSpec) -> int:
    """p = floor(log2(alpha)) + 1, guaranteeing alpha / 2**p <= 1; zero when
    alpha is already at most 1 (nothing to scale down)."""
    if spec.alpha <= 1.0:
        return 0
    return int(math.floor(math.log2(spec.alpha))) + 1


def repeated_squaring(y: np.ndarray, p: int,
                      lengths: list[int] | None = None) -> np.ndarray:
    """Square the triangular block-Toeplitz matrix p times (first-row form,
    an (n, m, m) stack).  With ``lengths``, squaring j keeps ``lengths[j]``
    blocks of the square, none below the row's length."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    for j in range(p):
        y = btt_times_btt(y, y, None if lengths is None else lengths[j])
    return y


def _next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def _zero_row(n: int, m: int) -> np.ndarray:
    # fresh anonymous pages read as zero and take no memory until written,
    # where np.zeros may reuse freed heap memory and write every zero; a row
    # below one page has nothing to save and keeps np.zeros
    nbytes = n * m * m * 8
    if nbytes < mmap.PAGESIZE:
        return np.zeros((n, m, m))
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=np.float64).reshape(n, m, m)


def _finish(y: np.ndarray, lengths: list[int], n_eff: int, n: int) -> BlockVector:
    # square at the schedule's lengths, ending at pad(n_eff), then keep the
    # leading n_eff blocks, which never involve the padding blocks of a
    # triangular product; blocks n_eff .. n - 1 of the returned row are zero
    out = repeated_squaring(y, len(lengths), lengths)
    if out.shape[0] == n:
        return BlockVector._wrap(out)
    row = _zero_row(n, out.shape[1])
    row[:n_eff] = out[:n_eff]
    return BlockVector._wrap(row)


def _run(spec: SubgeneratorSpec, config: MethodConfig, core) -> ExpResult:
    """The pipeline every method runs: scale by 2**-p (p = 0 without
    ``config.use_scaling``), the schedule (n', L_0..L_p), pad, the method's
    ``core(sspec, padded) -> (row, bounds)``, p squarings at L_1..L_p and
    the zero tail.  The core takes its bounds on ``sspec``, the scaled
    leading n' blocks, and computes on ``padded``, a fresh array of their
    first L_0 blocks (all n' when L_0 = pad(n')) zero-padded to L_0."""
    p = scaling_exponent(spec) if config.use_scaling else 0
    n_eff, lengths, truncation = _schedule(spec, p)
    sspec = spec.leading(n_eff).scaled(p)
    padded = np.zeros((lengths[0],) + sspec.u.data.shape[1:])
    padded[:sspec.n] = sspec.u.data[:lengths[0]]
    row, bounds = core(sspec, padded)
    bounds["truncation"] = truncation
    return ExpResult(y=_finish(row, lengths[1:], n_eff, spec.n), method_used=config,
                     scaling_p=p, n_eff=n_eff, predicted_bounds=bounds)


def _eps_core(k: int, log_eps: complex, approx_name: str, bound_eps: complex):
    """Core of both eps methods: the real part of the row of the
    (e**log_eps)-circulant of k times the rows' length, with the
    approximation bound (under ``approx_name``) and the roundoff bound taken
    at ``bound_eps``.  The averaged method's k values eps_j = i**(1/k) *
    w_k**j * theta give log_eps = k log(theta) + i pi/2: the roots of
    z**length = eps_j over all j are the roots of z**(k length) =
    i theta**k, so that row is the mean of the k eps_j-circulant rows.  phi
    is taken at pad(n'), the length the squarings end at, from the scaled
    row, whose max entry the zero padding does not change.

    The rows are computed at 2 L_0 blocks (at most pad(n')), keeping L_0:
    unscaling block r by theta**-r amplifies its roundoff by
    |eps|**(-r / length), at most |eps|**(-1/2) on the kept blocks."""

    def core(sspec, padded):
        size = min(2 * padded.shape[0], _next_pow2(sspec.n))
        row = exp_circulant(padded, k * size, log_eps).real.copy()
        phi = ea.phi_bound(_next_pow2(sspec.n), sspec.m,
                           float(np.abs(sspec.u.data).max()), 1.0)
        bounds = {approx_name: ea.eps_approx_bound(sspec.l_norm, bound_eps),
                  "roundoff": ea.eps_roundoff_bound(phi, sspec.m, bound_eps)}
        return row, bounds

    return core


def exp_btt_eps(spec: SubgeneratorSpec, epsilon: complex, use_scaling: bool = True,
                *, allow_large_eps: bool = False) -> ExpResult:
    """Approximate the exponential row via the eps-circulant exponential.

    Requires ``0 < |epsilon| < 1`` unless ``allow_large_eps`` is set.  The
    real part of the computed row is returned for any epsilon: the exact row
    is real, and for pure-imaginary epsilon dropping the imaginary part is
    what makes the approximation error quadratic in |epsilon|.
    """
    epsilon = complex(epsilon)
    if not cmath.isfinite(epsilon) or epsilon == 0:
        raise ValueError(f"epsilon must be finite and nonzero, got {epsilon!r}")
    if not allow_large_eps and abs(epsilon) >= 1:
        raise ValueError(f"|epsilon| = {abs(epsilon)!r} must be below 1")

    log_eps = complex(math.log(abs(epsilon)), math.atan2(epsilon.imag, epsilon.real))
    config = MethodConfig("eps_circulant", epsilon=epsilon, use_scaling=use_scaling)
    return _run(spec, config, _eps_core(1, log_eps, "approx", epsilon))


def exp_btt_eps_averaged(spec: SubgeneratorSpec, theta_mag: float, k: int,
                         use_scaling: bool = True, *,
                         allow_large_eps: bool = False) -> ExpResult:
    """Average the real parts of the eps-circulant rows over the k values
    eps_j = i**(1/k) * w_k**j * theta, cancelling error terms below degree 2k.
    """
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    if not 0 < theta_mag < math.inf:
        raise ValueError(f"theta_mag must be positive and finite, got {theta_mag!r}")
    if not allow_large_eps and not theta_mag < 1:
        raise ValueError(f"theta_mag = {theta_mag!r} must be below 1")
    k = int(k)
    config = MethodConfig("eps_averaged", theta_mag=theta_mag, k=k, use_scaling=use_scaling)
    log_eps = complex(k * math.log(theta_mag), math.pi / 2)
    return _run(spec, config, _eps_core(k, log_eps, "single_point_approx", 1j * theta_mag))


def exp_btt_embedding(spec: SubgeneratorSpec, K: int,
                      use_scaling: bool = True) -> ExpResult:
    """Exponential row via embedding into a block-circulant of K blocks
    (rounded up to a power of two); the leading n blocks over-estimate the
    true ones by at most the row's mass beyond block K, which
    ``embedding_tail_bound`` bounds.

    On the leading L_0 blocks the core runs at, the circulant keeps the
    caller's oversampling: it has K * L_0 / pad(n) blocks, and the reported
    tail bound is taken there; the roundoff bound at K * pad(n') / pad(n).
    The result reports K rounded up to a power of two, so passing
    ``method_used`` back reproduces the result.
    """
    if K < spec.n:
        raise ValueError(f"K = {K} must be at least n = {spec.n}")
    K = _next_pow2(K)

    def core(sspec, padded):
        L0, pad_n = padded.shape[0], _next_pow2(spec.n)
        head = sspec.leading(min(L0, sspec.n))
        # the transform zero-pads the L_0 blocks to the circulant's length
        row = exp_circulant(padded, K * L0 // pad_n)
        row[head.n:] = 0.0
        # the circulant's row is the scaled row zero-padded: same max entry
        chi = ea.chi_bound(K * _next_pow2(sspec.n) // pad_n, sspec.m,
                           float(np.abs(sspec.u.data).max()), 1.0)
        bounds = {"tail": embedding_tail_bound(head, K * L0 // pad_n),
                  "roundoff": ea.circulant_roundoff_bound(chi, sspec.m)}
        return row, bounds

    config = MethodConfig("embedding", K=K, use_scaling=use_scaling)
    return _run(spec, config, core)


def exp_btt_taylor(spec: SubgeneratorSpec, tol: float, max_terms: int = 200) -> ExpResult:
    """Exponential row via the shifted Taylor series.

    The scaled leading block is shifted by alpha*I (alpha of the scaled
    row) so the whole series is nonnegative.  The scaling exponent is
    ``scaling_exponent(spec)``: the shifted row has inf-norm at most alpha,
    because every row of U sums to at most 0.  The degree d is fixed before
    the first product: the least d at which ``taylor_truncation_bound`` puts
    the dropped terms of degree above d at most ``tol`` (the shifted sum has
    norm at least 1, so this is relative too), and the method fails before
    any product when d exceeds ``max_terms``.  The bound, times exp(-alpha),
    is reported as ``"series"``.  The polynomial is evaluated by Paterson
    and Stockmeyer's scheme in V**q, q = ceil(sqrt(d)), in (q - 1) +
    (d - 1) // q products where the termwise sum takes d - 1.  V and V**q
    are transformed once each, as ``btt_times_btt`` would, so each product
    takes one forward and one inverse transform, and V**2 the inverse only.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_terms < 2:
        raise ValueError("max_terms must be at least 2")

    def core(sspec, v):
        alpha = sspec.alpha
        for d in range(1, max_terms + 1):
            dropped = ea.taylor_truncation_bound(alpha, d + 1)
            if dropped <= tol:
                break
        else:
            raise NumericalError(
                f"Taylor series needs more than {max_terms} terms for tol={tol!r}")
        eye = np.eye(sspec.m)
        v[0] += alpha * eye
        # Paterson-Stockmeyer: the powers V..V**q, then r = B_top and
        # r = V**q r + B_i for i = top - 1 .. 0, where B_i = sum_j V**j /
        # (q i + j)! over j < q, and j <= d - q top in B_top; every power,
        # block and partial r is a nonnegative row
        q = math.isqrt(d - 1) + 1
        top = (d - 1) // q
        size, transform = 2 * v.shape[0], structured_mul._transform_stack
        v_hat = transform(v, size, real=True)
        powers = [v]
        for _ in range(q - 1):
            powers.append(btt_times_btt(v, powers[-1], u_hat=v_hat))
        vq_hat = transform(powers[-1], size, real=True) if top else None
        r = np.zeros_like(v)
        for i in range(top, -1, -1):
            if i < top:
                r = btt_times_btt(powers[-1], r, u_hat=vq_hat)
            for k in range(q * i + 1, d + 1 if i == top else q * i + q):
                r += powers[k - q * i - 1] * (1 / math.factorial(k))
            r[0] += eye * (1 / math.factorial(q * i))
        return r * math.exp(-alpha), {"series": math.exp(-alpha) * dropped}

    config = MethodConfig("taylor", taylor_tol=tol, max_terms=max_terms)
    return _run(spec, config, core)


def select_epsilon(spec: SubgeneratorSpec, imaginary: bool = True) -> complex:
    """Magnitude of eps balancing approximation error against roundoff, using
    the substochastic bound 1 for the unknown output norms.  Pass the scaled
    instance (post-scaling norms are what the balance uses).  Returns
    i*|eps| when ``imaginary``.
    """
    m, l_norm = spec.m, spec.l_norm
    if l_norm == 0:
        # block-diagonal case: any eps is exact, pick a tiny default
        mag = _MU ** (1.0 / 3.0)
    else:
        phi = ea.phi_bound(_next_pow2(spec.n), m, float(np.abs(spec.u.data).max()), 1.0)
        if imaginary:
            mag = (m * _MU * phi / l_norm ** 2) ** (1.0 / 3.0)
        else:
            mag = (m * _MU * phi / l_norm) ** 0.5
        # tiny l_norm can push the balance past 1; anything near 1 already
        # makes the approximation error negligible, so clamp into the range
        mag = min(mag, 0.9)
    return 1j * mag if imaginary else complex(mag)


def _schedule(spec: SubgeneratorSpec, p: int) -> tuple[int, list[int], float]:
    """n', the lengths L_0..L_p of the scaling levels (level j is the row of
    exp(T / 2**(p - j))), and the bound on the mass they drop from the
    leading n' blocks.  L_j is the least power of two at which the bound on
    the 2**-(p - j)-scaled row meets T_j = (mu/8) e**s_min 2**-(p - j), made
    non-decreasing and capped at L_p = pad(n'); n' is level p's, capped at n.
    The rows computed are entrywise below the true ones, of norm at most 1,
    so the mass missing after level j is E_j <= 2 E_(j-1) + drop_j, drop_j
    the bound at L_j (0 at L_j = L_p: those blocks never reach the leading
    n').  The bound returned is E_p plus the bound at n' (0 when n' = n)."""
    n, row_sums = spec.n, spec.row_sums
    if row_sums.shape[0] == 1:
        return 1, [1] * (p + 1), 0.0  # block-diagonal: every later block is zero
    scale = 2.0 ** np.arange(-p, 1)[:, None]
    log_target = math.log(_MU / 8.0) + float(row_sums.sum(axis=0).min()) + np.log(scale)
    # the table is fine enough for every level's minimum, level p's (which
    # fixes n') included, so no level evaluates points of its own
    t, g = spec.tail_grid
    needs = ((scale * g - log_target) / t).min(axis=1)
    n_eff = min(_next_pow2(math.ceil(needs[-1])), n) if needs[-1] < n else n
    top = _next_pow2(n_eff)
    lengths = list(itertools.accumulate(
        (_next_pow2(math.ceil(need)) if need < top else top for need in needs), max))
    drops = np.exp((scale * g - np.array(lengths)[:, None] * t).min(axis=1))
    missed = 0.0
    for L, drop in zip(lengths, drops):
        missed = 2.0 * missed + (float(drop) if L < top else 0.0)
    if n_eff < n:
        missed += math.exp(float((g - n_eff * t).min()))
    return n_eff, lengths, missed


def embedding_tail_bound(spec: SubgeneratorSpec, K: int) -> float:
    """Bound on the error of the K-circulant embedding on the leading blocks:
    the row's mass beyond block K, ``row_tail_log_bound`` minimized over
    the log sigma of the spec's ``tail_grid``.  0.0 for a block-diagonal
    row, where the embedding is exact.  Pass the instance the circulant is
    built from (scaled, leading L_0 blocks)."""
    if K < spec.n:
        raise ValueError(f"K = {K} must be at least n = {spec.n}")
    if spec.row_sums.shape[0] == 1:
        return 0.0
    t, g = spec.tail_grid
    return math.exp(float((g - K * t).min()))


def select_embedding_K(spec: SubgeneratorSpec, target_error: float) -> int:
    """Smallest power-of-two embedding length, at least n, at which the tail
    bound of ``embedding_tail_bound`` is at most ``target_error``: the least
    length, min over log sigma of (bound at L = 0 - log target) / log sigma
    on the spec's ``tail_grid``, rounded up.  Pass the scaled instance.  The
    embedding reports its tail at K L_0 / pad(n) on the scaled leading L_0
    blocks, which meets any target of at least mu/8 too: when L_0 = pad(n)
    it is the bound at K, and otherwise the scaled row's bound at L_0 is at
    most mu/8."""
    if not target_error > 0:
        raise ValueError("target_error must be positive")
    if spec.row_sums.shape[0] == 1:
        return _next_pow2(spec.n)
    log_target = math.log(target_error)
    t, g = spec.tail_grid
    return _next_pow2(max(math.ceil(float(((g - log_target) / t).min())), spec.n))


def compute_exponential(spec: SubgeneratorSpec, config: MethodConfig, *,
                        allow_large_eps: bool = False) -> ExpResult:
    """Dispatch a MethodConfig to the matching method."""
    if config.method == "eps_circulant":
        return exp_btt_eps(spec, config.epsilon, config.use_scaling,
                           allow_large_eps=allow_large_eps)
    if config.method == "eps_averaged":
        return exp_btt_eps_averaged(spec, config.theta_mag, config.k,
                                    config.use_scaling,
                                    allow_large_eps=allow_large_eps)
    if config.method == "embedding":
        return exp_btt_embedding(spec, config.K, config.use_scaling)
    return exp_btt_taylor(spec, config.taylor_tol, config.max_terms)
