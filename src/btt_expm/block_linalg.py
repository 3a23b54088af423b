"""Dense block-vector primitives shared by all methods.

A block is a plain (m, m) ndarray.  A :class:`BlockVector` stores n of them
as a read-only (n, m, m) array and is the defining first block-row (or
block-column) of the structured matrices handled elsewhere in the package.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ValidationError

__all__ = [
    "BlockVector",
    "SubgeneratorSpec",
    "ErrorReport",
    "validate_subgenerator",
    "error_report",
]


class BlockVector:
    """Ordered sequence of n dense m-by-m blocks, immutable after construction."""

    __slots__ = ("_data",)

    def __init__(self, blocks):
        arr = np.asarray(blocks)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected an (n, m, m) array of blocks, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("need n >= 1 blocks of order m >= 1")
        dtype = np.complex128 if arr.dtype.kind == "c" else np.float64
        arr = arr.astype(dtype, copy=True)
        if not np.isfinite(arr).all():
            raise ValueError("blocks contain NaN or Inf entries")
        arr.setflags(write=False)
        self._data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "BlockVector":
        # trusted fast path: takes ownership, skips validation
        if not arr.flags.owndata or not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        obj = cls.__new__(cls)
        obj._data = arr
        return obj

    @property
    def data(self) -> np.ndarray:
        """Read-only (n, m, m) view of the blocks."""
        return self._data

    @property
    def n(self) -> int:
        return self._data.shape[0]

    @property
    def m(self) -> int:
        return self._data.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def is_real(self) -> bool:
        return self._data.dtype.kind == "f"

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        return self._data[i]

    def __iter__(self):
        return iter(self._data)

    def __repr__(self) -> str:
        return f"BlockVector(n={self.n}, m={self.m}, dtype={self._data.dtype})"


@dataclasses.dataclass(frozen=True)
class SubgeneratorSpec:
    """A validated real block-vector whose triangular block-Toeplitz matrix is
    a subgenerator, together with the two scalars every method needs:
    ``alpha`` (largest diagonal decay rate) and ``l_norm`` (inf-norm of the
    wrapped lower-triangular part that an eps-circulant approximation adds).
    """

    u: BlockVector
    alpha: float
    l_norm: float

    @property
    def n(self) -> int:
        return self.u.n

    @property
    def m(self) -> int:
        return self.u.m

    def leading(self, k: int) -> "SubgeneratorSpec":
        """The SubgeneratorSpec of the first k blocks.  Its exponential row is
        the first k blocks of this one's (a leading principal submatrix of a
        triangular matrix), and dropping nonnegative blocks keeps every
        row-sum property."""
        if k == self.n:
            return self
        lead = self.u.data[:k]
        return SubgeneratorSpec(u=BlockVector._wrap(lead), alpha=self.alpha,
                                l_norm=_l_norm(lead))

    def scaled(self, p: int) -> "SubgeneratorSpec":
        """The SubgeneratorSpec of u / 2**p.  Exact: scaling by a power of two
        preserves every sign and row-sum property."""
        if p == 0:
            return self
        f = 2.0 ** (-p)
        return SubgeneratorSpec(
            u=BlockVector._wrap(self.u.data * f),
            alpha=self.alpha * f,
            l_norm=self.l_norm * f,
        )


@dataclasses.dataclass(frozen=True)
class ErrorReport:
    """The four error metrics comparing two block-rows.

    ``cw_rel`` skips entries whose reference value is exactly zero;
    ``cw_rel_skipped`` counts how many were skipped.
    """

    cw_abs: float
    cw_rel: float
    nw_abs: float
    nw_rel: float
    cw_rel_skipped: int = 0


def _row_norm(arr: np.ndarray) -> float:
    # inf-norm of the concatenated block-row [A_0, ..., A_{n-1}]
    return float(np.abs(arr).sum(axis=(0, 2)).max())


def _l_norm(arr: np.ndarray) -> float:
    # max row sum over the stacked tails [U_{n-i}, ..., U_{n-1}], i = 1..n-1
    if arr.shape[0] == 1:
        return 0.0
    return float(np.cumsum(np.abs(arr[:0:-1]).sum(axis=2), axis=0).max())


def validate_subgenerator(u: BlockVector, tol: float | None = None) -> SubgeneratorSpec:
    """Check the subgenerator sign and row-sum conditions and compute the
    derived scalars.

    The diagonal of the leading block must be negative, every other entry
    nonnegative, and each full block-row must sum to at most ``tol``
    (default ``1e-12 * alpha``, absorbing file round-trip noise).
    """
    if not u.is_real:
        raise ValidationError("subgenerator blocks must be real-valued")
    arr = u.data
    n = u.n

    u0 = arr[0]
    diag = np.diagonal(u0)
    bad = np.nonzero(diag >= 0)[0]
    if bad.size:
        j = int(bad[0])
        raise ValidationError(
            f"nonnegative diagonal: leading block entry ({j},{j}) = {diag[j]!r} must be negative")

    off = u0.copy()
    np.fill_diagonal(off, 0.0)
    if (off < 0).any():
        r, c = np.argwhere(off < 0)[0]
        raise ValidationError(
            f"negative off-diagonal: leading block entry ({r},{c}) = {u0[r, c]!r}")
    if n > 1 and (arr[1:] < 0).any():
        i, r, c = np.argwhere(arr[1:] < 0)[0]
        raise ValidationError(
            f"negative off-diagonal: block {i + 1} entry ({r},{c}) = {arr[i + 1, r, c]!r}")

    alpha = float(-diag.min())
    if tol is None:
        tol = 1e-12 * alpha
    row_sums = arr.sum(axis=(0, 2))
    worst = float(row_sums.max())
    if worst > tol:
        r = int(np.argmax(row_sums))
        raise ValidationError(
            f"positive row sum: row {r} sums to {worst!r} (> tolerance {tol!r})")

    return SubgeneratorSpec(u=u, alpha=alpha, l_norm=_l_norm(arr))


def error_report(computed: BlockVector, reference: BlockVector) -> ErrorReport:
    """Component-wise and norm-wise, absolute and relative errors of
    ``computed`` against ``reference``."""
    if computed.n != reference.n or computed.m != reference.m:
        raise ValueError(
            f"shape mismatch: computed (n={computed.n}, m={computed.m}) vs "
            f"reference (n={reference.n}, m={reference.m})")
    diff = np.abs(computed.data - reference.data)
    ref = np.abs(reference.data)

    cw_abs = float(diff.max())
    mask = ref != 0
    skipped = int(ref.size - np.count_nonzero(mask))
    cw_rel = float((diff[mask] / ref[mask]).max()) if mask.any() else 0.0

    nw_abs = _row_norm(computed.data - reference.data)
    ref_norm = _row_norm(reference.data)
    if ref_norm > 0:
        nw_rel = nw_abs / ref_norm
    else:
        nw_rel = 0.0 if nw_abs == 0 else float("inf")

    return ErrorReport(cw_abs=cw_abs, cw_rel=cw_rel, nw_abs=nw_abs,
                       nw_rel=nw_rel, cw_rel_skipped=skipped)
