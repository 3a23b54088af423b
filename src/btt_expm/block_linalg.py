"""Dense block-vector primitives shared by all methods.

A block is a plain (m, m) ndarray.  A :class:`BlockVector` stores n of them
as a read-only (n, m, m) array and is the defining first block-row (or
block-column) of the structured matrices handled elsewhere in the package.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import error_analysis as ea
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


@dataclasses.dataclass(frozen=True, eq=False)
class SubgeneratorSpec:
    """A validated real block-vector whose triangular block-Toeplitz matrix is
    a subgenerator, with what every method and bound reads off it:
    ``alpha`` (largest diagonal decay rate), ``row_sums`` (the (b + 1, m)
    array of U_j 1 for j = 0..b, b the last nonzero block, 0 for a
    block-diagonal row) and ``tail_grid`` (``error_analysis.tail_grid`` of
    them: the table of the tail bound, the only evaluation of it that the
    selectors and methods read).
    """

    u: BlockVector
    alpha: float
    row_sums: np.ndarray
    tail_grid: tuple[np.ndarray, np.ndarray]

    @property
    def n(self) -> int:
        return self.u.n

    @property
    def m(self) -> int:
        return self.u.m

    @property
    def l_norm(self) -> float:
        """Inf-norm of the wrapped lower-triangular part that an eps-circulant
        approximation adds: the largest row sum of U_1 + ... + U_b, whose
        blocks are nonnegative, summed from block b down (0 when b = 0)."""
        return float(np.cumsum(self.row_sums[:0:-1], axis=0)[-1:].max(initial=0.0))

    def leading(self, k: int) -> "SubgeneratorSpec":
        """The SubgeneratorSpec of the first k blocks.  Its exponential row is
        the first k blocks of this one's (a leading principal submatrix of a
        triangular matrix), and dropping nonnegative blocks keeps every
        row-sum property.  Past block b it shares this one's row sums and
        table."""
        if k == self.n:
            return self
        lead = BlockVector._wrap(self.u.data[:k])
        if k >= self.row_sums.shape[0]:
            return dataclasses.replace(self, u=lead)
        return _spec(lead, self.alpha, self.row_sums[:k])

    def scaled(self, p: int) -> "SubgeneratorSpec":
        """The SubgeneratorSpec of u / 2**p.  Exact: scaling by a power of two
        preserves every sign and row-sum property, and scales the row sums
        and G (a sum of their multiples) by 2**-p."""
        if p == 0:
            return self
        f = 2.0 ** (-p)
        t, g = self.tail_grid
        return SubgeneratorSpec(u=BlockVector._wrap(self.u.data * f), alpha=self.alpha * f,
                                row_sums=self.row_sums * f, tail_grid=(t, g * f))


def _spec(u: BlockVector, alpha: float, sums: np.ndarray) -> SubgeneratorSpec:
    # blocks after the first are nonnegative, so U_j 1 = 0 only when U_j = 0;
    # b is the last nonzero block, found from the end by argmax
    nonzero = sums[:0:-1].reshape(-1) != 0
    b1 = sums.shape[0] - int(np.argmax(nonzero)) // u.m if nonzero.any() else 1
    sums = sums[:b1].copy()  # not a view, which would keep all n blocks' sums
    return SubgeneratorSpec(u=u, alpha=alpha, row_sums=sums, tail_grid=ea.tail_grid(sums))


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


def validate_subgenerator(u: BlockVector, tol: float | None = None) -> SubgeneratorSpec:
    """Check the subgenerator sign and row-sum conditions, and compute the
    row sums U_j 1 and the tail bound's table from the same sums.

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
    sums = arr[:, :, 0].copy()  # U_j 1, a column at a time: faster than sum(axis=2)
    for col in range(1, u.m):
        sums += arr[:, :, col]
    totals = sums.sum(axis=0)
    worst = float(totals.max())
    if worst > tol:
        r = int(np.argmax(totals))
        raise ValidationError(
            f"positive row sum: row {r} sums to {worst!r} (> tolerance {tol!r})")

    return _spec(u, alpha, sums)


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
