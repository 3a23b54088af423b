"""Text file format for block vectors.

Layout::

    btt v1 n=<n> m=<m>
    <m numbers>          # first row of block 0
    ...                  # n*m data lines in total, whitespace-separated

Lines starting with '#' are comments and are ignored by the parser; result
files use them to carry method metadata while still round-tripping as plain
block vectors.  Numbers are written with 17 significant digits, which
round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable

import numpy as np

from .block_linalg import BlockVector
from .errors import ParseError

__all__ = ["format_block_vector", "parse_block_vector",
           "write_block_vector", "read_block_vector"]

_HEADER_RE = re.compile(r"^btt v1 n=(\d+) m=(\d+)$")


def format_block_vector(v: BlockVector, comments: Iterable[str] = ()) -> str:
    if not v.is_real:
        raise ValueError("only real block vectors are serialized")
    # one % over all values: a row template of m fields, one row per data line
    row = " ".join(["%.17g"] * v.m)
    body = "\n".join([row] * (v.n * v.m)) % tuple(v.data.ravel().tolist())
    lines = [f"btt v1 n={v.n} m={v.m}", body]
    lines.extend(f"# {c}" for c in comments)
    return "\n".join(lines) + "\n"


def _parse_values(data_lines: list[str], m: int) -> np.ndarray | None:
    # one split over all lines, with a separator token between lines: the
    # separators land every m + 1 tokens exactly when every line holds m
    # values (a value equal to the separator fails the float conversion)
    tokens = " ; ".join(data_lines).split()
    seps = len(data_lines) - 1
    if len(tokens) != seps + len(data_lines) * m or tokens[m::m + 1] != [";"] * seps:
        return None
    del tokens[m::m + 1]
    try:
        return np.array(tokens, dtype=np.float64)
    except ValueError:
        return None


def _parse_lines(data_lines: list[str], m: int) -> np.ndarray:
    # line by line, for the error message that names the bad line
    rows = []
    for idx, ln in enumerate(data_lines):
        parts = ln.split()
        if len(parts) != m:
            raise ParseError(f"data line {idx + 1} has {len(parts)} values, expected {m}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"data line {idx + 1}: {exc}") from exc
    return np.asarray(rows)


def parse_block_vector(text: str) -> BlockVector:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty block-vector file")
    match = _HEADER_RE.match(lines[0])
    if not match:
        raise ParseError(f"bad header {lines[0]!r}; expected 'btt v1 n=<n> m=<m>'")
    n, m = int(match.group(1)), int(match.group(2))
    if n < 1 or m < 1:
        raise ParseError(f"header requires n >= 1 and m >= 1, got n={n} m={m}")
    data_lines = lines[1:]
    if len(data_lines) != n * m:
        raise ParseError(f"expected {n * m} data lines, found {len(data_lines)}")
    arr = _parse_values(data_lines, m)
    if arr is None:
        arr = _parse_lines(data_lines, m)
    arr = arr.reshape(n, m, m)
    try:
        return BlockVector(arr)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_block_vector(path, v: BlockVector, comments: Iterable[str] = ()) -> None:
    Path(path).write_text(format_block_vector(v, comments))


def read_block_vector(path) -> BlockVector:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_block_vector(text)
