"""Dense GF(2) linear algebra on numpy uint8 arrays.

Matrices are plain ``numpy.ndarray`` objects with dtype uint8 and entries in
{0, 1}; all arithmetic is mod 2.  Array axes are 0-based as usual, but column
indices carried by :class:`ElementaryFactor` are 1-based, matching the dart
and qubit labels used in every file format and CLI surface.

The module also owns the plain-text matrix format used by all import/export:
a first line ``"rows cols"`` followed by one line of space-separated 0/1
entries per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class SingularMatrixError(ValueError):
    """A matrix that was required to be invertible over GF(2) is not."""


def as_matrix(data) -> np.ndarray:
    """Coerce ``data`` to a 2-d uint8 array with entries in {0, 1}."""
    M = np.asarray(data, dtype=np.uint8)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {M.shape}")
    if M.size and int(M.max()) > 1:
        raise ValueError("matrix entries must be 0 or 1")
    return M


def as_vector(data) -> np.ndarray:
    """Coerce ``data`` to a 1-d uint8 array with entries in {0, 1}."""
    v = np.asarray(data, dtype=np.uint8)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {v.shape}")
    if v.size and int(v.max()) > 1:
        raise ValueError("vector entries must be 0 or 1")
    return v


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def mul(A, B) -> np.ndarray:
    """GF(2) product ``A @ B`` as a uint8 matrix.

    The product runs as a float64 BLAS matmul reduced mod 2.  It is exact:
    entries of the integer product are at most the inner dimension, far
    below 2^53.  numpy's integer matmul does not use BLAS.
    """
    P = np.asarray(A, dtype=np.float64) @ np.asarray(B, dtype=np.float64)
    np.fmod(P, 2, out=P)
    return P.astype(np.uint8)


def row_echelon(M, pivot_limit: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2).

    Args:
        M: binary matrix.
        pivot_limit: restrict pivot search to the first ``pivot_limit``
            columns (row operations still act on the full width).  Used for
            augmented-matrix inversion.

    Returns:
        ``(R, pivot_cols)`` where ``R`` is the reduced form and
        ``pivot_cols`` lists the pivot column of each nonzero row.
    """
    R = as_matrix(M).copy()
    rows, cols = R.shape
    limit = cols if pivot_limit is None else pivot_limit

    pivot_cols: list[int] = []
    r = 0
    for c in range(limit):
        if r == rows:
            break
        hits = np.flatnonzero(R[r:, c])
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        others = np.flatnonzero(R[:, c])
        others = others[others != r]
        if others.size:
            R[others] ^= R[r]
        pivot_cols.append(c)
        r += 1
    return R, pivot_cols


def rank(M) -> int:
    """GF(2) row rank."""
    _, pivots = row_echelon(M)
    return len(pivots)


def kernel_basis(M) -> np.ndarray:
    """Basis of the right kernel ``{v : M v^t = 0}``, one vector per row.

    Rows are ordered by their free column, ascending; the row count is
    ``cols - rank(M)``.
    """
    M = as_matrix(M)
    cols = M.shape[1]
    R, pivots = row_echelon(M)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for r, p in enumerate(pivots):
            basis[k, p] = R[r, f]
    return basis


def row_space_contains(M, v) -> bool:
    """True iff ``v`` is a GF(2) combination of the rows of ``M``."""
    M = as_matrix(M)
    v = as_vector(v)
    if v.shape[0] != M.shape[1]:
        raise ValueError(
            f"vector length {v.shape[0]} does not match {M.shape[1]} columns"
        )
    return rank(M) == rank(np.vstack([M, v[np.newaxis, :]]))


def invert(T) -> np.ndarray:
    """Inverse over GF(2); raises :class:`SingularMatrixError` if rank-deficient."""
    T = as_matrix(T)
    n = T.shape[0]
    if T.shape[1] != n:
        raise ValueError(f"matrix is {T.shape[0]}x{T.shape[1]}, not square")
    aug = np.hstack([T, identity(n)])
    R, pivots = row_echelon(aug, pivot_limit=n)
    if len(pivots) != n:
        raise SingularMatrixError(f"matrix has rank {len(pivots)} < {n}")
    return R[:, n:].copy()


@dataclass(frozen=True)
class ElementaryFactor:
    """A column-addition factor: identity plus a single 1 at row i, column j.

    Right-multiplying by this factor adds column ``i`` into column ``j``.
    Indices are 1-based.
    """

    i: int
    j: int
    n: int

    def __post_init__(self):
        if not (1 <= self.i <= self.n and 1 <= self.j <= self.n):
            raise ValueError(f"factor indices ({self.i},{self.j}) out of 1..{self.n}")
        if self.i == self.j:
            raise ValueError("factor source and destination must differ")


def elementary_matrix(f: ElementaryFactor) -> np.ndarray:
    M = identity(f.n)
    M[f.i - 1, f.j - 1] = 1
    return M


def decompose_elementary(T) -> list[ElementaryFactor]:
    """Factor an invertible matrix into elementary column-addition factors.

    Returns factors ``f_1 .. f_m`` with ``f_1 * ... * f_m = T`` and the
    reversed product equal to ``T^-1``; ``m <= n^2``.  Deterministic: rows
    are processed in ascending order, and a zero diagonal entry is repaired
    with the smallest column to its right holding a 1 (such a column exists
    exactly when the matrix is invertible).
    """
    M = as_matrix(T)
    n = M.shape[0]
    if M.shape[1] != n:
        raise ValueError(f"matrix is {M.shape[0]}x{M.shape[1]}, not square")

    # Column c of M is row c of C, so a column addition is one contiguous XOR.
    C = np.array(M.T, order="C")
    applied: list[ElementaryFactor] = []
    for i in range(n):
        if C[i, i] == 0:
            hits = np.flatnonzero(C[i + 1 :, i])
            if hits.size == 0:
                raise SingularMatrixError(f"matrix is singular at row {i + 1}")
            j = i + 1 + int(hits[0])
            C[i] ^= C[j]
            applied.append(ElementaryFactor(j + 1, i + 1, n))
        # Clearing row i adds column i into every other column with a 1 there.
        # These factors share their source, so they commute and stay in
        # ascending column order.
        hits = np.flatnonzero(C[:, i])
        hits = hits[hits != i]
        if hits.size:
            C[hits] ^= C[i]
            applied.extend(ElementaryFactor(i + 1, j + 1, n) for j in hits.tolist())
    # The applied product reduces T to the identity, so it equals T^-1; each
    # factor is its own inverse, hence the reversed list multiplies to T.
    assert np.array_equal(C, identity(n))
    return applied[::-1]


def multiply_factors(factors, n: int) -> np.ndarray:
    """Ordered product of elementary factors (identity for an empty list)."""
    M = identity(n)
    for f in factors:
        M = mul(M, elementary_matrix(f))
    return M


# --- plain-text matrix format ------------------------------------------------


def format_matrix(M) -> str:
    M = as_matrix(M)
    rows, cols = M.shape
    # Each row is "b b ... b\n": digits at even offsets, separators at odd ones.
    body = np.full((rows, max(2 * cols, 1)), ord(" "), dtype=np.uint8)
    body[:, 0 : 2 * cols : 2] = M + ord("0")
    body[:, -1] = ord("\n")
    return f"{rows} {cols}\n" + body.tobytes().decode("ascii")


def _header_count(token: str, line: str) -> int:
    if token.isascii() and token.isdigit():
        return int(token)
    if token[:1] == "-" and token[1:].isascii() and token[1:].isdigit():
        raise ValueError("matrix dimensions must be nonnegative")
    raise ValueError(f"bad matrix header {line!r}, expected 'rows cols'")


def parse_matrix(text: str) -> np.ndarray:
    """Parse the plain-text matrix format.

    The header must be two ASCII digit strings.  Row and entry counts are
    checked against it before anything is allocated.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad matrix header {lines[0]!r}, expected 'rows cols'")
    rows, cols = (_header_count(tok, lines[0]) for tok in header)
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} matrix rows, found {len(lines) - 1}")
    entries = [line.split() for line in lines[1:]]
    for r, row in enumerate(entries):
        if len(row) != cols:
            raise ValueError(f"row {r + 1} has {len(row)} entries, expected {cols}")
    # Valid entries are the one-character tokens "0" and "1", so the joined
    # tokens are exactly rows * cols such characters.
    joined = "".join(map("".join, entries))
    if len(joined) != rows * cols or joined.replace("0", "").replace("1", ""):
        r, tok = next(
            (r, tok) for r, row in enumerate(entries, 1) for tok in row if tok not in ("0", "1")
        )
        raise ValueError(f"bad matrix entry {tok!r} in row {r}")
    M = np.frombuffer(joined.encode("ascii"), dtype=np.uint8) - ord("0")
    return M.reshape(rows, cols)


def read_matrix(path) -> np.ndarray:
    return parse_matrix(Path(path).read_text())


def write_matrix(path, M) -> None:
    Path(path).write_text(format_matrix(M))
