"""GF(2) linear algebra on numpy uint8 matrices, eliminating on packed ints.

Matrices are plain ``numpy.ndarray`` objects with dtype uint8 and entries in
{0, 1}; all arithmetic is mod 2.  Every elimination (``row_echelon``,
``rank``, row-space membership, CNOT synthesis) packs each row into a
Python int once per matrix and works by int XOR; :func:`invert` is the
reduced form of ``[T | I]``, and products go through BLAS (:func:`mul`).

The row-space API is one pair: :func:`row_basis` eliminates a matrix once
into its echelon basis, whose size is the rank, and :func:`rows_outside`
names the rows of another matrix outside that span; there is no other
row-space entry point.  Ranks, row-space membership and equality, the
``compare`` diff, and the distance oracle's reducer and its exhaustive
cross-check all go through it.

Array axes are 0-based as usual, but the column indices of an
elementary-factor decomposition are 1-based, matching the dart and qubit
labels used in every file format and CLI surface.  A decomposition is one
``(m, 2)`` index array of 1-based ``(i, j)`` (:func:`decompose_elementary`),
which the CNOT path uses as its gate list; no per-factor object is built.

The module also owns the plain-text matrix format used by all import/export:
a first line ``"rows cols"`` followed by one line of whitespace-separated
0/1 entries per row.  :func:`format_matrix` writes single spaces and ``\\n``
line ends, and :func:`parse_matrix` reads that exact layout in one pass and
any other layout token by token.
"""

from __future__ import annotations

import numpy as np

from ._jsonfmt import read_text, write_text


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


# --- elimination on packed rows ------------------------------------------------
#
# Elimination holds each row as a Python int whose bit ``j`` is column ``j``
# (``np.packbits(..., bitorder="little")``), so a row operation is one int
# XOR.  An echelon basis is a dict from pivot column to row, each row's
# lowest set bit being its pivot, plus the mask of all pivot bits.


def _pack_rows(M) -> list[int]:
    """Row ``r`` of the 0/1 matrix ``M`` as an int whose bit ``j`` is ``M[r, j]``."""
    rows, cols = M.shape
    width = (cols + 7) // 8
    if width == 0:
        return [0] * rows
    data = np.packbits(M, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def _unpack_rows(rows, cols: int) -> np.ndarray:
    """Inverse of :func:`_pack_rows`: a ``len(rows) x cols`` uint8 matrix."""
    width = (cols + 7) // 8
    data = b"".join(v.to_bytes(width, "little") for v in rows)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=cols, bitorder="little")


def _reduce(v: int, basis: dict[int, int], mask: int) -> int:
    """Clear the pivot bits of ``v``, lowest first; 0 exactly when ``v`` is in the span.

    XORing the row of pivot ``p`` leaves the bits below ``p`` alone, so the
    lowest pivot bit left in ``v`` rises with every step.  The lowest set
    bit of ``x`` is at ``(x ^ (x - 1)).bit_length() - 1``.
    """
    hit = v & mask
    while hit:
        v ^= basis[(hit ^ (hit - 1)).bit_length() - 1]
        hit = v & mask
    return v


def _forward(rows) -> tuple[dict[int, int], int]:
    """Echelon basis ``({pivot: row}, pivot mask)`` of the span of packed ``rows``.

    Each row is reduced against the basis so far; what is left, if nonzero,
    has no pivot bit and joins the basis with its lowest set bit as pivot.
    """
    basis: dict[int, int] = {}
    mask = 0
    for v in rows:
        v = _reduce(v, basis, mask)
        if v:
            p = (v ^ (v - 1)).bit_length() - 1
            basis[p] = v
            mask |= 1 << p
    return basis, mask


def _back_substitute(basis: dict[int, int], mask: int) -> dict[int, int]:
    """Reduced form of an echelon basis: each row keeps its own pivot bit only.

    Pivots are handled in descending order, so the row of every other pivot
    bit of a row is already reduced: XORing it clears that bit and sets no
    other pivot bit.
    """
    reduced: dict[int, int] = {}
    for p in sorted(basis, reverse=True):
        v = basis[p]
        hit = (v & mask) ^ (1 << p)
        while hit:
            q = hit.bit_length() - 1
            v ^= reduced[q]
            hit ^= 1 << q
        reduced[p] = v
    return reduced


def row_echelon(M) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2).

    Returns:
        ``(R, pivot_cols)`` where ``R`` is the reduced form, of the shape of
        ``M`` with its zero rows last, and ``pivot_cols`` lists the pivot
        column of each nonzero row, ascending.
    """
    M = as_matrix(M)
    rows, cols = M.shape
    reduced = dict(sorted(_back_substitute(*_forward(_pack_rows(M))).items()))
    R = np.zeros((rows, cols), dtype=np.uint8)
    R[: len(reduced)] = _unpack_rows(reduced.values(), cols)
    return R, list(reduced)


def row_basis(M) -> tuple[dict[int, int], int]:
    """Echelon basis ``({pivot: row}, pivot mask)`` of the row space of ``M``.

    One forward elimination; the basis has one row per unit of rank.
    """
    return _forward(_pack_rows(as_matrix(M)))


def rows_outside(M, basis: tuple[dict[int, int], int]) -> list[int]:
    """Indices, ascending, of the rows of ``M`` outside the span of ``basis`` (a :func:`row_basis`)."""
    pivots, mask = basis
    return [i for i, v in enumerate(_pack_rows(as_matrix(M))) if _reduce(v, pivots, mask)]


def rank(M) -> int:
    """GF(2) row rank (forward elimination only)."""
    return len(row_basis(M)[0])


def kernel_basis(M) -> np.ndarray:
    """Basis of the right kernel ``{v : M v^t = 0}``, one vector per row.

    Rows are ordered by their free column, ascending; the row count is
    ``cols - rank(M)``.
    """
    M = as_matrix(M)
    cols = M.shape[1]
    R, pivots = row_echelon(M)
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((free.size, cols), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = R[: len(pivots)][:, free].T
    return basis


def invert(T) -> np.ndarray:
    """Inverse over GF(2); raises :class:`SingularMatrixError` if rank-deficient.

    The right block of the reduced form of ``[T | I]`` (:func:`row_echelon`).
    ``T`` is invertible exactly when all ``n`` pivots lie in its columns; the
    reduced rows then read ``[I | T^-1]``.
    """
    T = as_matrix(T)
    n = T.shape[0]
    if T.shape[1] != n:
        raise ValueError(f"matrix is {T.shape[0]}x{T.shape[1]}, not square")
    R, pivots = row_echelon(np.hstack([T, identity(n)]))
    r = sum(p < n for p in pivots)
    if r != n:
        raise SingularMatrixError(f"matrix has rank {r} < {n}")
    return R[:, n:]


def elementary_matrix(i: int, j: int, n: int) -> np.ndarray:
    """The column-addition factor ``f_ij``: identity plus a single 1 at row i, column j.

    Right-multiplying by it adds column ``i`` into column ``j``.  Indices
    are 1-based.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"factor indices ({i},{j}) out of 1..{n}")
    if i == j:
        raise ValueError("factor source and destination must differ")
    M = identity(n)
    M[i - 1, j - 1] = 1
    return M


def decompose_elementary(T) -> np.ndarray:
    """Factor an invertible matrix into elementary column-addition factors.

    Returns an ``(m, 2)`` array whose row ``l`` is the 1-based ``(i, j)`` of
    factor ``f_l``, with ``f_1 * ... * f_m = T`` and the reversed product
    equal to ``T^-1``; ``m <= n^2``, and an identity matrix gives a
    ``(0, 2)`` array.  Deterministic: rows are processed in ascending order,
    and a zero diagonal entry is repaired with the smallest column to its
    right holding a 1 (such a column exists exactly when the matrix is
    invertible).
    """
    M = as_matrix(T)
    n = M.shape[0]
    if M.shape[1] != n:
        raise ValueError(f"matrix is {M.shape[0]}x{M.shape[1]}, not square")

    # Row r of M is the int rows[r], bit c being M[r, c], so adding column
    # c into column t flips bit t of each row holding bit c.  When step i
    # starts, rows 0..i-1 are unit rows, which no factor of this step or a
    # later one touches, so only rows i.. are updated.  Step i is recorded
    # as one int: bit j < n marks the repair factor adding column j into
    # column i, and bit n + t the factor adding column i into column t.
    rows = _pack_rows(M)
    steps: list[int] = []
    for i in range(n):
        bit = 1 << i
        step = 0
        if not rows[i] & bit:
            above = rows[i] >> (i + 1)
            if not above:
                raise SingularMatrixError(f"matrix is singular at row {i + 1}")
            step = (above & -above) << (i + 1)  # bit j: the lowest set bit above i
            rows[i:] = [r ^ bit if r & step else r for r in rows[i:]]
        # Clearing row i adds column i into each column of targets, so every
        # row with bit i takes the whole mask.  These factors share their
        # source, so they commute and run in ascending column order.
        targets = rows[i] ^ bit
        rows[i:] = [r ^ targets if r & bit else r for r in rows[i:]]
        steps.append(step | targets << n)
    # The applied product reduces T to the identity, so it equals T^-1; each
    # factor is its own inverse, hence the reversed list multiplies to T.
    assert rows == [1 << c for c in range(n)]
    # One unpacking expands every step, repair first, targets ascending.
    i, at = np.divmod(np.flatnonzero(_unpack_rows(steps, 2 * n)), 2 * n)
    repair = at < n
    pairs = np.stack([np.where(repair, at, i), np.where(repair, i, at - n)], axis=1)
    return pairs[::-1] + 1


def multiply_factors(factors, n: int) -> np.ndarray:
    """Ordered product of elementary factors, given as ``(i, j)`` rows (identity for none)."""
    M = identity(n)
    for i, j in factors:
        M = mul(M, elementary_matrix(i, j, n))
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
        # Bounded before int(), which refuses past 4300 digits, and by the
        # largest array dimension numpy allows.
        digits, largest = token.lstrip("0") or "0", np.iinfo(np.intp).max
        if len(digits) > len(str(largest)) or int(digits) > largest:
            raise ValueError(f"matrix dimensions must be at most {largest}")
        return int(digits)
    if token[:1] == "-" and token[1:].isascii() and token[1:].isdigit():
        raise ValueError("matrix dimensions must be nonnegative")
    raise ValueError(f"bad matrix header {line!r}, expected 'rows cols'")


def _parse_written(text: str) -> np.ndarray | None:
    """The matrix of ``text`` if it is laid out exactly as :func:`format_matrix` writes it, else None.

    That layout is the header line ``f"{rows} {cols}\\n"`` with ``cols > 0``,
    then ``2 * cols`` characters per row: an entry ``0``/``1`` at each even
    offset, a space at each odd one but the last, which is ``\\n``.  Every
    check is a ``str`` operation, and the length is checked first, so no
    copy is larger than the text.
    """
    end = text.find("\n")
    head = text[:end]
    r, _, c = head.partition(" ")
    # Counts that match the length have no more digits than the length.
    if not (0 < end <= 2 * len(str(len(text))) + 1 and head.isascii() and r.isdigit() and c.isdigit()):
        return None
    rows, cols = int(r), int(c)
    body = text[end + 1 :]
    if cols == 0 or len(body) != rows * 2 * cols or head != f"{rows} {cols}":
        return None
    if body[1::2] != (" " * (cols - 1) + "\n") * rows:
        return None
    entries = body[::2]
    if entries.replace("0", "").replace("1", ""):
        return None
    M = np.frombuffer(entries.encode("ascii"), dtype=np.uint8) - ord("0")
    return M.reshape(rows, cols)


def parse_matrix(text: str) -> np.ndarray:
    """Parse the plain-text matrix format.

    Text in the exact layout of :func:`format_matrix` is read in one pass
    (:func:`_parse_written`); any other text goes through the token parser
    below, which gives every error message.  The header must be two ASCII
    digit strings.  Row and entry counts are checked against it before
    anything is allocated.  A row of no entries is an empty line, so a
    matrix with no columns has no row lines, and its row count is checked
    against the blank lines instead.
    """
    M = _parse_written(text)
    if M is not None:
        return M
    raw = text.splitlines()
    lines = [ln.strip() for ln in raw if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad matrix header {lines[0]!r}, expected 'rows cols'")
    rows, cols = (_header_count(tok, lines[0]) for tok in header)
    found = len(lines) - 1
    if cols == 0 and found == 0:
        found = len(raw) - 1
        if found >= rows:
            return np.zeros((rows, 0), dtype=np.uint8)
    if found != rows:
        raise ValueError(f"expected {rows} matrix rows, found {found}")
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
    return parse_matrix(read_text(path))


def write_matrix(path, M) -> None:
    write_text(path, format_matrix(M))
