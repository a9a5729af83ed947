"""Exact minimum-distance oracle for CSS codes.

The distance is ``d = min(dx, dz)`` with ``dz`` the minimum weight of a
vector in the kernel of ``hx`` outside the row space of ``hz`` and ``dx``
the mirror image; inputs are guarded at ``n <= 24`` qubits.
:func:`distance_split` is the one entry point, and it eliminates ``hx``
and ``hz`` once each (:func:`~hypermap_codes.gf2.row_basis`).

A code with ``k = n - rank(hx) - rank(hz) = 0`` has no logical operators;
:func:`distance_split` reads that from the two ranks and raises before any
search.  Otherwise each sector runs one exact search that switches strategy
by cost.  It first scans Hamming weights in ascending order, stopping at
the first weight class holding a logical operator, for as long as the
cumulative count ``C(n, 1) + ... + C(n, w)`` of ``w``-subsets stays at or
below ``2^dim ker(H)``.  The scan meets in the middle: a weight-``w`` kernel
vector is an ``a``-subset and a ``b``-subset of check columns with equal
syndromes (``a = w // 2``, ``b = w - a``), so each weight costs about
``C(n, ceil(w/2))`` dictionary steps, and the subset count of the rule
overstates the work; the rule is kept as a conservative bound.  Past that
weight it enumerates all of ``ker(H)`` in numpy instead, from the basis of
one elimination over the columns: an XOR table over the low basis vectors
is XORed with each combination of the high ones, chunk by chunk, and the
minimum popcount is taken over the vectors outside the excluded row space.
Both strategies are exact, so the rule decides speed only: shallow codes
stop in the weight scan, deep ones (the ``[[23,1,7]]`` Golay code switches
after ``w = 3``) pay ``2^dim ker(H)`` vectorised steps.  With ``k >= 1``
each sector has a logical of weight at most ``rank + 1`` (a reduced-echelon
kernel basis vector), so within the ``n <= 24`` guard no stored level of
the scan exceeds ``C(24, 3) = 2024`` subsets.

:func:`distance_exhaustive` is a full-enumeration implementation kept for
cross-checking the oracle's search on small codes.
"""

from __future__ import annotations

import math

import numpy as np

from . import gf2

BACKEND = "numpy"
MAX_ORACLE_QUBITS = 24
MAX_EXHAUSTIVE_QUBITS = 16
TABLE_BITS = 14  # kernel basis vectors combined into the XOR table
CHUNK_WORDS = 1 << 16  # vectors enumerated per numpy pass


class CodeTooLargeError(ValueError):
    """The code exceeds the brute-force enumeration guard."""


class NoLogicalOperatorError(ValueError):
    """The code has no logical operators (k = 0), so no distance."""


def _kernel_vectors(cols, rows: int) -> list[int]:
    """A packed basis of ``ker(H)`` from the packed columns of ``H`` (``rows`` bits each).

    Column ``j`` is tagged with bit ``rows + j`` and the tagged columns are
    eliminated once.  An echelon row with its pivot in the tag bits is a
    column combination that XORs to 0, named by its tag; there are
    ``n - rank(H)`` of them, independent since their pivots differ.
    """
    basis, _ = gf2._forward([c | 1 << (rows + j) for j, c in enumerate(cols)])
    return [v >> rows for p, v in basis.items() if p >= rows]


def _weight_search(cols, reducer, max_weight: int) -> int:
    """Smallest logical weight ``w <= max_weight``, or 0 if there is none.

    Meet in the middle: a kernel vector of weight ``w`` splits into an
    ``a``-subset and a ``b``-subset of columns with equal syndromes, where
    ``a = w // 2`` and ``b = w - a``.  ``first[i]`` maps the syndrome of each
    ``i``-subset to the support of the first such subset.  At odd ``w``,
    level ``b`` is built from level ``b - 1`` (each subset extended by the
    columns past its last one) and every new subset is looked up in
    ``first[a]``; at even ``w``, the subsets of level ``b`` whose syndrome
    was already in ``first[b]`` when they were built are paired with that
    first subset.  A pair whose support XOR reduces to nonzero is a logical
    of weight at most ``w``, and every lighter weight has been ruled out, so
    the search returns ``w``.  An overlapping pair XORs to a lighter kernel
    vector, which therefore lies in the excluded row space: no overlap test
    is needed, and ``gf2._reduce`` runs only when two syndromes collide.
    """
    n = len(cols)
    level = [(0, 0, 0)]  # (syndrome, support, first column to extend by)
    first = [{0: 0}]
    collisions: list[tuple[int, int]] = []  # level subsets paired with first[b]
    for w in range(1, max_weight + 1):
        if w % 2 == 0:
            for v, u in collisions:
                if gf2._reduce(v ^ u, *reducer):
                    return w
            continue
        lookup = first[w // 2].get
        keep = w < max_weight  # the last level is looked up, not stored
        table: dict[int, int] = {}
        extended, collisions = [], []
        for syndrome, support, start in level:
            for j in range(start, n):
                s = syndrome ^ cols[j]
                u = lookup(s)
                if u is not None and gf2._reduce((support | 1 << j) ^ u, *reducer):
                    return w
                if keep:
                    v = support | 1 << j
                    u = table.setdefault(s, v)
                    if u != v:
                        collisions.append((v, u))
                    extended.append((s, v, j + 1))
        first.append(table)
        level = extended
    return 0


def _span(vectors) -> np.ndarray:
    """All ``2^len(vectors)`` XOR combinations; bit ``i`` of the index selects ``vectors[i]``."""
    table = np.zeros(1 << len(vectors), dtype=np.uint64)
    for i, v in enumerate(vectors):
        np.bitwise_xor(table[: 1 << i], np.uint64(v), out=table[1 << i : 2 << i])
    return table


def _kernel_search(vectors, reducer) -> int:
    """Minimum logical weight over all of ``ker(H)``, or 0 if there is none.

    ``vectors`` is a kernel basis packed into ints of at most 64 bits.
    Since the reduction is linear, each basis vector is reduced once and the
    images are combined alongside the vectors: a combination lies outside
    the excluded row space exactly when its image is nonzero.
    """
    images = [gf2._reduce(v, *reducer) for v in vectors]
    low = min(len(vectors), TABLE_BITS)
    table, table_images = _span(vectors[:low]), _span(images[:low])
    high, high_images = _span(vectors[low:]), _span(images[low:])
    step = max(1, CHUNK_WORDS >> low)
    best = 255  # above any popcount of a 64-bit word
    for s in range(0, len(high), step):
        weights = np.bitwise_count((high[s : s + step, None] ^ table).ravel())
        inside = (high_images[s : s + step, None] ^ table_images).ravel() == 0
        weights[inside] = 255
        best = min(best, int(weights.min()))
    return 0 if best == 255 else best


def _sector_min_weight(stab, rank: int, reducer) -> int:
    """Minimum weight of ``v != 0`` with ``stab v = 0`` outside the span of ``reducer``.

    ``rank`` is the rank of ``stab``, and ``reducer`` is the
    :func:`~hypermap_codes.gf2.row_basis` of the excluded matrix: with it,
    ``gf2._reduce`` maps a vector to the one member of its coset with no
    pivot bit, a linear map that is 0 exactly on the excluded row space.
    ``cols[j]`` packs column ``j`` of ``stab``, so a set of columns XORs to
    0 exactly when its indicator vector is in ``ker(H)``.  Returns 0 when
    no such vector exists.  The weight search runs through the largest ``w``
    with ``C(n, 1) + ... + C(n, w) <= 2^dim ker(H)``, a conservative bound on
    its meet-in-the-middle cost; if it finds nothing, the kernel is
    enumerated.
    """
    cols = gf2._pack_rows(stab.T)
    n, budget = len(cols), 1 << (len(cols) - rank)
    depth, spent = 0, 0
    while depth < n and spent + math.comb(n, depth + 1) <= budget:
        depth += 1
        spent += math.comb(n, depth)
    found = _weight_search(cols, reducer, depth)
    return found or _kernel_search(_kernel_vectors(cols, len(stab)), reducer)


# `jobbench/tracing.py` times the per-sector search under this name, so
# `distance_split` calls it through the module global.
_default_kernel = _sector_min_weight


def distance_split(code, bases=None) -> tuple[int, int]:
    """``(dx, dz)`` for a code with logical operators in both sectors.

    ``bases`` is ``(gf2.row_basis(code.hx), gf2.row_basis(code.hz))`` when
    the caller already has it; otherwise it is computed here.
    """
    n = code.hx.shape[1]
    if n > MAX_ORACLE_QUBITS:
        raise CodeTooLargeError(
            f"{n} qubits exceed the n <= {MAX_ORACLE_QUBITS} brute-force guard"
        )
    bx, bz = bases or (gf2.row_basis(code.hx), gf2.row_basis(code.hz))
    if n - len(bx[0]) - len(bz[0]) == 0:
        raise NoLogicalOperatorError("code has no logical operators (k = 0)")
    dz = _default_kernel(code.hx, len(bx[0]), bz)
    dx = _default_kernel(code.hz, len(bz[0]), bx)
    if (dx == 0) != (dz == 0):
        raise AssertionError("one-sided logical sector; inconsistent code")
    if dx == 0:
        raise NoLogicalOperatorError("code has no logical operators (k = 0)")
    return dx, dz


def distance_bruteforce(code) -> int:
    """Minimum distance ``min(dx, dz)`` by the exact per-sector search."""
    dx, dz = distance_split(code)
    return min(dx, dz)


def distance_exhaustive(code) -> int:
    """Cross-check of the oracle: full enumeration of all 2^n - 1 candidates.

    Kernel membership is decided row by row (parity of each check against
    the candidate), independently of the oracle's column XORs and of its
    weight and kernel strategies.  Row-space membership goes through
    :func:`~hypermap_codes.gf2.row_space_contains`, so it shares the packed
    elimination core (``gf2._forward``/``gf2._reduce``) with the oracle's
    reducer; that core's independent reference is the column loop of
    ``tests/util.py``, which ``tests/test_gf2_core.py`` cross-checks it against.
    """
    n = code.hx.shape[1]
    if n > MAX_EXHAUSTIVE_QUBITS:
        raise CodeTooLargeError(
            f"{n} qubits exceed the n <= {MAX_EXHAUSTIVE_QUBITS} exhaustion guard"
        )
    hx_rows = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in code.hx]
    hz_rows = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in code.hz]

    def unpack(mask):
        return np.array([(mask >> j) & 1 for j in range(n)], dtype=np.uint8)

    best = None
    for mask in range(1, 1 << n):
        weight = mask.bit_count()
        if best is not None and weight >= best:
            continue
        in_ker_x = all((row & mask).bit_count() % 2 == 0 for row in hx_rows)
        if in_ker_x and not gf2.row_space_contains(code.hz, unpack(mask)):
            best = weight
            continue
        in_ker_z = all((row & mask).bit_count() % 2 == 0 for row in hz_rows)
        if in_ker_z and not gf2.row_space_contains(code.hx, unpack(mask)):
            best = weight
    if best is None:
        raise NoLogicalOperatorError("code has no logical operators (k = 0)")
    return best
