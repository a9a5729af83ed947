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
weight it enumerates ``ker(H)`` in numpy instead: one elimination of the
check columns splits a kernel basis into vectors inside the excluded row
space and logicals, whose every nonzero combination is a logical, and the
minimum popcount is taken over the one ``uint64`` span table past its
inside-only combinations.  Both strategies are exact, so the rule decides
speed only: shallow codes stop in the weight scan, deep ones (the
``[[23,1,7]]`` Golay code switches after ``w = 3``) pay ``2^dim ker(H)``
vectorised steps.  With ``k >= 1`` each sector has a logical of weight at
most ``rank + 1`` (a reduced-echelon kernel basis vector), so within the
``n <= 24`` guard no stored level of the scan exceeds ``C(24, 3) = 2024``
subsets, and since the kernel is enumerated only when the depth is below
that weight, no span table exceeds ``2^18`` words (2 MiB).

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


class CodeTooLargeError(ValueError):
    """The code exceeds the brute-force enumeration guard."""


class NoLogicalOperatorError(ValueError):
    """The code has no logical operators (k = 0), so no distance."""


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


def _kernel_split(cols, rows: int, reducer) -> tuple[list[int], list[int]]:
    """A basis ``(inside, logical)`` of ``ker(H)`` from the packed columns of ``H``.

    Column ``j`` (``rows`` bits) is tagged with the reduced image of ``e_j``
    (``n`` bits) and with bit ``rows + n + j``, and eliminated once.  An
    echelon row with its pivot at or past ``rows`` XORs its columns to 0, so
    its last tag is one of ``n - rank(H)`` independent kernel vectors.  With
    the pivot in the image band it is a logical; these images have distinct
    pivots, so every nonzero combination of logicals is outside the excluded
    row space.  With the pivot past that band its image is 0: it is inside.
    """
    shift = rows + len(cols)
    tagged = [c | gf2._reduce(1 << j, *reducer) << rows | 1 << (shift + j) for j, c in enumerate(cols)]
    basis, _ = gf2._forward(tagged)
    inside = [v >> shift for p, v in basis.items() if p >= shift]
    logical = [v >> shift for p, v in basis.items() if rows <= p < shift]
    return inside, logical


def _kernel_search(cols, rows: int, reducer) -> int:
    """Minimum logical weight over all of ``ker(H)``, or 0 if there is none.

    In the span of ``inside + logical`` the combinations from index
    ``2^len(inside)`` on are those with a nonzero logical part.
    """
    inside, logical = _kernel_split(cols, rows, reducer)
    if not logical:
        return 0
    return int(np.bitwise_count(_span(inside + logical)[1 << len(inside) :]).min())


def _weight_depth(n: int, dim: int) -> int:
    """Weight search depth: the largest ``w <= n`` with ``C(n, 1) + ... + C(n, w) <= 2^dim``."""
    depth, spent, budget = 0, 0, 1 << dim
    while depth < n and spent + math.comb(n, depth + 1) <= budget:
        depth += 1
        spent += math.comb(n, depth)
    return depth


def _sector_min_weight(stab, rank: int, reducer) -> int:
    """Minimum weight of ``v != 0`` with ``stab v = 0`` outside the span of ``reducer``.

    ``rank`` is the rank of ``stab``, and ``reducer`` is the
    :func:`~hypermap_codes.gf2.row_basis` of the excluded matrix: with it,
    ``gf2._reduce`` maps a vector to the one member of its coset with no
    pivot bit, a linear map that is 0 exactly on the excluded row space.
    ``cols[j]`` packs column ``j`` of ``stab``, so a set of columns XORs to
    0 exactly when its indicator vector is in ``ker(H)``.  Returns 0 when
    no such vector exists.  The weight search runs to :func:`_weight_depth`,
    and if it finds nothing the kernel is enumerated.
    """
    cols = gf2._pack_rows(stab.T)
    found = _weight_search(cols, reducer, _weight_depth(len(cols), len(cols) - rank))
    return found or _kernel_search(cols, len(stab), reducer)


# `jobbench/tracing.py` times the per-sector search under this name, so
# `distance_split` calls it through the module global.
_default_kernel = _sector_min_weight


def distance_split(code) -> tuple[int, int]:
    """``(dx, dz)`` for a code with logical operators in both sectors.

    The size guard reads ``code.n``, before a column-built code fills a
    matrix; each matrix is then eliminated once (``gf2.row_basis``).
    """
    n = code.n
    if n > MAX_ORACLE_QUBITS:
        raise CodeTooLargeError(
            f"{n} qubits exceed the n <= {MAX_ORACLE_QUBITS} brute-force guard"
        )
    bx, bz = gf2.row_basis(code.hx), gf2.row_basis(code.hz)
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
    weight and kernel strategies.  Row-space membership reduces the
    candidate against the echelon bases of ``hx`` and ``hz``, each
    eliminated once (:func:`~hypermap_codes.gf2.row_basis`), so it shares
    the packed elimination core (``gf2._forward``/``gf2._reduce``) with the
    oracle's reducer; that core's independent reference is the column loop
    of ``tests/util.py``, which ``tests/test_gf2_core.py`` cross-checks it
    against.
    """
    n = code.n
    if n > MAX_EXHAUSTIVE_QUBITS:
        raise CodeTooLargeError(
            f"{n} qubits exceed the n <= {MAX_EXHAUSTIVE_QUBITS} exhaustion guard"
        )
    hx_rows, hz_rows = gf2._pack_rows(code.hx), gf2._pack_rows(code.hz)
    bx, bz = gf2.row_basis(code.hx), gf2.row_basis(code.hz)
    best = None
    for mask in range(1, 1 << n):
        weight = mask.bit_count()
        if best is not None and weight >= best:
            continue
        in_ker_x = all((row & mask).bit_count() % 2 == 0 for row in hx_rows)
        if in_ker_x and gf2._reduce(mask, *bz):
            best = weight
            continue
        in_ker_z = all((row & mask).bit_count() % 2 == 0 for row in hz_rows)
        if in_ker_z and gf2._reduce(mask, *bx):
            best = weight
    if best is None:
        raise NoLogicalOperatorError("code has no logical operators (k = 0)")
    return best
