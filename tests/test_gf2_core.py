"""Packed-row elimination against the column-at-a-time numpy reference.

The reduced row-echelon form of a row space is unique, so ``row_echelon``
must return exactly the reference's ``(R, pivot_cols)``; ``rank``,
``row_basis``/``rows_outside`` (also as the membership test of one vector),
``kernel_basis``, ``invert`` (the right block of ``row_echelon([T | I])``)
and ``css._same_row_space`` are checked against the same reference.
Matrices are drawn by shape class (no rows or no columns, one row, tall,
wide, rows spanning several 64-bit words, more than 512 columns) and
density, plus the boundary matrices of random hypermaps.
"""

import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypermap_codes import boundary_pair, css, gf2  # noqa: E402
from util import (  # noqa: E402
    random_cycle_hypermap,
    random_special_darts,
    reference_invert,
    reference_kernel_basis,
    reference_row_echelon,
)

# (rows, cols) ranges of each shape class.
SHAPES = [
    ((0, 0), (0, 80)),  # no rows
    ((0, 6), (0, 0)),  # no columns
    ((1, 1), (1, 80)),  # one row
    ((20, 60), (1, 12)),  # tall
    ((1, 12), (20, 60)),  # wide
    ((1, 40), (65, 200)),  # a row spans several machine words
    ((1, 24), (513, 700)),  # more than 512 columns
]
DENSITIES = [0.03, 0.2, 0.5, 0.9]

SETTINGS = settings(max_examples=120, deadline=None)


def _random_matrix(rng, rows, cols, density):
    return (rng.random((rows, cols)) < density).astype(np.uint8)


@st.composite
def matrices(draw):
    (r_lo, r_hi), (c_lo, c_hi) = draw(st.sampled_from(SHAPES))
    rows, cols = draw(st.integers(r_lo, r_hi)), draw(st.integers(c_lo, c_hi))
    density = draw(st.sampled_from(DENSITIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()) and rows and cols:
        # Low rank: pivots skip columns and many rows reduce to zero.
        k = int(rng.integers(1, min(rows, cols) + 1))
        return gf2.mul(_random_matrix(rng, rows, k, density), _random_matrix(rng, k, cols, density))
    return _random_matrix(rng, rows, cols, density)


@st.composite
def square_matrices(draw):
    """Square matrices up to 70x70; about half are built invertible."""
    n = draw(st.integers(0, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from(DENSITIES))
    if not draw(st.booleans()):
        return _random_matrix(rng, n, n, density)
    # Unit lower times unit upper triangular, rows shuffled: invertible.
    L = np.tril(_random_matrix(rng, n, n, density), -1) | gf2.identity(n)
    U = np.triu(_random_matrix(rng, n, n, density), 1) | gf2.identity(n)
    return gf2.mul(L, U)[rng.permutation(n)]


def assert_same_echelon(M):
    R, pivots = gf2.row_echelon(M)
    R_ref, pivots_ref = reference_row_echelon(M)
    assert pivots == pivots_ref
    assert R.dtype == np.uint8 and R.shape == M.shape
    assert np.array_equal(R, R_ref)


@SETTINGS
@given(matrices())
def test_row_echelon_matches_reference(M):
    assert_same_echelon(M)


@SETTINGS
@given(matrices())
def test_rank_and_kernel_match_reference(M):
    r = len(reference_row_echelon(M)[1])
    assert gf2.rank(M) == r == gf2.rank(M.T)
    basis = gf2.kernel_basis(M)
    assert np.array_equal(basis, reference_kernel_basis(M))
    assert basis.shape == (M.shape[1] - r, M.shape[1])


@SETTINGS
@given(matrices(), st.integers(0, 2**32 - 1), st.booleans())
def test_row_space_contains_matches_reference(M, seed, perturb):
    rng = np.random.default_rng(seed)
    # A combination of the rows, with one entry flipped half of the time.
    v = gf2.mul(rng.integers(0, 2, (1, M.shape[0]), dtype=np.uint8), M)[0]
    if perturb and v.size:
        v[rng.integers(v.size)] ^= 1
    expected = len(reference_row_echelon(np.vstack([M, v]))[1]) == len(reference_row_echelon(M)[1])
    assert (gf2.rows_outside(v[None], gf2.row_basis(M)) == []) == expected
    if not perturb:
        assert expected


@SETTINGS
@given(square_matrices())
def test_invert_matches_reference(T):
    try:
        expected = reference_invert(T)
    except gf2.SingularMatrixError as err:
        with pytest.raises(gf2.SingularMatrixError) as got:
            gf2.invert(T)
        assert str(got.value) == str(err)
        return
    inverse = gf2.invert(T)
    assert inverse.dtype == np.uint8
    assert np.array_equal(inverse, expected)
    assert np.array_equal(gf2.mul(inverse, T), gf2.identity(T.shape[0]))


def test_invert_singular_message():
    T = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
    with pytest.raises(gf2.SingularMatrixError, match=r"^matrix has rank 2 < 3$"):
        gf2.invert(T)
    with pytest.raises(gf2.SingularMatrixError, match=r"^matrix has rank 0 < 2$"):
        gf2.invert(np.zeros((2, 2), dtype=np.uint8))
    assert gf2.invert(np.zeros((0, 0), dtype=np.uint8)).shape == (0, 0)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.sampled_from([2, 3, 4]))
def test_boundary_matrices_match_reference(seed, hyperedges, length):
    rng = random.Random(seed)
    H = random_cycle_hypermap(rng, hyperedges, length)
    code = boundary_pair(H, random_special_darts(rng, H))
    for M in (code.hx, code.hz, code.hx.T, code.hz.T):
        assert_same_echelon(np.ascontiguousarray(M))
        assert gf2.rank(M) == len(reference_row_echelon(M)[1])


@SETTINGS
@given(matrices(), st.integers(0, 2**32 - 1), st.booleans())
def test_same_row_space_matches_reference(A, seed, perturb):
    rng = np.random.default_rng(seed)
    # Random combinations of the rows of A, with one entry flipped half of the time.
    B = gf2.mul(rng.integers(0, 2, (A.shape[0] + 1, A.shape[0]), dtype=np.uint8), A)
    if perturb and B.size:
        B[rng.integers(B.shape[0]), rng.integers(B.shape[1])] ^= 1
    ra, rb = (len(reference_row_echelon(M)[1]) for M in (A, B))
    expected = ra == rb == len(reference_row_echelon(np.vstack([A, B]))[1])
    assert css._same_row_space(A, B) == expected == css._same_row_space(B, A)


@SETTINGS
@given(matrices(), st.integers(0, 2**32 - 1))
def test_row_basis_matches_reference(M, seed):
    basis = gf2.row_basis(M)
    pivots, mask = basis
    rank = len(reference_row_echelon(M)[1])
    assert len(pivots) == mask.bit_count() == rank
    assert sorted(pivots) == [p for p in range(M.shape[1]) if mask >> p & 1]
    assert gf2.rows_outside(M, basis) == []
    # Random combinations of the rows, one entry flipped half of the time.
    rng = np.random.default_rng(seed)
    V = gf2.mul(rng.integers(0, 2, (8, M.shape[0]), dtype=np.uint8), M)
    if V.size:
        V[::2, rng.integers(V.shape[1])] ^= 1
    outside = [i for i, v in enumerate(V) if len(reference_row_echelon(np.vstack([M, v]))[1]) > rank]
    assert gf2.rows_outside(V, basis) == outside
