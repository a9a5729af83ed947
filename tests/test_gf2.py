import random
import tracemalloc

import numpy as np
import pytest

from hypermap_codes import gf2
from util import (
    random_invertible,
    random_sparse_invertible,
    reference_decompose_elementary,
    reference_parse_matrix,
)

# Stabilizer matrices of the torus worked example, in the package's face order.
TORUS_HX = np.ones((2, 6), dtype=np.uint8)
TORUS_HZ = np.array(
    [
        [1, 0, 0, 1, 1, 1],
        [0, 1, 0, 0, 0, 1],
        [1, 1, 1, 1, 0, 0],
        [0, 0, 1, 0, 1, 0],
    ],
    dtype=np.uint8,
)


def test_rank_zero_matrix():
    assert gf2.rank(np.zeros((3, 3), dtype=np.uint8)) == 0


def test_rank_identity():
    assert gf2.rank(gf2.identity(4)) == 4


def test_rank_dependent_rows():
    assert gf2.rank(TORUS_HX) == 1


def test_rank_equals_transpose_rank():
    rng = random.Random(11)
    for _ in range(50):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        M = np.array([[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)], dtype=np.uint8)
        assert gf2.rank(M) == gf2.rank(M.T)


def test_kernel_identity_is_empty():
    basis = gf2.kernel_basis(gf2.identity(3))
    assert basis.shape == (0, 3)


def test_kernel_parity_check():
    basis = gf2.kernel_basis(np.array([[1, 1]], dtype=np.uint8))
    assert basis.tolist() == [[1, 1]]


def test_kernel_of_dependent_all_ones():
    # 6 columns, rank 1: the kernel has 5 basis vectors.
    basis = gf2.kernel_basis(TORUS_HX)
    assert basis.shape == (5, 6)
    assert not np.any((TORUS_HX @ basis.T) % 2)


def test_kernel_vectors_annihilated():
    rng = random.Random(7)
    for _ in range(50):
        rows, cols = rng.randint(1, 6), rng.randint(1, 9)
        M = np.array([[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)], dtype=np.uint8)
        basis = gf2.kernel_basis(M)
        assert basis.shape[0] == M.shape[1] - gf2.rank(M)
        if basis.size:
            assert not np.any((M @ basis.T) % 2)


def test_row_space_membership_by_elimination():
    # The all-ones vector is outside the row space of the torus Hz: its span
    # is {0, the four rows, r1+r2, r1+r3, r1+r4} and none of these is all-ones.
    basis = gf2.row_basis(TORUS_HZ)
    assert gf2.rows_outside(np.ones((1, 6), dtype=np.uint8), basis) == [0]
    assert gf2.rows_outside((TORUS_HZ[0] ^ TORUS_HZ[2])[None], basis) == []


def test_mul_matches_integer_product():
    rng = np.random.default_rng(5)
    for rows, inner, cols in [(0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1), (7, 40, 9), (30, 300, 20)]:
        A = rng.integers(0, 2, (rows, inner), dtype=np.uint8)
        B = rng.integers(0, 2, (inner, cols), dtype=np.uint8)
        P = gf2.mul(A, B)
        assert P.dtype == np.uint8
        assert np.array_equal(P, (A.astype(np.int64) @ B.astype(np.int64)) % 2)


def test_invert_identity():
    assert np.array_equal(gf2.invert(gf2.identity(4)), gf2.identity(4))


def test_invert_upper_triangular_self_inverse():
    T = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    assert np.array_equal(gf2.invert(T), T)


def test_invert_random_product_check():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 8)
        T = random_invertible(rng, n)
        assert np.array_equal((T @ gf2.invert(T)) % 2, gf2.identity(n))


def test_invert_singular_raises():
    with pytest.raises(gf2.SingularMatrixError):
        gf2.invert(np.array([[1, 1], [1, 1]], dtype=np.uint8))


def test_invert_torus_basis_change():
    T = gf2.elementary_matrix(1, 2, 6)
    assert np.array_equal((gf2.invert(T) @ T) % 2, gf2.identity(6))


def test_elementary_matrix_definition():
    assert gf2.elementary_matrix(1, 2, 2).tolist() == [[1, 1], [0, 1]]
    assert gf2.elementary_matrix(2, 1, 2).tolist() == [[1, 0], [1, 1]]


def test_elementary_factor_rejects_equal_indices():
    with pytest.raises(ValueError, match="^factor source and destination must differ$"):
        gf2.elementary_matrix(2, 2, 3)
    with pytest.raises(ValueError, match=r"^factor indices \(1,4\) out of 1..3$"):
        gf2.elementary_matrix(1, 4, 3)


def test_elementary_factor_squares_to_identity():
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            R = gf2.elementary_matrix(i, j, 4)
            assert np.array_equal((R @ R) % 2, gf2.identity(4))


def test_decompose_identity_is_empty():
    assert gf2.decompose_elementary(gf2.identity(5)).shape == (0, 2)


def test_decompose_single_factor():
    factors = gf2.decompose_elementary(np.array([[1, 1], [0, 1]], dtype=np.uint8))
    assert factors.tolist() == [[1, 2]]


def test_decompose_swap_needs_three_factors():
    swap = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    factors = gf2.decompose_elementary(swap)
    assert len(factors) == 3
    assert np.array_equal(gf2.multiply_factors(factors, 2), swap)


def test_decompose_singular_raises():
    with pytest.raises(gf2.SingularMatrixError):
        gf2.decompose_elementary(np.array([[1, 1], [1, 1]], dtype=np.uint8))


def test_decompose_zero_diagonal_with_earlier_column_set():
    # Row 2 has its only ones in columns 1 and 3; the repair column must be
    # picked to the right of the diagonal or row 1 gets corrupted.
    T = np.array([[1, 0, 0], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
    factors = gf2.decompose_elementary(T)
    assert np.array_equal(gf2.multiply_factors(factors, 3), T)


def test_decompose_random_products():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 8)
        T = random_invertible(rng, n)
        factors = gf2.decompose_elementary(T)
        assert len(factors) <= n * n
        assert np.array_equal(gf2.multiply_factors(factors, n), T)
        assert np.array_equal(gf2.multiply_factors(reversed(factors), n), gf2.invert(T))


def test_elementary_pairs_match_scalar_reference():
    # Row-wise clearing must give the same (i, j) factors, in the same
    # order, as clearing one entry at a time: dense, column-permuted and
    # sparse matrices (3n and 2n entries) with n = 1-64, then sizes whose
    # packed columns span several 64-bit words.
    rng = random.Random(47)
    repaired = 0
    for n in [*range(1, 65), 65, 96, 130]:
        order = list(range(n))
        rng.shuffle(order)
        dense = random_invertible(rng, n)
        sparse = [random_sparse_invertible(rng, n, k * n) for k in (3, 2)] if n > 1 else []
        for T in [dense, dense[:, order], *sparse]:
            repaired += int(T[0, 0] == 0)
            pairs = gf2.decompose_elementary(T)
            assert pairs.shape == (len(pairs), 2)
            assert list(map(tuple, pairs.tolist())) == reference_decompose_elementary(T)
    assert repaired >= 20  # a zero at (1, 1) always takes a repair factor
    assert gf2.decompose_elementary(gf2.identity(7)).shape == (0, 2)


# Sizes on both sides of each byte and 64-bit word boundary of one row.
LAYOUT_SIZES = [1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 130]


def last_column_in_row_one(n):
    """The identity plus a 1 at row 1, column n: the highest bit of the first row."""
    T = gf2.identity(n)
    T[0, n - 1] = 1
    return T


@pytest.mark.parametrize(
    "shape",
    [
        lambda n: np.triu(np.ones((n, n), dtype=np.uint8)),
        lambda n: np.tril(np.ones((n, n), dtype=np.uint8)),
        lambda n: gf2.identity(n)[::-1],
        last_column_in_row_one,
    ],
    ids=["upper-ones", "lower-ones", "reversal", "last-column-in-row-one"],
)
@pytest.mark.parametrize("n", LAYOUT_SIZES)
def test_decompose_worst_case_shapes_match_reference(shape, n):
    # Synthesis holds the whole matrix as one int, row r in bits r*n ..
    # r*n+n-1.  Full triangles put a 1 in every slot's top or bottom bit,
    # the reversal needs a repair at each step of its first half, and the
    # last column of row 1 is the bit next to row 2's slot.
    T = shape(n)
    pairs = gf2.decompose_elementary(T)
    assert list(map(tuple, pairs.tolist())) == reference_decompose_elementary(T)


@pytest.mark.parametrize("n", [9, 65])
def test_decompose_singular_first_at_each_row(n):
    # Row r is a sum of the rows above it, which are independent, so
    # elimination runs cleanly up to row r and stops there.
    rng = random.Random(n)
    invertible = random_invertible(rng, n)
    for r in range(1, n + 1):
        T = invertible.copy()
        T[r - 1] = np.bitwise_xor.reduce(T[: r - 1][np.array(rng.choices([0, 1], k=r - 1), dtype=bool)], axis=0)
        with pytest.raises(gf2.SingularMatrixError) as expected:
            reference_decompose_elementary(T)
        with pytest.raises(gf2.SingularMatrixError) as got:
            gf2.decompose_elementary(T)
        assert str(got.value) == str(expected.value) == f"matrix is singular at row {r}"


def test_decompose_singular_message_matches_reference():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(2, 12)
        T = random_invertible(rng, n)
        a, b = rng.sample(range(n), 2)
        T[:, a] = T[:, b]  # two equal columns
        with pytest.raises(gf2.SingularMatrixError) as expected:
            reference_decompose_elementary(T)
        with pytest.raises(gf2.SingularMatrixError) as got:
            gf2.decompose_elementary(T)
        assert str(got.value) == str(expected.value)


def test_matrix_format_round_trip():
    text = gf2.format_matrix(TORUS_HZ)
    assert text.splitlines()[0] == "4 6"
    assert np.array_equal(gf2.parse_matrix(text), TORUS_HZ)


def test_matrix_format_empty_rows():
    M = np.zeros((0, 5), dtype=np.uint8)
    assert np.array_equal(gf2.parse_matrix(gf2.format_matrix(M)), M)


def test_parse_matrix_rejects_bad_entries():
    with pytest.raises(ValueError):
        gf2.parse_matrix("1 2\n0 2\n")
    with pytest.raises(ValueError):
        gf2.parse_matrix("2 2\n0 1\n")


def test_format_matrix_matches_row_by_row_text():
    rng = np.random.default_rng(17)
    for rows, cols in [(0, 0), (0, 3), (2, 0), (1, 1), (3, 5), (40, 97)]:
        M = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
        lines = [f"{rows} {cols}"] + [" ".join(map(str, row)) for row in M.tolist()]
        text = gf2.format_matrix(M)
        assert text == "\n".join(lines) + "\n"
        # With columns, this is the one-pass layout; it must read as the token parser reads it.
        got = gf2.parse_matrix(text)
        assert got.dtype == np.uint8 and got.flags.writeable
        assert np.array_equal(got, M) and np.array_equal(reference_parse_matrix(text), M)


def test_parse_matrix_ignores_blank_lines_and_spacing():
    M = gf2.parse_matrix("\n 2  3 \n\n1 0   1\n\t0 0 1 \n\n")
    assert M.dtype == np.uint8
    assert M.tolist() == [[1, 0, 1], [0, 0, 1]]


def test_parse_matrix_reads_any_line_separator():
    # NEL, CRLF, tabs, U+2028 and NBSP are not the written layout: the token parser reads them.
    expected = [[0, 1], [1, 0]]
    for text in ["2 2\n0 1\x851 0\n", "2 2\r\n0\t1\r\n1 0\r\n", "2 2\n0 1\u20281\u00a00"]:
        assert gf2.parse_matrix(text).tolist() == expected
        assert reference_parse_matrix(text).tolist() == expected


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty matrix text"),
        ("1 2 3\n0 1\n", "bad matrix header '1 2 3'"),
        ("+1 0_2\n0 1\n", "bad matrix header '\\+1 0_2'"),
        ("\u0661 2\n0 1\n", "bad matrix header '\u0661 2'"),
        ("1 \u00b2\n0 1\n", "bad matrix header '1 \u00b2'"),
        ("x 2\n0 1\n", "bad matrix header 'x 2'"),
        ("-1 2\n", "matrix dimensions must be nonnegative"),
        ("2 2\n0 1\n", "expected 2 matrix rows, found 1"),
        ("1 2\n0 1 1\n", "row 1 has 3 entries, expected 2"),
        ("2 2\n0 1\n1 01\n", "bad matrix entry '01' in row 2"),
        ("2 2\n0 1\n1 \u0661\n", "bad matrix entry '\u0661' in row 2"),
        ("1 2\n0 2\n", "bad matrix entry '2' in row 1"),
        # A row of no entries is a blank line, so a header with no columns
        # is checked against the blank lines, and a huge one is caught.
        ("1 0\n0\n", "row 1 has 1 entries, expected 0"),
        ("2 0\n\n0\n", "expected 2 matrix rows, found 1"),
        ("3 0\n\n", "expected 3 matrix rows, found 1"),
        ("1000000000000 0\n\n\n", "expected 1000000000000 matrix rows, found 2"),
        # Counts are bounded before int() and by numpy's largest dimension.
        pytest.param("9" * 5000 + " 3\n", f"at most {2**63 - 1}$", id="header-5000-digits"),
        pytest.param("0 99999999999999999999999\n", f"at most {2**63 - 1}$", id="header-past-intp"),
        pytest.param("0 9223372036854775808\n", f"at most {2**63 - 1}$", id="header-2**63"),
        # "\r" ends a line, so the header is "0" alone, although the first
        # "\n" comes after "0\r2".
        ("0\r2\n", "bad matrix header '0', expected 'rows cols'"),
    ],
)
def test_parse_matrix_error_messages(text, message):
    with pytest.raises(ValueError, match=message):
        gf2.parse_matrix(text)


def test_parse_matrix_header_counts_up_to_the_bound():
    assert gf2.parse_matrix("0 9999999999\n").shape == (0, 9999999999)
    assert gf2.parse_matrix(f"0 {2**63 - 1}\n").shape == (0, 2**63 - 1)
    # Leading zeros do not count toward the bound, however many there are.
    assert gf2.parse_matrix("0" * 5000 + "1 2\n0 1\n").tolist() == [[0, 1]]


def test_parse_matrix_checks_counts_before_allocating():
    # The header claims 10^8 columns over one short row.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="row 1 has 2 entries, expected 100000000"):
            gf2.parse_matrix("1 100000000\n0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
