import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from hypermap_codes import (
    CodeTooLargeError,
    CssCode,
    NoLogicalOperatorError,
    build_canonical,
    choose_special_darts,
    distance_bruteforce,
    distance_exhaustive,
    distance_split,
    hypermap_from_json,
    params,
    rotation_to_surface,
    surface_code,
    toric_rotation_graph,
    transform,
)
from hypermap_codes import distance, gf2
from util import (
    golay_css,
    random_css_code,
    random_invertible,
    reference_row_echelon,
    reference_weight_search,
    torus_hypermap,
)


def torus_code():
    H, S = torus_hypermap()
    return build_canonical(H, S)


def test_torus_canonical_distance_two():
    code = torus_code()
    assert distance_bruteforce(code) == 2
    assert distance_split(code) == (2, 2)


def test_torus_noncanonical_distance_one():
    T = gf2.elementary_matrix(1, 2, 6)
    code = transform(torus_code(), T)
    assert distance_bruteforce(code) == 1
    assert distance_split(code) == (2, 1)


def test_zero_column_gives_distance_one():
    code = CssCode(np.array([[1, 0]], dtype=np.uint8), np.array([[0, 0]], dtype=np.uint8))
    assert distance_bruteforce(code) == 1


def test_guard_rejects_large_codes():
    big = CssCode(np.zeros((1, 30), dtype=np.uint8), np.zeros((1, 30), dtype=np.uint8))
    with pytest.raises(CodeTooLargeError):
        distance_bruteforce(big)


def test_exhaustive_guard():
    big = CssCode(np.zeros((1, 20), dtype=np.uint8), np.zeros((1, 20), dtype=np.uint8))
    with pytest.raises(CodeTooLargeError):
        distance_exhaustive(big)


def test_no_logicals_raises():
    # Single subdivided edge: n = 1, k = 0.
    from hypermap_codes import Hypermap

    code = build_canonical(Hypermap.from_cycles(2, [], [[1, 2]]))
    assert params(code).k == 0
    with pytest.raises(NoLogicalOperatorError):
        distance_bruteforce(code)
    with pytest.raises(NoLogicalOperatorError):
        distance_exhaustive(code)


def test_oracle_matches_exhaustive_on_random_codes():
    rng = random.Random(53)
    for _ in range(6):
        code = random_css_code(rng, 3, 16, max_qubits=10, require_logical=True)
        assert distance_bruteforce(code) == distance_exhaustive(code)


def sector_min_weight(stab, excl) -> int:
    return distance._sector_min_weight(stab, gf2.rank(stab), gf2.row_basis(excl))


def test_sector_search_directly():
    # Kernel of [[1,1,0],[0,1,1]] is spanned by (1,1,1); excluding nothing,
    # the minimum logical weight is 3.
    stab = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    assert sector_min_weight(stab, np.zeros((0, 3), dtype=np.uint8)) == 3
    # Excluding the vector itself leaves nothing.
    assert sector_min_weight(stab, np.array([[1, 1, 1]], dtype=np.uint8)) == 0


def forced_split(code, strategy):
    """``(dx, dz)`` from one strategy alone, 0 for a sector without logicals."""
    result = []
    for stab, excl in ((code.hz, code.hx), (code.hx, code.hz)):
        cols, reducer = gf2._pack_rows(stab.T), gf2.row_basis(excl)
        if strategy == "weight":
            result.append(distance._weight_search(cols, reducer, len(cols)))
        else:
            result.append(distance._kernel_search(cols, len(stab), reducer))
    return tuple(result)


@pytest.mark.parametrize("strategy", ["weight", "kernel"])
def test_each_strategy_matches_exhaustive(strategy):
    rng = random.Random(67)
    codes = [random_css_code(rng, 2, 16, max_qubits=12) for _ in range(16)]
    # An appended zero column is a weight-1 logical in both sectors.
    codes += [CssCode(np.pad(c.hx, ((0, 0), (0, 1))), np.pad(c.hz, ((0, 0), (0, 1)))) for c in codes[:4]]
    ks = [params(code).k for code in codes]
    assert 0 in ks and any(ks)
    for code, k in zip(codes, ks):
        dx, dz = forced_split(code, strategy)
        if k == 0:
            assert (dx, dz) == (0, 0)
            with pytest.raises(NoLogicalOperatorError):
                distance_exhaustive(code)
        else:
            assert min(dx, dz) == distance_exhaustive(code)
            assert (dx, dz) == distance_split(code)


@pytest.mark.parametrize("max_qubits, seed", [(14, 65536), (2, 8)])
def test_strategies_agree_on_random_sectors(max_qubits, seed):
    # Arbitrary check matrices; the excluded rows are partly arbitrary and partly
    # drawn from ker(H), so the kernel also holds nonzero vectors inside their span.
    # Up to 14 qubits the kernel span reaches 2^14 entries; on 1-2 qubits the
    # empty, full and one-dimensional kernels all come up.
    rng = np.random.default_rng(seed)
    for _ in range(200):
        n = int(rng.integers(1, max_qubits + 1))
        stab = rng.integers(0, 2, (rng.integers(0, 7), n), dtype=np.uint8)
        K = gf2.kernel_basis(stab)
        excl = np.vstack([
            rng.integers(0, 2, (rng.integers(0, 3), n), dtype=np.uint8),
            gf2.mul(rng.integers(0, 2, (rng.integers(0, 4), len(K)), dtype=np.uint8), K),
        ])
        cols, reducer = gf2._pack_rows(stab.T), gf2.row_basis(excl)
        expected = distance._weight_search(cols, reducer, n)
        assert distance._kernel_search(cols, len(stab), reducer) == expected
        assert sector_min_weight(stab, excl) == expected


def test_weight_search_matches_reference():
    # Meet in the middle against the scan of every w-subset, at full and at random depth.
    # Excluded rows are partly drawn from ker(H), as in a CSS code, so that
    # syndrome collisions inside the excluded row space occur.
    rng = np.random.default_rng(149)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        stab = (rng.random((rng.integers(0, 8), n)) < rng.choice([0.2, 0.5])).astype(np.uint8)
        K = gf2.kernel_basis(stab)
        excl = np.vstack([
            gf2.mul(rng.integers(0, 2, (rng.integers(0, 6), len(K)), dtype=np.uint8), K),
            rng.integers(0, 2, (rng.integers(0, 2), n), dtype=np.uint8),
        ])
        cols, reducer = gf2._pack_rows(stab.T), gf2.row_basis(excl)
        expected = reference_weight_search(cols, reducer, n)
        assert distance._weight_search(cols, reducer, n) == expected
        depth = int(rng.integers(0, n + 1))
        assert distance._weight_search(cols, reducer, depth) == (expected if expected <= depth else 0)


def random_code_with_logicals(rng, n, k):
    """A random CSS code on ``n`` qubits with ``k`` logicals: ``hz`` drawn from ``ker(hx)``."""
    hx = rng.integers(0, 2, (int(rng.integers(n // 3, (2 * n) // 3 - k)), n), dtype=np.uint8)
    K = gf2.kernel_basis(hx)
    while True:
        hz = gf2.mul(rng.integers(0, 2, (n - gf2.rank(hx) - k, len(K)), dtype=np.uint8), K)
        if gf2.rank(hz) == len(hz):
            return CssCode(hx, hz)


def test_strategies_agree_past_exhaustion_guard():
    # Forced weight search against forced kernel enumeration in both sectors,
    # n = 17-24, where distance_exhaustive does not reach.
    rng = np.random.default_rng(151)
    codes = [random_code_with_logicals(rng, int(rng.integers(17, 25)), int(rng.integers(1, 4))) for _ in range(24)]
    toric = surface_code(rotation_to_surface(toric_rotation_graph(3, 4)))
    codes += [golay_css(), toric]
    basis_rng = random.Random(151)
    codes += [transform(code, random_invertible(basis_rng, code.n)) for code in codes[-2:]]
    distances = set()
    for code in codes:
        dx, dz = forced_split(code, "weight")
        assert dx and dz
        assert (dx, dz) == forced_split(code, "kernel")
        distances |= {dx, dz}
    assert distances >= {1, 2, 3, 4, 7}


def test_no_logicals_read_from_the_ranks(monkeypatch):
    calls = []
    monkeypatch.setattr(distance, "_default_kernel", lambda *args: calls.append(args) or 1)
    code = CssCode(np.zeros((0, 24), dtype=np.uint8), gf2.identity(24))
    with pytest.raises(NoLogicalOperatorError, match=r"\(k = 0\)"):
        distance_split(code)
    assert calls == []
    # The size guard still runs first.
    big = CssCode(np.zeros((0, 25), dtype=np.uint8), gf2.identity(25))
    with pytest.raises(CodeTooLargeError):
        distance_split(big)


def test_kernel_split_spans_kernel():
    # Arbitrary excluded rows, so that ker(H) meets their span in any dimension.
    rng = np.random.default_rng(131)
    for _ in range(150):
        rows, n = int(rng.integers(0, 9)), int(rng.integers(1, 17))
        stab = (rng.random((rows, n)) < rng.choice([0.1, 0.5, 0.9])).astype(np.uint8)
        excl = rng.integers(0, 2, (rng.integers(0, 9), n), dtype=np.uint8)
        reducer = gf2.row_basis(excl)
        inside, logical = distance._kernel_split(gf2._pack_rows(stab.T), rows, reducer)
        dim = n - len(reference_row_echelon(stab)[1])
        V = gf2._unpack_rows(inside + logical, n)
        assert len(V) == dim and not gf2.mul(stab, V.T).any()
        assert len(reference_row_echelon(V)[1]) == dim
        assert gf2.rows_outside(gf2._unpack_rows(inside, n), reducer) == []
        images = gf2._unpack_rows([gf2._reduce(v, *reducer) for v in logical], n)
        assert len(reference_row_echelon(images)[1]) == len(logical)


def test_kernel_depth_bounds_the_span_table():
    # Enumeration needs a logical heavier than the depth, and some logical weighs
    # at most rank + 1 = n - dim + 1, so only dim with depth <= n - dim reach it.
    enumerated = [
        dim
        for n in range(distance.MAX_ORACLE_QUBITS + 1)
        for dim in range(n + 1)
        if distance._weight_depth(n, dim) <= n - dim
    ]
    assert max(enumerated) == 18


def test_golay_distance_uses_kernel_enumeration(monkeypatch):
    depths, enumerated = [], []
    weight_search, kernel_split = distance._weight_search, distance._kernel_split

    def spy_weight(cols, reducer, max_weight):
        depths.append(max_weight)
        return weight_search(cols, reducer, max_weight)

    def spy_split(cols, rows, reducer):
        inside, logical = kernel_split(cols, rows, reducer)
        enumerated.append(len(inside) + len(logical))
        return inside, logical

    monkeypatch.setattr(distance, "_weight_search", spy_weight)
    monkeypatch.setattr(distance, "_kernel_split", spy_split)
    assert distance_split(golay_css()) == (7, 7)
    # dim ker(H) = 12: C(23,1) + C(23,2) + C(23,3) = 2047 <= 2^12 < 2047 + C(23,4).
    assert depths == [3, 3] and enumerated == [12, 12]


def test_split_eliminates_each_matrix_once(monkeypatch):
    # Toric 3x3: the weight loop finds both distances, so no kernel basis is built.
    code = surface_code(rotation_to_surface(toric_rotation_graph(3, 3)))
    forward, calls = gf2._forward, []
    monkeypatch.setattr(gf2, "_forward", lambda rows: calls.append(rows) or forward(rows))
    assert distance_split(code) == (3, 3)
    assert len(calls) == 2


def test_zero_qubit_code_has_no_logicals():
    from hypermap_codes import Hypermap, Permutation

    code = build_canonical(Hypermap(Permutation.from_cycles([], 1), Permutation.from_cycles([], 1)))
    assert code.n == 0
    with pytest.raises(NoLogicalOperatorError):
        distance_bruteforce(code)
    assert params(code).k == 0


def test_distance_invariant_under_generator_changes():
    rng = random.Random(61)
    code = torus_code()
    base = distance_bruteforce(code)
    for _ in range(5):
        # Add random row sums on both sides: row spaces are unchanged.
        hx = np.vstack([code.hx, (code.hx[0] + code.hx[1]) % 2])
        perm = rng.sample(range(code.hz.shape[0]), 2)
        hz = np.vstack([code.hz, (code.hz[perm[0]] + code.hz[perm[1]]) % 2])
        assert distance_bruteforce(CssCode(hx, hz)) == base


def test_distance_deterministic():
    code = torus_code()
    assert [distance_bruteforce(code) for _ in range(3)] == [2, 2, 2]


# A genus-1 hypermap of 15 darts with V = E = F = 5, whose canonical codes
# (n = 10, k = 2) differ in distance with the choice of special darts.
SPECIAL_CHOICE_HYPERMAP = {
    "darts": 15,
    "sigma": [[1, 6, 5], [2, 14, 12, 11, 7], [4, 10, 13, 9], [8, 15]],
    "tau": [[1, 13, 14], [2, 8, 11], [3, 5, 6], [4, 7, 10], [9, 12, 15]],
}


def test_special_darts_pick_the_distance():
    H, special = hypermap_from_json(SPECIAL_CHOICE_HYPERMAP)
    assert special is None and H.counts() == (5, 5, 5, 15) and H.genus() == 1
    splits = Counter()
    for S in product(*H.hyperedges().orbits):
        code = build_canonical(H, S)
        assert (code.n, params(code).k) == (10, 2)
        splits[distance_split(code)] += 1
    assert splits == {(2, 2): 27, (2, 1): 54, (1, 1): 162}
    default, worse = build_canonical(H), build_canonical(H, (1, 2, 3, 7, 9))
    assert choose_special_darts(H) == (1, 2, 3, 4, 9)
    assert (distance_split(default), distance_exhaustive(default)) == ((2, 2), 2)
    assert (distance_split(worse), distance_exhaustive(worse)) == ((1, 1), 1)
