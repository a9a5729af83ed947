import random
from collections import Counter

import numpy as np
import pytest

import hypermap_codes
from hypermap_codes import (
    CssCode,
    Hypermap,
    Permutation,
    apply_basis_change,
    boundary_pair,
    choose_special_darts,
    dart_vertex_sum,
    face_dart_sum,
    graph_to_hypermap,
    hypermap_to_surface,
    nonspecial_darts,
    project_nonspecial,
    toric_rotation_graph,
)
from hypermap_codes import chain, css, gf2
from hypermap_codes.hypermap import components
from util import (
    random_cycle_hypermap,
    random_hypermap,
    random_invertible,
    random_special_darts,
    reference_boundary_rows,
    torus_hypermap,
)

TORUS_P2 = np.array(
    [
        [1, 0, 0, 1, 1, 1],
        [0, 1, 0, 0, 0, 1],
        [1, 1, 1, 1, 0, 0],
        [0, 0, 1, 0, 1, 0],
    ],
    dtype=np.uint8,
)


def support(vec):
    return [int(i) + 1 for i in np.flatnonzero(vec)]


def test_face_dart_sums_torus():
    H, _ = torus_hypermap()
    # faces ordered by smallest dart: {1,7}, {2,8}, {3,5}, {4,6}
    assert support(face_dart_sum(H, 0)) == [1, 7]
    assert support(face_dart_sum(H, 1)) == [2, 8]
    assert support(face_dart_sum(H, 2)) == [3, 5]
    assert support(face_dart_sum(H, 3)) == [4, 6]


def test_face_dart_sum_single_dart():
    H = Hypermap(Permutation.from_cycles([], 1), Permutation.from_cycles([], 1))
    assert support(face_dart_sum(H, 0)) == [1]


def test_dart_vertex_sum_torus():
    H, _ = torus_hypermap()
    assert dart_vertex_sum(H, 1).tolist() == [1, 1]
    # tau^-1(2) = 1 sits on the other vertex orbit
    assert dart_vertex_sum(H, 2).tolist() == [1, 1]


def test_dart_vertex_sum_loop_cancels():
    # Both ends of the single loop edge sit on the same vertex.
    H = Hypermap.from_cycles(2, [[1, 2]], [[1, 2]])
    assert dart_vertex_sum(H, 1).tolist() == [0]


def test_hyperedge_dart_sums():
    # The dart sum of hyperedge e is the indicator of H.hyperedges().array == e.
    H, _ = torus_hypermap()
    assert support(H.hyperedges().array == 0) == [1, 2, 3, 4]
    assert support(H.hyperedges().array == 1) == [5, 6, 7, 8]
    single = Hypermap(Permutation.from_cycles([], 1), Permutation.from_cycles([], 1))
    assert support(single.hyperedges().array == 0) == [1]


def test_project_replaces_special_darts():
    H, S = torus_hypermap()
    w1_w7 = np.zeros(8, dtype=np.uint8)
    w1_w7[[0, 6]] = 1
    # w7 is special: replaced by w5 + w6 + w8
    assert project_nonspecial(H, S, w1_w7).tolist() == [1, 0, 0, 1, 1, 1]
    w3_w5 = np.zeros(8, dtype=np.uint8)
    w3_w5[[2, 4]] = 1
    assert project_nonspecial(H, S, w3_w5).tolist() == [1, 1, 1, 1, 0, 0]


def test_project_identity_on_nonspecial_input():
    H, S = torus_hypermap()
    basis = nonspecial_darts(H, S)
    assert basis == (1, 2, 4, 5, 6, 8)
    x = np.zeros(8, dtype=np.uint8)
    x[[1, 7]] = 1  # w2 + w8, nothing special
    coords = project_nonspecial(H, S, x)
    assert coords.tolist() == [0, 1, 0, 0, 0, 1]
    # re-embedding and projecting again changes nothing
    back = np.zeros(8, dtype=np.uint8)
    for k, d in enumerate(basis):
        back[d - 1] = coords[k]
    assert np.array_equal(project_nonspecial(H, S, back), coords)


def test_project_kills_full_hyperedge_sums():
    H, S = torus_hypermap()
    for e in range(2):
        assert not project_nonspecial(H, S, (H.hyperedges().array == e).astype(np.uint8)).any()


def test_edge_relation_also_cancels_in_vertex_map():
    H, _ = torus_hypermap()
    for e in range(2):
        total = np.zeros(2, dtype=np.uint8)
        for d in H.hyperedges().orbits[e]:
            total ^= dart_vertex_sum(H, d)
        assert not total.any()


def test_boundary_pair_torus_golden():
    H, S = torus_hypermap()
    code = boundary_pair(H, S)
    assert isinstance(code, CssCode)
    assert np.array_equal(code.hx, np.ones((2, 6), dtype=np.uint8))
    assert np.array_equal(code.hz, TORUS_P2)
    assert hypermap_to_surface(H, S).labels.tolist() == [1, 2, 4, 5, 6, 8]


def test_one_code_type():
    assert hypermap_codes.CssCode is css.CssCode is chain.CssCode is CssCode


def test_boundary_rows_sum_to_zero():
    H, S = torus_hypermap()
    code = boundary_pair(H, S)
    assert not (code.hz.sum(axis=0) % 2).any()
    # the last face row is the sum of the other three
    assert np.array_equal(code.hz[3], (code.hz[0] + code.hz[1] + code.hz[2]) % 2)


def test_boundary_pair_chain_condition_random():
    rng = random.Random(41)
    for _ in range(40):
        H = random_hypermap(rng, 2, 16)
        code = boundary_pair(H, choose_special_darts(H))
        assert not ((code.hx @ code.hz.T) % 2).any()
        assert not (code.hz.sum(axis=0) % 2).any()


def _dense(rows, ends):
    """The matrix whose column ``k`` toggles rows ``ends[:, k]``, one entry at a time."""
    M = np.zeros((rows, ends.shape[1]), dtype=np.uint8)
    for k, (a, b) in enumerate(ends.T):
        M[a, k] ^= 1
        M[b, k] ^= 1
    return M


def column_array_cases():
    """``(x_rows, x_ends, z_rows, z_ends)`` of canonical codes and of random column arrays.

    The canonical arrays come from toric 2-8 and 40 random hypermaps, each
    also with one face incidence moved.  Random arrays have zero columns,
    repeated columns and often one row; half of them list every column
    twice, in shuffled order, so they are orthogonal unless one entry is
    then changed.
    """
    rng = random.Random(97)
    hypermaps = [graph_to_hypermap(toric_rotation_graph(L, L)) for L in range(2, 9)]
    hypermaps += [(H, random_special_darts(rng, H)) for H in (random_hypermap(rng, 1, 24) for _ in range(40))]
    cases = []
    for H, S in hypermaps:
        code = boundary_pair(H, S)
        x_ends, z_ends = code._columns
        assert not x_ends.flags.writeable and not z_ends.flags.writeable
        cases.append((code.hx.shape[0], x_ends, code.hz.shape[0], z_ends))
        if code.n:
            moved = z_ends.copy()
            moved[1, rng.randrange(code.n)] = rng.randrange(code.hz.shape[0])
            cases.append((code.hx.shape[0], x_ends, code.hz.shape[0], moved))
    draw = np.random.default_rng(97)
    for _ in range(400):
        x_rows, z_rows, n = (int(v) for v in draw.integers([1, 1, 0], [7, 7, 9]))
        x_ends, z_ends = draw.integers(0, x_rows, (2, n)), draw.integers(0, z_rows, (2, n))
        for ends in (x_ends, z_ends):
            zero = draw.random(n) < 0.2
            ends[1, zero] = ends[0, zero]
        if draw.random() < 0.5:
            order = draw.permutation(2 * n)
            x_ends, z_ends = np.tile(x_ends, 2)[:, order], np.tile(z_ends, 2)[:, order]
            if n and draw.random() < 0.3:
                z_ends[0, 0] = draw.integers(z_rows)
        elif n:
            x_ends[:, -1], z_ends[:, -1] = x_ends[:, 0], z_ends[:, 0]
        cases.append((x_rows, x_ends, z_rows, z_ends))
    return cases


def test_pairing_verdict_matches_product():
    verdicts = Counter()
    for x_rows, x_ends, z_rows, z_ends in column_array_cases():
        hx, hz = _dense(x_rows, x_ends), _dense(z_rows, z_ends)
        odd = bool(np.any(gf2.mul(hx, hz.T)))
        verdicts[odd] += 1
        if odd:
            with pytest.raises(ValueError, match=r"^hx and hz are not orthogonal over GF\(2\)$"):
                CssCode.from_columns(x_rows, x_ends, z_rows, z_ends)
        else:
            code = CssCode.from_columns(x_rows, x_ends, z_rows, z_ends)
            assert np.array_equal(code.hx, hx) and np.array_equal(code.hz, hz)
    assert verdicts[True] > 60 and verdicts[False] > 200
    with pytest.raises(ValueError, match="^hx has 2 columns but hz has 3$"):
        CssCode.from_columns(1, np.zeros((2, 2), dtype=np.intp), 1, np.zeros((2, 3), dtype=np.intp))


def test_boundary_pair_matches_reference_helpers():
    rng = random.Random(2024)
    one_dart_edges = loops = 0
    for _ in range(60):
        H = random_hypermap(rng, 1, 20)
        S = random_special_darts(rng, H)
        p1, p2 = reference_boundary_rows(H, S)
        code = boundary_pair(H, S)
        assert np.array_equal(code.hx, p1)
        assert np.array_equal(code.hz, p2)
        assert tuple(hypermap_to_surface(H, S).labels.tolist()) == nonspecial_darts(H, S)
        one_dart_edges += sum(len(e) == 1 for e in H.hyperedges().orbits)
        loops += int(np.sum(~p1.any(axis=0)))
    assert one_dart_edges and loops


def graph_column_cases():
    """``(rows, ends)``: random graphs on the rows, one edge per column.

    Among them are loops (zero columns), rows that no nonzero column
    touches, graphs of several components, and graphs with no columns.
    """
    draw = np.random.default_rng(131)
    cases = [(0, np.zeros((2, 0), dtype=np.intp)), (3, np.zeros((2, 0), dtype=np.intp))]
    for _ in range(500):
        rows, n = int(draw.integers(1, 13)), int(draw.integers(0, 16))
        used = int(draw.integers(1, rows + 1))  # rows past ``used`` touch no column
        ends = draw.integers(0, used, (2, n))
        loop = draw.random(n) < 0.2
        ends[1, loop] = ends[0, loop]
        cases.append((rows, ends))
    return cases


def test_component_rank_matches_elimination():
    seen = Counter()
    for rows, ends in graph_column_cases():
        trees, _ = components(rows, *ends)
        assert rows - trees == gf2.rank(chain._toggle_columns(rows, *ends))
        nonzero = ends[:, ends[0] != ends[1]]
        seen["loop"] += nonzero.shape[1] < ends.shape[1]
        seen["isolated row"] += len(set(nonzero.ravel().tolist())) < rows
        seen["disconnected"] += trees > 1
        seen["no columns"] += not ends.size
    assert len(seen) == 4 and min(seen.values()) >= 2


def test_params_ranks_column_built_codes_by_components(monkeypatch):
    # Every orthogonal case of column_array_cases (toric and random
    # hypermaps, random arrays) ranked by components, against elimination
    # of the matrices built one entry at a time.
    checked, rank = 0, gf2.rank
    monkeypatch.setattr(gf2, "rank", lambda M: pytest.fail("gf2.rank called on a column-built code"))
    for x_rows, x_ends, z_rows, z_ends in column_array_cases():
        try:
            code = CssCode.from_columns(x_rows, x_ends, z_rows, z_ends)
        except ValueError:
            continue
        expected = code.n - rank(_dense(x_rows, x_ends)) - rank(_dense(z_rows, z_ends))
        p = css.params(code)
        assert (p.n, p.k) == (x_ends.shape[1], expected)
        assert "hx" not in vars(code) and "hz" not in vars(code)
        checked += 1
    assert checked > 200


def test_canonical_code_has_one_component_in_each_sector():
    # The hx graph (vertices, one edge per nonspecial dart) and the hz graph
    # (faces) of every canonical code are connected, whatever the special
    # darts, so its ranks are V - 1 and F - 1 and k = 2g.
    rng = random.Random(251)
    hypermaps = [torus_hypermap()[0]]
    hypermaps += [graph_to_hypermap(toric_rotation_graph(L, L))[0] for L in range(2, 9)]
    hypermaps += [random_cycle_hypermap(rng, rng.randint(1, 6), length) for length in (3, 4) for _ in range(20)]
    for H in hypermaps:
        for S in (choose_special_darts(H), random_special_darts(rng, H)):
            code = boundary_pair(H, S)
            assert [components(rows, *ends)[0] for rows, ends in zip(code._rows, code._columns)] == [1, 1]
            assert code._components == (1, 1)
            assert css.params(code).k == 2 * H.genus()


def test_special_dart_labels_go_through_index():
    # Numpy integers and booleans name the same darts as ints, as
    # choose_special_darts reads them; a float is refused with its error.
    H, S = torus_hypermap()
    expected = boundary_pair(H, S)
    for labels in (np.array(S), [np.int32(3), np.int64(7)]):
        code = boundary_pair(H, labels)
        assert (code.hx.tolist(), code.hz.tolist()) == (expected.hx.tolist(), expected.hz.tolist())
    H1 = Hypermap.from_cycles(3, [[1, 2, 3]], [[1, 2, 3]])
    assert boundary_pair(H1, (True,)).hx.tolist() == boundary_pair(H1, (1,)).hx.tolist()
    assert nonspecial_darts(H1, (True,)) == nonspecial_darts(H1, (1,)) == (2, 3)
    graphs = [hypermap_codes.surface.surface_graph_to_json(hypermap_to_surface(H1, S1)) for S1 in ((True,), (1,))]
    assert graphs[0] == graphs[1]
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        boundary_pair(H, (3.0, 7))
    # nonspecial_darts checks its labels as boundary_pair does.
    with pytest.raises(ValueError, match=r"^special dart 0 out of range 1\.\.8$"):
        nonspecial_darts(H, (0, 5))


def test_params_ranks_dense_codes_by_elimination(monkeypatch):
    ranked = []
    original = gf2.rank
    monkeypatch.setattr(gf2, "rank", lambda M: ranked.append(M.shape) or original(M))
    H, S = torus_hypermap()
    code = boundary_pair(H, S)
    assert css.params(CssCode(code.hx, code.hz)).k == 2
    assert ranked == [(2, 6), (4, 6)]


def test_first_read_fills_each_matrix_bit_for_bit():
    # A column-built code holds no matrix until one is read; each read
    # then matches the dense build of the same columns, bit for bit.
    rng = random.Random(137)
    cases = [torus_hypermap()]
    cases += [graph_to_hypermap(toric_rotation_graph(L, L)) for L in (2, 3, 5, 8)]
    cases += [(H, random_special_darts(rng, H)) for H in (random_hypermap(rng, 1, 24) for _ in range(40))]
    for H, S in cases:
        code = boundary_pair(H, S)
        _, (x_rows, x_ends, z_rows, z_ends) = chain._canonical_columns(H, S)
        assert "hx" not in vars(code) and "hz" not in vars(code)
        assert code.n == x_ends.shape[1]
        for name, rows, ends in (("hz", z_rows, z_ends), ("hx", x_rows, x_ends)):
            matrix = getattr(code, name)
            dense = chain._toggle_columns(rows, *ends)
            assert (matrix.dtype, matrix.shape, matrix.tobytes()) == (dense.dtype, dense.shape, dense.tobytes())
            assert np.array_equal(matrix, _dense(rows, ends))
            assert not matrix.flags.writeable
            assert getattr(code, name) is matrix
        with pytest.raises(AttributeError, match="no attribute 'hy'"):
            code.hy


def test_basis_change_identity_is_noop():
    H, S = torus_hypermap()
    code = boundary_pair(H, S)
    out = apply_basis_change(code, gf2.identity(6))
    assert np.array_equal(out.hx, code.hx)
    assert np.array_equal(out.hz, code.hz)


def test_basis_change_golden_rows():
    # New basis: first vector stays, second becomes the sum of the first two.
    H, S = torus_hypermap()
    T = gf2.elementary_matrix(1, 2, 6)
    out = apply_basis_change(boundary_pair(H, S), T)
    assert out.hx.tolist() == [[1, 0, 1, 1, 1, 1]] * 2
    assert out.hz.tolist() == [
        [1, 0, 0, 1, 1, 1],
        [1, 1, 0, 0, 0, 1],
        [0, 1, 1, 1, 0, 0],
        [0, 0, 1, 0, 1, 0],
    ]


def test_noncanonical_face_row_pinned_by_expansion():
    """Pin the one row of the changed-basis face matrix that is easy to slip on.

    The face with boundary w2 + w8 re-expands over the changed basis
    {w1, w1+w2, w4, w5, w6, w8} as w1 + (w1+w2) + w8, coordinates
    (1,1,0,0,0,1).  The similar-looking (1,1,1,0,0,0) is *also* orthogonal
    to the changed vertex matrix, so the orthogonality invariant alone
    cannot catch a slip here; only the expansion fixes the row.
    """
    H, S = torus_hypermap()
    T = gf2.elementary_matrix(1, 2, 6)
    out = apply_basis_change(boundary_pair(H, S), T)
    expansion = [1, 1, 0, 0, 0, 1]
    lookalike = [1, 1, 1, 0, 0, 0]
    row_for_w2_w8_face = out.hz[1]
    assert row_for_w2_w8_face.tolist() == expansion
    assert row_for_w2_w8_face.tolist() != lookalike
    for candidate in (expansion, lookalike):
        assert not ((out.hx @ np.array(candidate, dtype=np.uint8)) % 2).any()


def test_basis_change_round_trip():
    rng = random.Random(43)
    H, S = torus_hypermap()
    code = boundary_pair(H, S)
    for _ in range(20):
        T = random_invertible(rng, 6)
        out = apply_basis_change(apply_basis_change(code, T), gf2.invert(T))
        assert np.array_equal(out.hx, code.hx)
        assert np.array_equal(out.hz, code.hz)


def test_basis_change_rejects_singular():
    H, S = torus_hypermap()
    with pytest.raises(gf2.SingularMatrixError):
        apply_basis_change(boundary_pair(H, S), np.zeros((6, 6), dtype=np.uint8))



def test_codes_compare_by_identity_and_repr_fills_no_matrix():
    # Dataclass equality on numpy arrays raised, and repr and == filled both
    # matrices of a column-built code first.
    H, S = graph_to_hypermap(toric_rotation_graph(8, 8))
    code, other = boundary_pair(H, S), boundary_pair(H, S)
    assert repr(code) == "CssCode(n=128, hx_rows=64, hz_rows=64)"
    assert code == code and code != other and len({code, other}) == 2
    assert "hx" not in vars(code) and "hz" not in vars(code)
    assert "hx" not in vars(other) and "hz" not in vars(other)
    dense = CssCode(code.hx, code.hz)
    assert repr(dense) == repr(code) and dense != code and hash(dense) == hash(dense)


def test_project_nonspecial_reads_special_darts_once():
    H, S = torus_hypermap()
    x = np.zeros(8, dtype=np.uint8)
    x[[2, 6]] = 1  # both special darts
    expected = project_nonspecial(H, S, x)
    assert np.array_equal(project_nonspecial(H, iter(S), x), expected)
    assert expected.tolist() == [1, 1, 1, 1, 1, 1]
