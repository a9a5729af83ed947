import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from hypermap_codes import (
    CssCode,
    Hypermap,
    NotBijectiveError,
    NotConnectedError,
    OrbitPartition,
    Permutation,
    RotationGraph,
    SurfaceGraph,
    build_canonical,
    choose_special_darts,
    distance_bruteforce,
    graph_to_hypermap,
    hypermap_to_surface,
    intermediate_surface,
    nonspecial_darts,
    params,
    rotation_to_surface,
    stabilizer_equal,
    surface_code,
    toric_rotation_graph,
    verify_equivalence,
)
from hypermap_codes import chain, css, gf2, hypermap, load_hypermap, save_hypermap, surface
from hypermap_codes.cli import main
from hypermap_codes.surface import (
    rotation_graph_from_json,
    rotation_graph_to_json,
    save_surface_graph,
    surface_graph_dot,
    surface_graph_to_json,
)
from util import (
    FIXTURES,
    GOLDEN,
    random_hypermap,
    random_rotation_graph,
    random_special_darts,
    reference_boundary_rows,
    reference_rotation_faces,
    reference_surface_code,
    reference_toric_rotation_graph,
    torus_hypermap,
)


def test_torus_surface_graph_golden():
    H, S = torus_hypermap()
    G = hypermap_to_surface(H, S)
    assert G.vertex_count == 2
    assert G.labels.tolist() == [1, 2, 4, 5, 6, 8]
    assert all(sorted((a, b)) == [1, 2] for a, b, _ in G.edges)
    assert [sorted(f) for f in G.faces] == [[1, 5, 6, 8], [2, 8], [1, 2, 4, 5], [4, 6]]


def test_torus_euler_characteristic():
    H, S = torus_hypermap()
    G = hypermap_to_surface(H, S)
    assert G.vertex_count - len(G.edges) + len(G.faces) == 2 - 2 * H.genus()


def test_torus_surface_code_matches_incidence_display():
    H, S = torus_hypermap()
    code = surface_code(hypermap_to_surface(H, S))
    assert np.array_equal(code.hx, np.ones((2, 6), dtype=np.uint8))
    assert np.array_equal(code.hz, build_canonical(H, S).hz)


def test_degenerate_two_dart_hypermap():
    H = Hypermap.from_cycles(2, [], [[1, 2]])
    G = hypermap_to_surface(H, choose_special_darts(H))
    assert G.vertex_count == 2
    assert len(G.edges) == 1
    assert G.faces == (frozenset(),)
    assert G.vertex_count - len(G.edges) + len(G.faces) == 2  # sphere


def test_loop_gives_zero_column():
    G = SurfaceGraph(1, 2, [1], [[0], [0]], [[0], [1]])
    assert G.edges == ((1, 1, 1),) and G.faces == (frozenset({1}), frozenset({1}))
    code = surface_code(G)
    assert code.hx.tolist() == [[0]]
    assert code.hz.tolist() == [[1], [1]]


def test_surface_code_refuses_an_open_face_boundary():
    # Face 1 meets vertex 1 once: its boundary is not a closed walk, so the
    # support pairing finds an odd key.
    G = SurfaceGraph(2, 2, [1], [[0], [1]], [[0], [1]])
    with pytest.raises(ValueError, match=r"^hx and hz are not orthogonal over GF\(2\)$"):
        surface_code(G)


def test_surface_graph_rejects_duplicate_labels():
    with pytest.raises(ValueError, match=r"^edge 2 has label 1; labels must ascend from 1$"):
        SurfaceGraph(2, 1, [1, 1], [[0, 0], [1, 1]], [[0, 0], [0, 0]])


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: SurfaceGraph(1, 1, [1.5], [[0], [0]], [[0], [0]]), id="float-edge-label"),
        pytest.param(lambda: SurfaceGraph(1, 1, ["3"], [[0], [0]], [[0], [0]]), id="string-edge-label"),
        pytest.param(lambda: SurfaceGraph(1, 2, [1], [[0], [0]], [[0], [1.0]]), id="float-face-label"),
        pytest.param(lambda: SurfaceGraph(1, 1, [1], [[False], [False]], [[0], [0]]), id="bool-endpoint"),
        pytest.param(lambda: RotationGraph(1, ((1, 1.0),), ((1, 2),)), id="float-endpoint"),
        pytest.param(lambda: RotationGraph(1, ((1, 1),), ((1, 2.0),)), id="float-edge-end"),
        pytest.param(lambda: SurfaceGraph(1.5, 1, [1], [[0], [0]], [[0], [0]]), id="float-surface-vertex-count"),
        pytest.param(lambda: SurfaceGraph(1, "1", [1], [[0], [0]], [[0], [0]]), id="string-face-count"),
        pytest.param(lambda: RotationGraph(1.0, ((1, 1),), ((1, 2),)), id="float-rotation-vertex-count"),
    ],
)
def test_graph_labels_are_not_coerced(build):
    with pytest.raises(TypeError):
        build()


def test_graph_numpy_integer_labels_are_accepted():
    G = RotationGraph(np.int64(1), tuple(np.array([[1, 1]])), tuple(np.array([[1, 2]])))
    assert G.edges == ((1, 1),) and G.rotation == ((1, 2),)
    assert {type(x) for x in (G.vertex_count, *G.edges[0], *G.rotation[0])} == {int}


def test_end_swap_pairs_the_two_ends_of_every_edge():
    for m in range(6):
        G = RotationGraph(1, ((1, 1),) * m, (tuple(range(1, 2 * m + 1)),))
        swap = G.end_swap()
        assert swap == Permutation.from_cycles([(2 * j - 1, 2 * j) for j in range(1, m + 1)], 2 * m)
        assert swap.array.dtype == np.intp and not swap.array.flags.writeable


def test_surface_graph_holds_read_only_intp_arrays():
    ends = np.array([[0, 1], [1, 1]], dtype=np.intp)
    G = SurfaceGraph(np.int64(2), 3, np.array([2, 7], dtype=np.uint8), ends, [(0, 2), (1, 2)])
    assert (type(G.vertex_count), type(G.face_count)) == (int, int)
    assert G.ends is ends  # an intp array is kept, not copied
    for array in (G.labels, G.ends, G.sides):
        assert array.dtype == np.intp and not array.flags.writeable
    assert G.edges == ((1, 2, 2), (2, 2, 7))
    assert G.faces == (frozenset({2}), frozenset({2}), frozenset())
    assert G.edges is G.edges and G.faces is G.faces


def test_intermediate_surface_keeps_all_darts():
    H, S = torus_hypermap()
    G = intermediate_surface(H)
    assert len(G.edges) == 8
    assert len(G.faces) == 4 + 2
    # same surface: V - W + (F + E) equals the Euler characteristic
    assert G.vertex_count - len(G.edges) + len(G.faces) == 2 - 2 * H.genus()


def test_verify_equivalence_torus():
    H, S = torus_hypermap()
    code, p = verify_equivalence(H, S)
    assert (p.n, p.k) == (6, 2)
    assert np.array_equal(code.hz, build_canonical(H, S).hz)


def test_verify_equivalence_degenerate_two_dart():
    H = Hypermap.from_cycles(2, [], [[1, 2]])
    code, p = verify_equivalence(H)
    assert (p.n, p.k) == (1, 0)
    assert stabilizer_equal(surface_code(hypermap_to_surface(H)), code)


def test_verify_equivalence_randomized():
    rng = random.Random(67)
    for _ in range(30):
        H = random_hypermap(rng, 2, 16)
        S = choose_special_darts(H)
        code, p = verify_equivalence(H, S)
        assert stabilizer_equal(surface_code(hypermap_to_surface(H, S)), code)
        assert p == params(code)


def test_hypermap_to_surface_matches_reference_rows():
    rng = random.Random(2025)
    one_dart_edges = loops = 0
    for _ in range(60):
        H = random_hypermap(rng, 1, 20)
        S = random_special_darts(rng, H)
        _, p2 = reference_boundary_rows(H, S)
        basis = nonspecial_darts(H, S)
        vertex = {d: k + 1 for k, orbit in enumerate(H.vertices().orbits) for d in orbit}
        tau_pred = {img: d for d, img in enumerate(H.tau.image, start=1)}
        edges = tuple((vertex[d], vertex[tau_pred[d]], d) for d in basis)
        faces = tuple(frozenset(basis[k] for k in np.flatnonzero(row)) for row in p2)
        G = hypermap_to_surface(H, S)
        assert (G.vertex_count, G.edges, G.faces) == (len(H.vertices()), edges, faces)
        all_edges = tuple((vertex[d], vertex[tau_pred[d]], d) for d in range(1, H.n_darts + 1))
        assert intermediate_surface(H).edges == all_edges
        one_dart_edges += sum(len(e) == 1 for e in H.hyperedges().orbits)
        loops += sum(a == b for a, b, _ in G.edges)
    assert one_dart_edges and loops


def surface_cases(seed):
    """The fixture, toric L = 2-8 and random hypermaps with random special darts."""
    rng = random.Random(seed)
    cases = [load_hypermap(FIXTURES / "torus_hypermap.json")]
    cases += [graph_to_hypermap(toric_rotation_graph(L, L)) for L in range(2, 9)]
    cases += [(H, random_special_darts(rng, H)) for H in (random_hypermap(rng, 1, 24) for _ in range(40))]
    return cases


def test_verify_incidence_matches_surface_graph_paths():
    # verify reports the canonical code as the surface code; the surface
    # code of the SurfaceGraph that to-surface writes, built by label, and
    # the entry-by-entry reference both equal it.
    one_dart_edges = loops = 0
    for H, S in surface_cases(89):
        canonical, _ = verify_equivalence(H, S)
        G = hypermap_to_surface(H, S)
        code = surface_code(G)
        assert np.array_equal(canonical.hx, code.hx) and np.array_equal(canonical.hz, code.hz)
        ref_hx, ref_hz = reference_surface_code(G)
        assert np.array_equal(canonical.hx, ref_hx) and np.array_equal(canonical.hz, ref_hz)
        one_dart_edges += sum(len(e) == 1 for e in H.hyperedges().orbits)
        loops += sum(a == b for a, b, _ in G.edges)
    assert one_dart_edges and loops


def test_surface_graph_errors_name_the_first_bad_entry():
    sides = [[0, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError, match=r"^edge 9 has ends \[0, 2\], outside 0\.\.1$"):
        SurfaceGraph(2, 1, [3, 9, 12], [[0, 0, -1], [1, 2, 0]], sides)
    with pytest.raises(ValueError, match=r"^edge 3 has sides \[1, 0\], outside 0\.\.0$"):
        SurfaceGraph(2, 1, [3, 9, 12], [[0, 0, 0], [1, 1, 1]], [[1, 0, 0], [0, 0, 5]])
    with pytest.raises(ValueError, match=r"^edge 1 has label 0; labels must ascend from 1$"):
        SurfaceGraph(2, 1, [0, 9, 3], [[0, 0, 0], [1, 1, 1]], sides)
    with pytest.raises(ValueError, match=r"^edge 3 has label 3; labels must ascend from 1$"):
        SurfaceGraph(2, 1, [1, 9, 3], [[0, 0, 0], [1, 1, 1]], sides)
    for labels, sides, shapes in (
        ([1, 2, 3], [[0, 0], [0, 0], [0, 0]], "((3,), (2, 3), (3, 2))"),
        ([[1, 2, 3]], [[0, 0], [0, 0]], "((1, 3), (2, 3), (2, 2))"),
    ):
        message = f"labels, ends and sides have shapes {shapes}, expected (m,), (2, m) and (2, m)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SurfaceGraph(2, 1, labels, [[0, 0, 0], [1, 1, 1]], sides)


def test_verify_equivalence_builds_orbit_partitions_once(monkeypatch):
    built = []
    original = OrbitPartition.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(OrbitPartition, "__post_init__", counting)
    counts = []
    for L in (8, 16):
        H, S = graph_to_hypermap(toric_rotation_graph(L, L))
        built.clear()
        verify_equivalence(H, S)
        counts.append(len(built))
    assert counts[0] == counts[1] <= 3


def test_verify_equivalence_ranks_identical_codes_once(monkeypatch):
    ranked = []
    original = surface.params

    def counting(code, *args, **kwargs):
        ranked.append(code)
        return original(code, *args, **kwargs)

    monkeypatch.setattr(surface, "params", counting)
    H, S = graph_to_hypermap(toric_rotation_graph(8, 8))
    code, p = verify_equivalence(H, S)
    assert ranked == [code]
    assert p == original(code)


def test_verify_equivalence_reuses_only_an_identical_canonical_code():
    # With the special darts left to verify, the canonical code of the
    # default choice is the one reported.
    H, S = graph_to_hypermap(toric_rotation_graph(4, 4))
    code, _ = verify_equivalence(H)
    canonical = build_canonical(H, choose_special_darts(H))
    assert np.array_equal(code.hx, canonical.hx)
    assert np.array_equal(code.hz, canonical.hz)


def test_each_code_is_checked_once(monkeypatch):
    # verify builds the canonical code once, checked by pairing its column
    # supports, ranks it once, and reports it as the surface code: no dense
    # product, no second code.
    checks, ranked = [], []
    original_mul, original_from_columns, original_params = gf2.mul, CssCode.from_columns, surface.params

    def counting_mul(A, B):
        checks.append((np.shape(A), np.shape(B)))
        return original_mul(A, B)

    def counting_from_columns(cls, x_rows, x_ends, z_rows, z_ends):
        checks.append(("pairing", x_rows, z_rows, x_ends.shape[1]))
        return original_from_columns(x_rows, x_ends, z_rows, z_ends)

    monkeypatch.setattr(gf2, "mul", counting_mul)
    monkeypatch.setattr(CssCode, "from_columns", classmethod(counting_from_columns))
    monkeypatch.setattr(surface, "params", lambda code: ranked.append(code) or original_params(code))
    H, S = graph_to_hypermap(toric_rotation_graph(4, 4))
    build_canonical(H, S)
    assert checks == [("pairing", 16, 16, 32)]
    cases = [graph_to_hypermap(toric_rotation_graph(L, L)) for L in (2, 4, 7, 32)]
    cases += surface_cases(97)
    one_dart_edges = loops = 0
    for H, S in cases:
        checks.clear()
        ranked.clear()
        code, p = verify_equivalence(H, S)
        assert checks == [("pairing", len(H.vertices()), len(H.faces()), code.n)]
        assert ranked == [code]
        assert (p.n, p.k) == (code.n, original_params(code).k)
        one_dart_edges += sum(len(e) == 1 for e in H.hyperedges().orbits)
        loops += sum(a == b for a, b in code._columns[0].T.tolist())
    assert one_dart_edges and loops


@pytest.mark.parametrize("L", [24, 48])
def test_verify_equivalence_toric(L):
    # The chain condition is checked without a dense product (at 48x48 the
    # product alone peaked at 243 MiB), and the code is ranked on its column
    # arrays: no pair of dense matrices (about 21 MiB at 48x48) is built.
    H, S = graph_to_hypermap(toric_rotation_graph(L, L))
    tracemalloc.start()
    try:
        _, p = verify_equivalence(H, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (p.n, p.k) == (2 * L * L, 2)
    assert peak < 40 * 2**20


def test_hypermap_to_surface_builds_no_matrix():
    # The graph is read off the canonical code's column arrays: at 48x48
    # the two dense boundary matrices alone would take about 21 MiB.
    H, S = graph_to_hypermap(toric_rotation_graph(48, 48))
    tracemalloc.start()
    try:
        G = hypermap_to_surface(H, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (G.vertex_count, len(G.edges), len(G.faces)) == (48 * 48, 2 * 48 * 48, 48 * 48)
    assert peak < 8 * 2**20


def test_verify_equivalence_builds_no_matrix():
    # At 64x64 the two dense boundary matrices would take 64 MiB, and
    # eliminating them peaked at 74 MiB.
    H, S = graph_to_hypermap(toric_rotation_graph(64, 64))
    tracemalloc.start()
    try:
        code, p = verify_equivalence(H, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (p.n, p.k) == (2 * 64 * 64, 2)
    assert "hx" not in vars(code) and "hz" not in vars(code)
    assert peak < 8 * 2**20


def test_verify_never_fills_or_eliminates_a_matrix(monkeypatch, capsys, tmp_path):
    def refuse(*args):
        pytest.fail("verify built or eliminated a dense matrix")

    monkeypatch.setattr(chain, "_toggle_columns", refuse)
    monkeypatch.setattr(gf2, "rank", refuse)
    monkeypatch.setattr(gf2, "row_echelon", refuse)
    for L in (2, 5, 16):
        H, S = graph_to_hypermap(toric_rotation_graph(L, L))
        assert verify_equivalence(H, S)[1].k == 2
    for H, S in surface_cases(149):
        verify_equivalence(H, S)
    path = tmp_path / "toric.json"
    save_hypermap(path, *graph_to_hypermap(toric_rotation_graph(8, 8)))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "equal=true\nhypermap_code n=128 k=2\nsurface_code n=128 k=2\n"


def count_components_calls(monkeypatch) -> list:
    """Patch ``hypermap.components`` in every module that holds it; each call appends its node count."""
    calls, original = [], hypermap.components

    def counting(count, a, b):
        calls.append(count)
        return original(count, a, b)

    for module in (hypermap, css):
        assert module.components is original
        monkeypatch.setattr(module, "components", counting)
    return calls


@pytest.mark.parametrize("command", ["verify", "build"])
@pytest.mark.parametrize("L", [None, 8], ids=["torus-fixture", "toric-8x8"])
def test_verify_and_build_make_one_components_pass(monkeypatch, capsys, tmp_path, command, L):
    # The connectivity check of Hypermap.__post_init__ is the one pass: the
    # canonical code carries its component counts, so params counts none.
    path = FIXTURES / "torus_hypermap.json"
    if L is not None:
        path = tmp_path / "toric.json"
        save_hypermap(path, *graph_to_hypermap(toric_rotation_graph(L, L)))
    calls = count_components_calls(monkeypatch)
    assert main([command, str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_params_counts_the_components_of_a_disconnected_surface_code(monkeypatch):
    # One rotation graph holding two disjoint tori (2x2 and 3x3): its
    # surface code carries no counts, so params counts two components in
    # each sector, and k = 2 + 2.
    tori = toric_rotation_graph(2, 2), toric_rotation_graph(3, 3)
    v, h = tori[0].vertex_count, 2 * len(tori[0].edges)
    G = RotationGraph(
        v + tori[1].vertex_count,
        tori[0].edges + tuple((a + v, b + v) for a, b in tori[1].edges),
        tori[0].rotation + tuple(tuple(x + h for x in cycle) for cycle in tori[1].rotation),
    )
    code = surface_code(rotation_to_surface(G))
    assert code._components is None
    calls = count_components_calls(monkeypatch)
    p = params(code)
    assert calls == [v + tori[1].vertex_count, code._rows[1]]
    assert (p.n, p.k) == (8 + 18, 4)
    assert p.k == code.n - gf2.rank(code.hx) - gf2.rank(code.hz)


def test_hypermap_to_surface_keeps_the_pairing_check(monkeypatch):
    # Columns that break the chain condition are refused, as boundary_pair
    # refuses them.
    H, S = graph_to_hypermap(toric_rotation_graph(3, 3))
    darts, (x_rows, x_ends, z_rows, z_ends) = chain._canonical_columns(H, S)
    x_ends[1, 0] = (x_ends[1, 0] + 1) % x_rows
    monkeypatch.setattr(surface, "_canonical_columns", lambda H, S: (darts, (x_rows, x_ends, z_rows, z_ends)))
    with pytest.raises(ValueError, match="not orthogonal"):
        hypermap_to_surface(H, S)


def test_incidence_columns_have_weight_zero_or_two():
    rng = random.Random(79)
    graphs = [rotation_to_surface(toric_rotation_graph(2, 2))]
    graphs += [hypermap_to_surface(random_hypermap(rng, 2, 14)) for _ in range(10)]
    graphs += [rotation_to_surface(random_rotation_graph(rng)) for _ in range(10)]
    for G in graphs:
        code = surface_code(G)
        loops = {label for a, b, label in G.edges if a == b}
        for k, label in enumerate(G.labels.tolist()):
            weight = int(code.hx[:, k].sum())
            assert weight == (0 if label in loops else 2)


def test_surface_code_matches_entry_by_entry_reference():
    rng = random.Random(83)
    graphs = [rotation_to_surface(toric_rotation_graph(3, 3)), intermediate_surface(torus_hypermap()[0])]
    graphs += [hypermap_to_surface(random_hypermap(rng, 1, 30)) for _ in range(20)]
    graphs += [intermediate_surface(random_hypermap(rng, 1, 30)) for _ in range(10)]
    graphs += [rotation_to_surface(random_rotation_graph(rng)) for _ in range(20)]
    # Labels with gaps, a loop in no face, and a graph with no edges.
    graphs.append(SurfaceGraph(3, 2, [2, 5, 7, 30], [[0, 2, 0, 1], [1, 0, 0, 2]], [[0, 0, 1, 0], [1, 1, 1, 1]]))
    graphs.append(SurfaceGraph(2, 1, [], [[], []], [[], []]))
    loops = 0
    for G in graphs:
        code = surface_code(G)
        hx, hz = reference_surface_code(G)
        assert np.array_equal(code.hx, hx) and np.array_equal(code.hz, hz)
        loops += sum(a == b for a, b, _ in G.edges)
    assert loops


def test_toric_rotation_graph_faces():
    for rows, cols in ((1, 1), (2, 2), (3, 3), (2, 3)):
        G = toric_rotation_graph(rows, cols)
        faces = rotation_to_surface(G).face_count
        assert faces == rows * cols
        assert G.vertex_count - len(G.edges) + faces == 0  # genus 1


def test_toric_rotation_graph_needs_positive_dimensions():
    for rows, cols in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError, match=r"^grid dimensions must be positive$"):
            toric_rotation_graph(rows, cols)


def test_rotation_to_surface_needs_an_edge():
    with pytest.raises(ValueError, match=r"^face traversal needs at least one edge$"):
        rotation_to_surface(RotationGraph(1, (), ((),)))


def test_toric_2x2_code_parameters():
    code = surface_code(rotation_to_surface(toric_rotation_graph(2, 2)))
    p = params(code)
    assert (p.n, p.k) == (8, 2)
    assert distance_bruteforce(code) == 2


def test_toric_3x3_code_parameters():
    code = surface_code(rotation_to_surface(toric_rotation_graph(3, 3)))
    p = params(code)
    assert (p.n, p.k) == (18, 2)
    assert distance_bruteforce(code) == 3


def test_graph_to_hypermap_single_loop():
    G = RotationGraph(1, ((1, 1),), ((1, 2),))
    H, S = graph_to_hypermap(G)
    assert H.tau == Permutation.from_cycles([[1, 2]], 2)
    assert H.sigma == Permutation.from_cycles([[1, 2]], 2)
    assert S == (1,)


def test_graph_to_hypermap_two_dart_hyperedges():
    rng = random.Random(71)
    for _ in range(15):
        G = random_rotation_graph(rng)
        H, S = graph_to_hypermap(G)
        assert all(len(orbit) == 2 for orbit in H.hyperedges().orbits)
        assert len(S) == len(G.edges)


def test_graph_to_hypermap_code_equivalence():
    G = toric_rotation_graph(2, 2)
    H, S = graph_to_hypermap(G)
    assert stabilizer_equal(surface_code(rotation_to_surface(G)), build_canonical(H, S))


def test_round_trip_recovers_graph():
    rng = random.Random(73)
    for _ in range(15):
        G = random_rotation_graph(rng)
        _assert_round_trip(G)
    _assert_round_trip(toric_rotation_graph(2, 2))


def _assert_round_trip(G):
    H, S = graph_to_hypermap(G)
    out = hypermap_to_surface(H, S)
    assert out.vertex_count == G.vertex_count
    # vertex mapping: input vertex -> orbit of its rotation's edge-ends
    verts = H.vertices()
    mu = {}
    for v, cycle in enumerate(G.rotation, start=1):
        assert cycle, "connected graphs have no isolated vertices"
        mu[v] = verts.orbit_index(cycle[0]) + 1
    assert sorted(mu.values()) == list(range(1, G.vertex_count + 1))
    expected = sorted(
        (tuple(sorted((mu[a], mu[b]))), j) for j, (a, b) in enumerate(G.edges, start=1)
    )
    actual = sorted(
        (tuple(sorted((a, b))), (label + 1) // 2) for a, b, label in out.edges
    )
    assert actual == expected
    # faces agree as edge-index supports
    expected_faces = sorted(sorted(f) for f in rotation_to_surface(G).faces)
    actual_faces = sorted(sorted((label + 1) // 2 for label in f) for f in out.faces)
    assert actual_faces == expected_faces
    # and the codes match
    assert stabilizer_equal(surface_code(rotation_to_surface(G)), build_canonical(H, S))


def test_graph_to_hypermap_rejects_empty_graph():
    with pytest.raises(NotConnectedError):
        graph_to_hypermap(RotationGraph(1, (), ((),)))


def test_graph_to_hypermap_rejects_disconnected():
    G = RotationGraph(2, ((1, 1), (2, 2)), ((1, 2), (3, 4)))
    with pytest.raises(NotConnectedError):
        graph_to_hypermap(G)


def test_rotation_graph_validation():
    with pytest.raises(ValueError, match=r"^edge-end 2 belongs at vertex 2, listed at 1$"):
        RotationGraph(2, ((1, 2),), ((1, 2), ()))
    with pytest.raises(ValueError, match=r"^rotation must list every edge-end exactly once$"):
        RotationGraph(1, ((1, 1),), ((1,),))
    # Range and repeats are checked by the rotation's permutation.
    with pytest.raises(ValueError, match=r"^cycle entry 3 out of range 1\.\.2$"):
        RotationGraph(1, ((1, 1),), ((1, 3),))
    with pytest.raises(NotBijectiveError, match=r"^label 1 appears in two cycles$"):
        RotationGraph(2, ((1, 2),), ((1,), (1,)))


def test_rotation_graph_sigma_is_built_once():
    G = toric_rotation_graph(3, 2)
    assert G.sigma() is G.sigma()
    assert G.sigma() == Permutation.from_cycles(G.rotation, 2 * len(G.edges))


def test_toric_rotation_graph_matches_dict_built_reference():
    for rows in range(1, 9):
        for cols in range(1, 9):
            assert toric_rotation_graph(rows, cols) == reference_toric_rotation_graph(rows, cols)


def test_surface_graph_json_round_trip(tmp_path):
    H, S = torus_hypermap()
    G = hypermap_to_surface(H, S)
    data = surface_graph_to_json(G)
    assert data == json.loads((FIXTURES / "torus_surface_graph.json").read_text())
    save_surface_graph(tmp_path / "graph.json", G)
    assert json.loads((tmp_path / "graph.json").read_text()) == data


def test_rotation_graph_json_round_trip():
    G = toric_rotation_graph(2, 3)
    assert rotation_graph_from_json(rotation_graph_to_json(G)) == G


def test_dot_exports_mention_edges():
    H, S = torus_hypermap()
    dot = surface_graph_dot(hypermap_to_surface(H, S))
    assert 'v1 -- v2 [label="1"];' in dot
    assert "// face 2: 2 8" in dot


@pytest.mark.parametrize("name", ["torus", "toric3x3", "random"])
def test_to_surface_outputs_match_goldens(tmp_path, capsys, name):
    # The goldens were written before SurfaceGraph held its edges as ends
    # and sides; the random hypermap has loops, a one-dart hyperedge and
    # edges in no face.
    source = FIXTURES / "torus_hypermap.json" if name == "torus" else GOLDEN / f"{name}.json"
    graph = FIXTURES / "torus_surface_graph.json" if name == "torus" else GOLDEN / f"{name}_graph.json"
    out = {suffix: tmp_path / f"{name}{suffix}" for suffix in ("_graph.json", ".dot", "_intermediate.dot")}
    argv = ["to-surface", str(source), "--out-graph", str(out["_graph.json"])]
    argv += ["--dot", str(out[".dot"]), "--intermediate-dot", str(out["_intermediate.dot"])]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert out["_graph.json"].read_bytes() == graph.read_bytes()
    for suffix in (".dot", "_intermediate.dot"):
        assert out[suffix].read_bytes() == (GOLDEN / f"{name}{suffix}").read_bytes()


def test_rotation_to_surface_faces_match_per_end_reference():
    rng = random.Random(131)
    graphs = [toric_rotation_graph(rows, cols) for rows, cols in ((1, 1), (2, 2), (3, 4))]
    graphs += [random_rotation_graph(rng, max_edges=12) for _ in range(60)]
    loops = shared = 0
    for G in graphs:
        out = rotation_to_surface(G)
        assert out.faces == reference_rotation_faces(G)
        assert out.edges == tuple((a, b, j) for j, (a, b) in enumerate(G.edges, start=1))
        loops += sum(a == b for a, b in G.edges)
        shared += int(np.sum(out.sides[0] == out.sides[1]))
    assert loops and shared


def test_surface_code_checks_by_support_pairing_only(monkeypatch):
    paired = []
    original_from_columns = CssCode.from_columns

    def counting_from_columns(cls, x_rows, x_ends, z_rows, z_ends):
        paired.append((x_rows, x_ends, z_rows, z_ends))
        return original_from_columns(x_rows, x_ends, z_rows, z_ends)

    def no_product(A, B):
        raise AssertionError("surface_code formed a matrix product")

    monkeypatch.setattr(CssCode, "from_columns", classmethod(counting_from_columns))
    monkeypatch.setattr(gf2, "mul", no_product)
    rng = random.Random(137)
    graphs = [rotation_to_surface(toric_rotation_graph(4, 4)), intermediate_surface(torus_hypermap()[0])]
    graphs += [hypermap_to_surface(random_hypermap(rng, 1, 24)) for _ in range(10)]
    for G in graphs:
        paired.clear()
        surface_code(G)
        assert len(paired) == 1
        x_rows, x_ends, z_rows, z_ends = paired[0]
        assert (x_rows, z_rows) == (G.vertex_count, G.face_count)
        assert x_ends is G.ends and z_ends is G.sides


def test_hypermap_to_surface_passes_its_columns_through(monkeypatch):
    H, S = graph_to_hypermap(toric_rotation_graph(3, 3))
    labels = list(nonspecial_darts(H, S))
    darts, columns = chain._canonical_columns(H, S)
    # The edge labels are the nonspecial darts of the columns, not built again.
    monkeypatch.setattr(surface, "_canonical_columns", lambda H, S: (darts, columns))
    monkeypatch.setattr(chain, "_nonspecial", lambda *args: pytest.fail("nonspecial darts built twice"))
    G = hypermap_to_surface(H, S)
    assert G.ends is columns[1] and G.sides is columns[3]
    assert (G.vertex_count, G.face_count) == (columns[0], columns[2])
    assert G.labels.tolist() == labels
