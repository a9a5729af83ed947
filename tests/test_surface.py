import json
import random
import tracemalloc
from collections import Counter

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
    boundary_pair,
    build_canonical,
    choose_special_darts,
    distance_bruteforce,
    graph_to_hypermap,
    hypermap_to_surface,
    intermediate_surface,
    nonspecial_darts,
    params,
    rotation_faces,
    rotation_to_surface,
    stabilizer_equal,
    surface_code,
    toric_rotation_graph,
    verify_equivalence,
)
from hypermap_codes import chain, gf2, load_hypermap, surface
from hypermap_codes.surface import (
    rotation_graph_from_json,
    rotation_graph_to_json,
    surface_graph_dot,
    surface_graph_to_json,
)
from util import (
    FIXTURES,
    random_hypermap,
    random_rotation_graph,
    random_special_darts,
    reference_boundary_rows,
    reference_surface_code,
    reference_toric_rotation_graph,
    torus_hypermap,
)


def test_torus_surface_graph_golden():
    H, S = torus_hypermap()
    G = hypermap_to_surface(H, S)
    assert G.vertex_count == 2
    assert G.edge_labels == (1, 2, 4, 5, 6, 8)
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
    G = SurfaceGraph(1, ((1, 1, 1),), (frozenset({1}), frozenset({1})))
    code = surface_code(G)
    assert code.hx.tolist() == [[0]]
    assert code.hz.tolist() == [[1], [1]]


def test_surface_graph_rejects_odd_face_incidence():
    with pytest.raises(ValueError):
        SurfaceGraph(2, ((1, 2, 1),), (frozenset({1}),))


def test_surface_graph_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        SurfaceGraph(2, ((1, 2, 1), (1, 2, 1)), ())


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: SurfaceGraph(1, ((1, 1, 1.5),), ()), id="float-edge-label"),
        pytest.param(
            lambda: SurfaceGraph(1, ((1, 1, 1),), (frozenset({1.0}), frozenset({1}))), id="float-face-label"
        ),
        pytest.param(lambda: RotationGraph(1, ((1, 1.0),), ((1, 2),)), id="float-endpoint"),
        pytest.param(lambda: RotationGraph(1, ((1, 1),), ((1, 2.0),)), id="float-edge-end"),
        pytest.param(lambda: SurfaceGraph(1.5, ((1, 1, 1),), ()), id="float-surface-vertex-count"),
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


def test_intermediate_surface_keeps_all_darts():
    H, S = torus_hypermap()
    G = intermediate_surface(H)
    assert len(G.edges) == 8
    assert len(G.faces) == 4 + 2
    # same surface: V - W + (F + E) equals the Euler characteristic
    assert G.vertex_count - len(G.edges) + len(G.faces) == 2 - 2 * H.genus()


def test_verify_equivalence_torus():
    H, S = torus_hypermap()
    report = verify_equivalence(H, S)
    assert report.equal
    assert (report.hypermap_params.n, report.hypermap_params.k) == (6, 2)
    assert (report.surface_params.n, report.surface_params.k) == (6, 2)


def test_verify_equivalence_degenerate_two_dart():
    H = Hypermap.from_cycles(2, [], [[1, 2]])
    assert verify_equivalence(H).equal


def test_verify_equivalence_randomized():
    rng = random.Random(67)
    for _ in range(30):
        H = random_hypermap(rng, 2, 16)
        assert verify_equivalence(H, choose_special_darts(H)).equal


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
        assert G == SurfaceGraph(len(H.vertices()), edges, faces)
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
        canonical = verify_equivalence(H, S).surface_code
        G = hypermap_to_surface(H, S)
        code = surface_code(G)
        assert np.array_equal(canonical.hx, code.hx) and np.array_equal(canonical.hz, code.hz)
        ref_hx, ref_hz = reference_surface_code(G)
        assert np.array_equal(canonical.hx, ref_hx) and np.array_equal(canonical.hz, ref_hz)
        one_dart_edges += sum(len(e) == 1 for e in H.hyperedges().orbits)
        loops += sum(a == b for a, b, _ in G.edges)
    assert one_dart_edges and loops


@pytest.mark.parametrize(
    "faces",
    [
        pytest.param(lambda hz: hz[1:], id="face-dropped"),
        pytest.param(lambda hz: np.vstack([hz, hz[:1]]), id="face-repeated"),
    ],
)
@pytest.mark.parametrize("L", [3, 5])
def test_closed_surface_check_same_for_graph_and_arrays(faces, L):
    # Dropping a face leaves its edges in 1 face, and repeating one puts
    # them in 3.  The check names the same edge whether the graph's labels
    # are Python ints or numpy arrays, as a converter would hand them over.
    H, S = graph_to_hypermap(toric_rotation_graph(L, L))
    bad = faces(boundary_pair(H, S).hz)
    G = hypermap_to_surface(H, S)
    labels = np.asarray(G.edge_labels)
    rows = [frozenset(labels[np.flatnonzero(row)].tolist()) for row in bad]
    # The first edge, in edge order, that is not in 0 or 2 faces.
    uses = Counter(label for face in rows for label in face)
    label = next(label for _, _, label in G.edges if uses[label] not in (0, 2))
    assert uses[label] in (1, 3)
    message = rf"^edge {label} appears in {uses[label]} faces; expected 0 or 2$"
    with pytest.raises(ValueError, match=message):
        SurfaceGraph(G.vertex_count, G.edges, tuple(rows))
    with pytest.raises(ValueError, match=message):
        SurfaceGraph(np.intp(G.vertex_count), tuple(np.array(G.edges)), tuple(labels[row == 1] for row in bad))


def test_surface_graph_errors_name_the_first_bad_entry():
    with pytest.raises(ValueError, match=r"^edge 9 endpoint out of range$"):
        SurfaceGraph(2, ((1, 2, 3), (1, 10**30, 9), (0, 1, 4)), ())
    with pytest.raises(ValueError, match=r"^face \[3, 7\] uses unknown edge labels$"):
        SurfaceGraph(2, ((1, 2, 3),), (frozenset({3}), frozenset({3, 7}), frozenset({8})))
    with pytest.raises(ValueError, match=r"^edge 5 appears in 1 faces; expected 0 or 2$"):
        SurfaceGraph(2, ((1, 2, 5), (1, 2, 3), (1, 2, 1)), (frozenset({5, 1}), frozenset({3, 1})))


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
        assert verify_equivalence(H, S).equal
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
    report = verify_equivalence(H, S)
    assert report.equal and len(ranked) == 1
    assert report.surface_params == report.hypermap_params == original(report.surface_code)


def test_verify_equivalence_reuses_only_an_identical_canonical_code():
    # With the special darts left to verify, the canonical code of the
    # default choice is reported as both codes.
    H, S = graph_to_hypermap(toric_rotation_graph(4, 4))
    report = verify_equivalence(H)
    assert report.surface_code is report.hypermap_code
    canonical = build_canonical(H, choose_special_darts(H))
    assert np.array_equal(report.hypermap_code.hx, canonical.hx)
    assert np.array_equal(report.hypermap_code.hz, canonical.hz)


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
        report = verify_equivalence(H, S)
        assert report.equal and report.surface_code is report.hypermap_code
        code = report.hypermap_code
        assert checks == [("pairing", len(H.vertices()), len(H.faces()), code.n)]
        assert ranked == [code]
        assert report.surface_params is report.hypermap_params
        one_dart_edges += sum(len(e) == 1 for e in H.hyperedges().orbits)
        loops += sum(a == b for a, b in code._columns[0].T.tolist())
    assert one_dart_edges and loops


@pytest.mark.parametrize("L", [24, 48])
def test_verify_equivalence_toric(L):
    # The chain condition is checked without a dense product (at 48x48 the
    # product alone peaked at 243 MiB), and the canonical code is the only
    # pair of dense matrices: a second pair would add about 21 MiB.
    H, S = graph_to_hypermap(toric_rotation_graph(L, L))
    tracemalloc.start()
    try:
        report = verify_equivalence(H, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.equal
    for p in (report.hypermap_params, report.surface_params):
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


def test_hypermap_to_surface_keeps_the_pairing_check(monkeypatch):
    # Columns that break the chain condition are refused, as boundary_pair
    # refuses them.
    H, S = graph_to_hypermap(toric_rotation_graph(3, 3))
    x_rows, x_ends, z_rows, z_ends = chain._canonical_columns(H, S)
    x_ends[1, 0] = (x_ends[1, 0] + 1) % x_rows
    monkeypatch.setattr(surface, "_canonical_columns", lambda H, S: (x_rows, x_ends, z_rows, z_ends))
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
        for k, label in enumerate(G.edge_labels):
            weight = int(code.hx[:, k].sum())
            assert weight == (0 if label in loops else 2)


def test_surface_code_matches_entry_by_entry_reference():
    rng = random.Random(83)
    graphs = [rotation_to_surface(toric_rotation_graph(3, 3)), intermediate_surface(torus_hypermap()[0])]
    graphs += [hypermap_to_surface(random_hypermap(rng, 1, 30)) for _ in range(20)]
    graphs += [intermediate_surface(random_hypermap(rng, 1, 30)) for _ in range(10)]
    graphs += [rotation_to_surface(random_rotation_graph(rng)) for _ in range(20)]
    # Edges out of label order, labels past int64, a loop and an edge in no face.
    big = 10**30
    graphs.append(
        SurfaceGraph(3, ((2, 3, big), (1, 1, 7), (1, 2, 2), (3, 1, 5)), (frozenset({big, 2, 5}), frozenset({big, 2, 5})))
    )
    graphs.append(SurfaceGraph(2, (), (frozenset(),)))
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
        faces = rotation_faces(G)
        assert len(faces) == rows * cols
        assert G.vertex_count - len(G.edges) + len(faces) == 0  # genus 1


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


def test_surface_graph_json_round_trip():
    H, S = torus_hypermap()
    G = hypermap_to_surface(H, S)
    data = surface_graph_to_json(G)
    assert data == json.loads((FIXTURES / "torus_surface_graph.json").read_text())
    assert SurfaceGraph(data["vertices"], tuple(map(tuple, data["edges"])), tuple(map(frozenset, data["faces"]))) == G


def test_rotation_graph_json_round_trip():
    G = toric_rotation_graph(2, 3)
    assert rotation_graph_from_json(rotation_graph_to_json(G)) == G


def test_dot_exports_mention_edges():
    H, S = torus_hypermap()
    dot = surface_graph_dot(hypermap_to_surface(H, S))
    assert 'v1 -- v2 [label="1"];' in dot
    assert "// face 2: 2 8" in dot
