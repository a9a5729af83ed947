"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Matrix checks are bit-exact; row-space checks are exact
rank comparisons; distance checks are exact integers.
"""

import random
import time
from contextlib import contextmanager

import numpy as np

from hypermap_codes import (
    build_canonical,
    choose_special_darts,
    cnot_circuit,
    distance_bruteforce,
    distance_exhaustive,
    distance_split,
    graph_to_hypermap,
    hypermap_to_surface,
    params,
    rotation_to_surface,
    stabilizer_equal,
    surface_code,
    toric_rotation_graph,
    transform,
    verify_equivalence,
)
from hypermap_codes import gf2
from hypermap_codes.hypermap import components
from util import (
    random_css_code,
    random_hypermap,
    random_invertible,
    random_rotation_graph,
    torus_hypermap,
)

# The torus example's conventional face labeling puts the face holding darts
# {2,8} first, then {1,7}, {3,5}, {4,6}.  This package orders faces by
# smallest contained dart, so the conventional row order is recovered through
# this dart -> face mapping.
CONVENTIONAL_FACE_DARTS = (2, 1, 3, 4)

CONVENTIONAL_HZ_ROWS = np.array(
    [
        [0, 1, 0, 0, 0, 1],
        [1, 0, 0, 1, 1, 1],
        [1, 1, 1, 1, 0, 0],
        [0, 0, 1, 0, 1, 0],
    ],
    dtype=np.uint8,
)


@contextmanager
def criterion(name, limit_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    if limit_seconds is not None:
        assert elapsed < limit_seconds, f"{name}: {elapsed:.2f}s exceeds {limit_seconds}s"
    print(f"PASS {name} ({elapsed:.3f}s)")


def conventional_face_rows(H, matrix):
    """Reorder face-indexed rows into the torus example's conventional order."""
    faces = H.faces()
    return np.array([matrix[faces.orbit_index(d)] for d in CONVENTIONAL_FACE_DARTS])


def test_criterion_1_worked_example_stabilizer():
    with criterion("1 worked-example stabilizer matrices", 1.0):
        H, S = torus_hypermap()
        code = build_canonical(H, S)
        assert np.array_equal(code.hx, np.ones((2, 6), dtype=np.uint8))
        assert np.array_equal(conventional_face_rows(H, code.hz), CONVENTIONAL_HZ_ROWS)


def component_k(code):
    """``k`` of a column-built code, its column graphs' components counted afresh."""
    return code.n - sum(rows - components(rows, *ends)[0] for rows, ends in zip(code._rows, code._columns))


def test_criterion_2_parameter_law():
    # params takes the canonical code's ranks from the component counts
    # (1, 1) it carries, by the argument in its docstring.  Three independent
    # counts check it: hypermap.components counts the components of its
    # column graphs, gf2.rank eliminates the dense matrices, and the genus
    # comes from the orbit counts.
    with criterion("2 k = n - rank(Hx) - rank(Hz) = 2g", 10.0):
        H, S = torus_hypermap()
        code = build_canonical(H, S)
        p = params(code)
        assert p.k == component_k(code)
        assert p.k == code.n - gf2.rank(code.hx) - gf2.rank(code.hz) == 2 * H.genus()
        rng = random.Random(101)
        for _ in range(50):
            H = random_hypermap(rng, 2, 20)
            code = build_canonical(H, choose_special_darts(H))
            p = params(code)
            assert p.k == component_k(code)
            assert p.k == code.n - gf2.rank(code.hx) - gf2.rank(code.hz)
            assert p.k == 2 * H.genus()


def test_criterion_3_cnot_transformation():
    with criterion("3 CNOT circuit reproduces the changed-basis code", 5.0):
        H, S = torus_hypermap()
        T = gf2.elementary_matrix(1, 2, 6)
        circuit = cnot_circuit(T)
        assert circuit.gates.tolist() == [[1, 2]]
        out = transform(build_canonical(H, S), T)
        assert out.hx.tolist() == [[1, 0, 1, 1, 1, 1]] * 2
        rows = conventional_face_rows(H, out.hz)
        assert np.array_equal(
            rows[1:],
            np.array(
                [[1, 0, 0, 1, 1, 1], [0, 1, 1, 1, 0, 0], [0, 0, 1, 0, 1, 0]],
                dtype=np.uint8,
            ),
        )
        # First row: expanding w2 + w8 over the changed basis gives
        # w1 + (w1+w2) + w8 = (1,1,0,0,0,1).  The lookalike (1,1,1,0,0,0)
        # also passes the orthogonality check, so it is pinned out explicitly.
        assert rows[0].tolist() == [1, 1, 0, 0, 0, 1]
        assert rows[0].tolist() != [1, 1, 1, 0, 0, 0]


def test_criterion_4_factor_decomposition_suite():
    with criterion("4 elementary-factor decomposition properties", 30.0):
        rng = random.Random(103)
        for _ in range(200):
            n = rng.randint(2, 8)
            T = random_invertible(rng, n)
            factors = gf2.decompose_elementary(T)
            assert len(factors) <= n * n
            assert np.array_equal(gf2.multiply_factors(factors, n), T)
            assert np.array_equal(
                gf2.multiply_factors(reversed(factors), n), gf2.invert(T)
            )
            for i, j in factors:
                R = gf2.elementary_matrix(i, j, n)
                assert np.array_equal((R @ R) % 2, gf2.identity(n))


def test_criterion_5_surface_equivalence():
    with criterion("5 canonical code equals its surface code", 30.0):
        H, S = torus_hypermap()
        graph = hypermap_to_surface(H, S)
        surf = surface_code(graph)
        assert np.array_equal(surf.hx, np.ones((2, 6), dtype=np.uint8))
        assert np.array_equal(surf.hz, build_canonical(H, S).hz)
        assert stabilizer_equal(surf, build_canonical(H, S))
        rng = random.Random(107)
        for _ in range(50):
            H = random_hypermap(rng, 2, 20)
            S = choose_special_darts(H)
            code, p = verify_equivalence(H, S)
            assert stabilizer_equal(surface_code(hypermap_to_surface(H, S)), code)
            assert p == params(code)


def test_criterion_6_distance_claims():
    with criterion("6a worked-example distances", 1.0):
        H, S = torus_hypermap()
        code = build_canonical(H, S)
        assert distance_bruteforce(code) == 2
        T = gf2.elementary_matrix(1, 2, 6)
        assert distance_bruteforce(transform(code, T)) == 1
    with criterion("6b weight-ordered oracle equals full exhaustion", 30.0):
        rng = random.Random(109)
        for _ in range(10):
            code = random_css_code(rng, 3, 18, max_qubits=12, require_logical=True)
            assert distance_bruteforce(code) == distance_exhaustive(code)


def test_criterion_7_graph_round_trip():
    with criterion("7 rotation-graph round trip", 10.0):
        cases = [toric_rotation_graph(2, 2)]
        rng = random.Random(113)
        cases += [random_rotation_graph(rng, max_edges=8) for _ in range(20)]
        for G in cases:
            H, S = graph_to_hypermap(G)
            out = hypermap_to_surface(H, S)
            _assert_incidence_isomorphic(G, H, out)
            assert stabilizer_equal(
                surface_code(rotation_to_surface(G)), build_canonical(H, S)
            )


def test_criterion_8_toric_sanity():
    with criterion("8 toric 2x2 fixture is [[8,2,2]]", 5.0):
        G = toric_rotation_graph(2, 2)
        code = surface_code(rotation_to_surface(G))
        p = params(code)
        assert (p.n, p.k) == (8, 2)
        assert distance_split(code) == (2, 2)
        assert distance_bruteforce(code) == 2
        H, _ = graph_to_hypermap(G)
        assert H.genus() == 1 and p.k == 2 * H.genus()


def _assert_incidence_isomorphic(G, H, out):
    assert out.vertex_count == G.vertex_count
    verts = H.vertices()
    mu = {v: verts.orbit_index(cycle[0]) + 1 for v, cycle in enumerate(G.rotation, start=1)}
    expected = sorted(
        (tuple(sorted((mu[a], mu[b]))), j) for j, (a, b) in enumerate(G.edges, start=1)
    )
    actual = sorted(
        (tuple(sorted((a, b))), (label + 1) // 2) for a, b, label in out.edges
    )
    assert actual == expected
    expected_faces = sorted(sorted(f) for f in rotation_to_surface(G).faces)
    actual_faces = sorted(sorted((label + 1) // 2 for label in f) for f in out.faces)
    assert actual_faces == expected_faces
