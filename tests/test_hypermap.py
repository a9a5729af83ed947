import json
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hypermap_codes import (
    DuplicateHyperedgeError,
    Hypermap,
    NotBijectiveError,
    NotConnectedError,
    Permutation,
    boundary_pair,
    build_canonical,
    choose_special_darts,
    hypermap_from_json,
    hypermap_to_json,
    hypermap_to_surface,
    nonspecial_darts,
    params,
    toric_rotation_graph,
    verify_equivalence,
)
from hypermap_codes import hypermap
from hypermap_codes.cli import main
from hypermap_codes.hypermap import components
from util import (
    FIXTURES,
    random_hypermap,
    random_permutation,
    random_sparse_permutation,
    reference_components,
    reference_inverse,
    reference_orbits,
    reference_product,
    torus_hypermap,
)


def test_derived_permutations_build_their_image_on_first_read():
    # from_cycles, inverse() and * keep only the array; image, and with it
    # ==, hash and repr, is derived from it on first read.
    makers = [
        lambda: Permutation.from_cycles([[1, 3, 2], [4, 5]], 6),
        lambda: Permutation.from_cycles([[1, 3, 2], [4, 5]], 6).inverse(),
        lambda: Permutation.from_cycles([[1, 3, 2]], 6) * Permutation.from_cycles([[2, 6]], 6),
    ]
    for make in makers:
        p = make()
        assert "image" not in vars(p)
        assert p.n == 6 and len(p.orbits()) and "image" not in vars(p)
        image = p.image
        assert "image" in vars(p) and image == tuple((p.array + 1).tolist())
        given = Permutation(image)
        assert p == given and hash(p) == hash(given) and repr(p) == repr(given)
        for first_read in (lambda q: q == given, lambda q: hash(q) == hash(given), lambda q: q.image[0] == image[0]):
            q = make()
            assert first_read(q) and vars(q)["image"] == image
        with pytest.raises(AttributeError, match="no attribute 'images'"):
            make().images


def permutations_to_cross_check():
    """Identities, fixed points, random permutations and long cycles.

    The doubling rounds of :class:`OrbitPartition` grow with the longest
    cycle, so cycles of length ``2^k`` and ``2^k + 1`` and one 2,000-dart
    cycle are included.
    """
    rng = random.Random(409)
    perms = [Permutation.from_cycles([], n) for n in (1, 2, 5)]
    perms += [random_sparse_permutation(rng, n) for n in (3, 8, 20, 64) for _ in range(3)]
    perms += [random_permutation(rng, n) for n in (2, 3, 7, 16, 33, 100, 257) for _ in range(2)]
    for length in (2, 3, 4, 5, 8, 9, 16, 17, 1024, 1025, 2000):
        darts = list(range(1, length + 1))
        rng.shuffle(darts)
        perms.append(Permutation.from_cycles([darts], length))
    # Cycles of many lengths at once, with fixed points between them.
    darts = list(range(1, 301))
    rng.shuffle(darts)
    cycles, k = [], 0
    for length in (1, 2, 3, 40, 7, 129, 1, 64):
        cycles.append(darts[k : k + length])
        k += length
    perms.append(Permutation.from_cycles(cycles, 300))
    return perms


def test_orbits_match_cycle_walk():
    for p in permutations_to_cross_check():
        labels, orbits = reference_orbits(p)
        parts = Permutation(p.image).orbits()  # a fresh object, nothing cached
        assert parts.array.tolist() == list(labels) and not parts.array.flags.writeable
        assert parts.orbits == orbits
        assert len(parts) == len(orbits)
        assert parts.smallest == tuple(orbit[0] for orbit in orbits)
        assert [parts.orbit_index(d) for d in range(1, p.n + 1)] == list(labels)


def test_inverse_and_product_match_reference():
    rng = random.Random(419)
    for p in permutations_to_cross_check():
        q = random_permutation(rng, p.n)
        for r, image in ((p.inverse(), reference_inverse(p)), (p * q, reference_product(p, q))):
            assert r.image == image and {type(x) for x in r.image} == {int}
            assert r == Permutation(image) and hash(r) == hash(Permutation(image))
            assert r.array.tolist() == [x - 1 for x in image] and not r.array.flags.writeable


def test_from_cycles_matches_reference():
    rng = random.Random(421)
    for p in permutations_to_cross_check():
        _, orbits = reference_orbits(p)
        cycles = [list(orbit) for orbit in orbits if len(orbit) > 1 or rng.random() < 0.3]
        rng.shuffle(cycles)
        cycles.insert(rng.randint(0, len(cycles)), [])  # an empty cycle changes nothing
        assert Permutation.from_cycles(cycles, p.n) == p
        assert Permutation.from_cycles(cycles, p.n).array.tolist() == [x - 1 for x in p.image]


@pytest.mark.parametrize(
    "cycles, error, message",
    [
        ([[1, 5], [1.5]], ValueError, r"^cycle entry 5 out of range 1\.\.3$"),
        ([[1, 2], [1.5, 9]], TypeError, "float"),
        ([[1, 2], [3, 2, 9]], NotBijectiveError, r"^label 2 appears in two cycles$"),
        ([[1, 2, 1], [9]], NotBijectiveError, r"^label 1 appears in two cycles$"),
        ([[3], [10**30, 3]], ValueError, rf"^cycle entry {10**30} out of range 1\.\.3$"),
        ([[2**64, 1]], ValueError, rf"^cycle entry {2**64} out of range 1\.\.3$"),
    ],
    ids=["range-before-type", "type-in-order", "repeat-before-range", "repeat-in-one-cycle", "huge", "2**64"],
)
def test_from_cycles_names_first_bad_entry_in_reading_order(cycles, error, message):
    with pytest.raises(error, match=message):
        Permutation.from_cycles(cycles, 3)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda n: Permutation.from_cycles([], n), id="from_cycles"),
        pytest.param(lambda n: Permutation.from_cycles([[1, 2**62]], n), id="from_cycles-huge-label"),
    ],
)
@pytest.mark.parametrize("n", [-1, -3, 2**63 - 1, 2**63, 2**64], ids=["-1", "-3", "2**63-1", "2**63", "2**64"])
def test_size_out_of_range_is_one_line_error(build, n):
    # Past the sizes of an intp array numpy can hold, or negative: rejected
    # before any array is built, with a message naming n.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^permutation size n={n} out of range 0\.\.\d+$"):
            build(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_size_guard_keeps_small_sizes():
    assert Permutation.from_cycles([], 0).n == 0
    assert Permutation.from_cycles([[1, 2]], 4).image == (2, 1, 3, 4)
    assert Permutation.from_cycles([], np.int64(3)) == Permutation((1, 2, 3))


def test_identity_orbits():
    parts = Permutation.from_cycles([], 3).orbits()
    assert parts.orbits == ((1,), (2,), (3,))


def test_torus_sigma_tau_orbits():
    H, _ = torus_hypermap()
    assert H.sigma.orbits().orbits == ((1, 8, 3, 6), (2, 5, 4, 7))
    assert H.tau.orbits().orbits == ((1, 2, 3, 4), (5, 6, 7, 8))


def test_permutation_rejects_repeated_image():
    with pytest.raises(NotBijectiveError):
        Permutation((1, 1, 3))


def test_cycles_reject_repeated_label():
    with pytest.raises(NotBijectiveError):
        Permutation.from_cycles([[1, 2], [2, 3]], 3)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: Permutation((1.9, 2.2)), id="float-image"),
        pytest.param(lambda: Permutation(("2", "1")), id="str-image"),
        pytest.param(lambda: Permutation.from_cycles([[1.0, 2.0]], 2), id="float-cycle"),
        pytest.param(lambda: choose_special_darts(torus_hypermap()[0], (1.0, 5)), id="float-special"),
        pytest.param(
            lambda: choose_special_darts(torus_hypermap()[0], preferred=[3.9, 7.1]), id="float-preferred"
        ),
    ],
)
def test_labels_are_not_coerced(build):
    # int() would truncate 1.9 or parse "2"; labels must be integers already.
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("label", ["a", None, 2.5], ids=["str", "None", "float"])
def test_hypermap_from_cycles_reads_labels_as_integers(label):
    # The guards read the labels through operator.index, as
    # Permutation.from_cycles does, so the error is the same.
    message = rf"^'{type(label).__name__}' object cannot be interpreted as an integer$"
    with pytest.raises(TypeError, match=message):
        Permutation.from_cycles([[1, label]], 2)
    with pytest.raises(TypeError, match=message):
        Hypermap.from_cycles(2, [[1, label]], [[1, 2]])
    # Before the guard that needs dart 3 to be named.
    with pytest.raises(TypeError, match=message):
        Hypermap.from_cycles(3, [[1, label]], [])


def test_hypermap_needs_sigma_and_tau_on_the_same_darts():
    with pytest.raises(ValueError, match=r"^sigma acts on 2 darts but tau on 3$"):
        Hypermap(Permutation.from_cycles([], 2), Permutation.from_cycles([], 3))


def test_numpy_integer_labels_are_accepted():
    H, _ = torus_hypermap()
    p = Permutation(tuple(np.array([2, 3, 1])))
    assert p.image == (2, 3, 1) and {type(x) for x in p.image} == {int}
    assert Permutation.from_cycles([np.array([1, 2, 3])], 3) == p
    for preferred in (np.array([3, 7]), np.array([7, 3])):
        S = choose_special_darts(H, preferred=preferred)
        assert S == (3, 7) and {type(x) for x in S} == {int}


def test_face_permutation_of_torus():
    H, _ = torus_hypermap()
    assert H.face_permutation().orbits().orbits == ((1, 7), (2, 8), (3, 5), (4, 6))


def test_face_permutation_sigma_equals_tau():
    p = Permutation.from_cycles([[1, 2, 3]], 3)
    H = Hypermap(p, p)
    assert H.face_permutation() == Permutation.from_cycles([], 3)


def test_face_permutation_identity_tau():
    sigma = Permutation.from_cycles([[1, 2, 3]], 3)
    H = Hypermap(sigma, Permutation.from_cycles([], 3))
    assert H.face_permutation() == sigma


def test_counts_torus():
    H, _ = torus_hypermap()
    assert H.counts() == (2, 2, 4, 8)


def test_counts_single_dart():
    H = Hypermap(Permutation.from_cycles([], 1), Permutation.from_cycles([], 1))
    assert H.counts() == (1, 1, 1, 1)
    assert H.genus() == 0


def test_disconnected_pair_rejected():
    message = r"^only {} of {} darts are reachable from dart 1 under sigma and tau$"
    with pytest.raises(NotConnectedError, match=message.format(1, 2)):
        Hypermap(Permutation.from_cycles([], 2), Permutation.from_cycles([], 2))
    swaps = Permutation((2, 1, 4, 3))
    with pytest.raises(NotConnectedError, match=message.format(2, 4)):
        Hypermap(swaps, swaps)


def test_connectivity_matches_union_find_reference():
    rng = random.Random(151)
    connected = set()
    for _ in range(200):
        n = rng.randint(1, 12)
        sigma, tau = random_sparse_permutation(rng, n), random_sparse_permutation(rng, n)
        roots = reference_components(sigma, tau)
        reached = roots.count(roots[0])
        if reached == n:
            assert Hypermap(sigma, tau).n_darts == n
        else:
            with pytest.raises(NotConnectedError, match=f"^only {reached} of {n} darts are reachable"):
                Hypermap(sigma, tau)
        connected.add(reached == n)
    assert connected == {True, False}


def search_labels(count, a, b):
    """The smallest node that a search from each node reaches."""
    neighbours = [set() for _ in range(count)]
    for x, y in zip(a.tolist(), b.tolist()):
        neighbours[x].add(y)
        neighbours[y].add(x)
    labels = []
    for x in range(count):
        reached, stack = {x}, [x]
        while stack:
            for y in neighbours[stack.pop()] - reached:
                reached.add(y)
                stack.append(y)
        labels.append(min(reached))
    return labels


def counted_components(monkeypatch, count, a, b, bound):
    """``components(count, a, b)`` and its number of hooking rounds; fail past ``bound`` rounds.

    Each round calls ``np.minimum.at`` twice, counted through the numpy that
    ``hypermap`` sees.  A routine that skips pointer jumping or hooks only
    ``a``'s label can run without end; the bound turns that into a failure.
    """
    calls = []

    def at(labels, index, values):
        calls.append(None)
        if len(calls) > 2 * bound:
            pytest.fail(f"more than {bound} hooking rounds on {count} nodes")
        np.minimum.at(labels, index, values)

    with monkeypatch.context() as patch:
        patch.setattr(hypermap, "np", SimpleNamespace(**{**vars(np), "minimum": SimpleNamespace(at=at)}))
        trees, labels = components(count, a, b)
    return trees, labels, len(calls) // 2


def test_components_labels_match_a_search(monkeypatch):
    # labels[x] is the smallest node a search from x reaches, and the count
    # is the number of distinct labels.  A round leaves at least one label
    # that was its own node pointing lower, for good, so there are fewer
    # rounds than nodes.
    edges = np.zeros(0, dtype=np.intp)
    cases = [
        (0, edges, edges),  # no nodes
        (4, edges, edges),  # no edges
        (3, np.array([0, 2, 2]), np.array([0, 2, 2])),  # loops only
        (5, np.array([4, 1, 3]), np.array([1, 4, 3])),  # isolated nodes 0 and 2
    ]
    draw = np.random.default_rng(157)
    for _ in range(300):
        count, m = int(draw.integers(1, 12)), int(draw.integers(0, 14))
        a, b = draw.integers(0, count, (2, m))
        loop = draw.random(m) < 0.2
        b[loop] = a[loop]
        cases.append((count, a, b))
    for count, a, b in cases:
        trees, labels, _ = counted_components(monkeypatch, count, a, b, max(count - 1, 0))
        assert labels.tolist() == search_labels(count, a, b)
        assert trees == len(set(labels.tolist()))


def relabelled_toric_pair(draw, L):
    """Two disjoint toric L x L hypermaps as one permutation pair, darts relabelled at random.

    No :class:`Hypermap` is built, so no ``components`` call runs outside the test's count.
    """
    G = toric_rotation_graph(L, L)
    sigma, tau = G.sigma(), G.end_swap()
    n = sigma.n
    new = draw.permutation(2 * n)
    old = np.argsort(new)
    pair = []
    for p in (sigma, tau):
        both = np.concatenate((p.array, p.array + n))
        pair.append(Permutation(tuple((new[both[old]] + 1).tolist())))
    return pair


def several_round_cases():
    """``(name, count, a, b, labels)`` for graphs on which hooking takes several rounds."""
    draw = np.random.default_rng(163)
    count = 1000
    order = draw.permutation(count)
    zigzag = np.empty(count, dtype=np.intp)
    zigzag[0::2] = np.arange(count // 2)
    zigzag[1::2] = np.arange(count - 1, count // 2 - 1, -1)
    centre = count // 2
    leaves = np.delete(np.arange(count), centre)
    sigma, tau = relabelled_toric_pair(draw, 16)
    roots = reference_components(sigma, tau)
    smallest = {}
    for d, root in enumerate(roots):
        smallest.setdefault(root, d)
    darts = np.arange(sigma.n)
    return [
        ("path in random order", count, order[:-1], order[1:], [0] * count),
        ("zigzag path", count, zigzag[:-1], zigzag[1:], [0] * count),
        ("star", count, np.full(count - 1, centre), leaves, [0] * count),
        (
            "relabelled toric 16x16 pair",
            sigma.n,
            np.concatenate((darts, darts)),
            np.concatenate((sigma.array, tau.array)),
            [smallest[root] for root in roots],
        ),
    ]


def test_components_needs_few_rounds_on_long_graphs(monkeypatch):
    # Pointer jumping keeps the rounds within log2 of the node count on
    # these graphs; without it, or hooking only a's label, they run past
    # the bound, and a routine that stops after one round returns wrong labels.
    for name, count, a, b, expected in several_round_cases():
        trees, labels, rounds = counted_components(monkeypatch, count, a, b, int(np.ceil(np.log2(count))))
        assert labels.tolist() == expected, name
        assert trees == len(set(expected))
        assert rounds >= 2, f"{name}: one round is enough, so the case tests nothing"


@pytest.mark.parametrize(
    "n, sigma, tau",
    [(2, [], []), (3, [[1, 2]], [[2, 1]]), (10**9, [[1, 2]], []), (10**9, [], [])],
)
def test_from_cycles_rejects_unnamed_last_dart_before_allocating(n, sigma, tau):
    # Dart n is fixed by both permutations, so it is a component of its own.
    tracemalloc.start()
    try:
        with pytest.raises(NotConnectedError, match=f"^dart {n} is fixed by sigma and tau"):
            Hypermap.from_cycles(n, sigma, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_from_cycles_size_guard_keeps_valid_and_out_of_range_inputs():
    assert Hypermap.from_cycles(1, [], []).n_darts == 1
    assert Hypermap.from_cycles(3, [[1, 2]], [[3, 2]]).n_darts == 3
    with pytest.raises(ValueError, match="cycle entry 4 out of range 1..3"):
        Hypermap.from_cycles(3, [[1, 4]], [[2, 3]])
    with pytest.raises(NotConnectedError, match="a hypermap needs at least one dart"):
        Hypermap.from_cycles(0, [], [])


def test_genus_torus():
    H, _ = torus_hypermap()
    assert H.genus() == 1


def test_genus_two_dart_edge_with_code_cross_check():
    # Single subdivided edge: two darts on one hyperedge, two vertices.
    H = Hypermap.from_cycles(2, [], [[1, 2]])
    assert H.genus() == 0
    code = build_canonical(H)
    assert params(code).k == 2 * H.genus()


def test_incident_orbits_of_torus():
    H, _ = torus_hypermap()
    assert H.vertices().orbits[H.vertices().orbit_index(1)] == (1, 8, 3, 6)
    assert H.hyperedges().orbits[H.hyperedges().orbit_index(1)] == (1, 2, 3, 4)
    assert H.vertices().orbit_index(2) == 1
    assert H.vertices().array.tolist() == [0, 1, 0, 1, 1, 0, 1, 0]
    assert H.hyperedges().array.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]


def test_incident_vertex_out_of_range():
    H, _ = torus_hypermap()
    for dart in (0, 9):
        with pytest.raises(ValueError, match=f"^dart {dart} not in partition$"):
            H.vertices().orbit_index(dart)


def test_identity_sigma_gives_one_vertex_per_dart():
    H = Hypermap(Permutation.from_cycles([], 2), Permutation.from_cycles([[1, 2]], 2))
    assert H.vertices().orbit_index(1) == 0
    assert H.vertices().orbit_index(2) == 1
    assert H.vertices().array.tolist() == [0, 1]


def test_choose_special_preferred():
    H, _ = torus_hypermap()
    assert choose_special_darts(H, preferred=[3, 7]) == (3, 7)


def test_choose_special_default_smallest():
    H, _ = torus_hypermap()
    assert choose_special_darts(H) == (1, 5)


def test_choose_special_duplicate_hyperedge():
    H, _ = torus_hypermap()
    with pytest.raises(DuplicateHyperedgeError):
        choose_special_darts(H, preferred=[1, 2])


# Every entry point that takes a special-dart list, called as f(H, darts).
SPECIAL_DART_READERS = {
    "choose_special_darts": choose_special_darts,
    "boundary_pair": boundary_pair,
    "nonspecial_darts": nonspecial_darts,
    "build_canonical": build_canonical,
    "hypermap_to_surface": hypermap_to_surface,
    "verify_equivalence": verify_equivalence,
}


@pytest.mark.parametrize(
    "darts, error, message",
    [
        ((9,), ValueError, "special dart 9 out of range 1..8"),
        ((3, 0), ValueError, "special dart 0 out of range 1..8"),
        ((1, 2), DuplicateHyperedgeError, "darts 1 and 2 lie on the same hyperedge"),
        ((3,), ValueError, "1 special darts for 2 hyperedges"),
        ((), ValueError, "0 special darts for 2 hyperedges"),
        ((2, 1, 10**30), DuplicateHyperedgeError, "darts 2 and 1 lie on the same hyperedge"),
        ((3, 7.5), TypeError, "'float' object cannot be interpreted as an integer"),
    ],
    ids=["above-range", "zero", "same-hyperedge", "one-short", "empty", "repeated-before-huge", "float"],
)
def test_special_dart_errors_same_at_every_entry_point(tmp_path, capsys, darts, error, message):
    # Each label is checked in the given order (an integer, in range, not a
    # second dart on a claimed hyperedge) and the count last, whichever
    # entry point reads the list, and a one-shot iterator reads as the list.
    H, _ = torus_hypermap()
    for name, read in SPECIAL_DART_READERS.items():
        for given in (darts, list(darts), iter(darts)):
            with pytest.raises(error) as caught:
                read(H, given)
            assert (type(caught.value), str(caught.value)) == (error, message), (name, given)
    if error is TypeError:
        return  # a float is a parse error of --special and of a JSON file
    torus = FIXTURES / "torus_hypermap.json"
    path = tmp_path / "special.json"
    path.write_text(json.dumps({**json.loads(torus.read_text()), "special": list(darts)}))
    for argv, named in (
        (["build", str(torus), "--special", ",".join(map(str, darts))], ""),
        (["build", str(path)], f"{path}: "),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {named}{message}\n"), argv


def test_preferred_darts_are_checked_in_order():
    # A bad label is named only once the darts before it have passed.
    H, _ = torus_hypermap()
    with pytest.raises(ValueError, match=r"^special dart 99 out of range 1\.\.8$"):
        choose_special_darts(H, preferred=[99, 1.5])
    with pytest.raises(DuplicateHyperedgeError, match=r"^darts 1 and 2 lie on the same hyperedge$"):
        choose_special_darts(H, preferred=iter([1, 2, 10**30]))
    with pytest.raises(TypeError):
        choose_special_darts(H, preferred=[1, 1.5, 2])


def test_choose_special_darts_needs_one_per_hyperedge():
    # The choice is listed in hyperedge order, whatever the given order; a
    # list that misses a hyperedge is an error, not filled in with defaults.
    H, _ = torus_hypermap()
    assert choose_special_darts(H, (7, 3)) == (3, 7)
    assert choose_special_darts(H, iter([8, 2])) == (2, 8)
    with pytest.raises(ValueError, match=r"^1 special darts for 2 hyperedges$"):
        choose_special_darts(H, preferred=[3])


def test_counts_invariant_under_relabeling():
    rng = random.Random(23)
    for _ in range(25):
        H = random_hypermap(rng, 2, 12)
        relabel = random_permutation(rng, H.n_darts)
        conj = Hypermap(
            relabel * H.sigma * relabel.inverse(),
            relabel * H.tau * relabel.inverse(),
        )
        assert conj.counts() == H.counts()


def test_euler_characteristic_always_even():
    rng = random.Random(31)
    for _ in range(60):
        H = random_hypermap(rng, 2, 16)
        v, e, f, w = H.counts()
        assert (v + e + f - w) % 2 == 0
        assert H.genus() >= 0


def test_orbits_closed_under_permutation():
    rng = random.Random(37)
    for _ in range(25):
        p = random_permutation(rng, rng.randint(1, 15))
        parts = p.orbits()
        assert sorted(d for orbit in parts.orbits for d in orbit) == list(range(1, p.n + 1))
        for orbit in parts.orbits:
            assert {p.image[d - 1] for d in orbit} == set(orbit)


def test_json_round_trip():
    H, S = torus_hypermap()
    data = json.loads(json.dumps(hypermap_to_json(H, S)))
    H2, S2 = hypermap_from_json(data)
    assert H2 == H
    assert S2 == S


def test_json_fixed_points_omitted():
    H = Hypermap.from_cycles(3, [[1, 2]], [[2, 3]])
    data = hypermap_to_json(H)
    assert data["sigma"] == [[1, 2]]
    assert hypermap_from_json(data)[0] == H


def test_json_missing_key():
    with pytest.raises(ValueError):
        hypermap_from_json({"darts": 2, "sigma": []})
