"""Shared test helpers: seeded random generators for property-style tests."""

from __future__ import annotations

from itertools import combinations
from operator import index
from pathlib import Path

import numpy as np

from hypermap_codes import (
    CssCode,
    Hypermap,
    NotBijectiveError,
    NotConnectedError,
    Permutation,
    RotationGraph,
    build_canonical,
    choose_special_darts,
    dart_vertex_sum,
    face_dart_sum,
    nonspecial_darts,
    params,
    project_nonspecial,
)
from hypermap_codes import gf2

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def torus_hypermap():
    """The 8-dart torus worked example with special darts (3, 7)."""
    H = Hypermap.from_cycles(8, [[1, 8, 3, 6], [2, 5, 4, 7]], [[1, 2, 3, 4], [5, 6, 7, 8]])
    return H, choose_special_darts(H, preferred=[3, 7])


def random_permutation(rng, n):
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return Permutation(tuple(image))


def random_sparse_permutation(rng, n):
    """A permutation of ``1..n`` moving a random subset of the darts, often few."""
    image = list(range(1, n + 1))
    moved = rng.sample(range(n), rng.randint(0, n))
    targets = [image[i] for i in moved]
    rng.shuffle(targets)
    for i, t in zip(moved, targets):
        image[i] = t
    return Permutation(tuple(image))


def reference_components(sigma, tau):
    """Root of every dart's component under ``sigma`` and ``tau``, by union-find (0-based)."""
    parent = list(range(sigma.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for d, images in enumerate(zip(sigma.image, tau.image)):
        for image in images:
            parent[find(d)] = find(image - 1)
    return [find(x) for x in range(sigma.n)]


def reference_orbits(p):
    """``(labels, orbits)`` of a permutation by walking each cycle from its smallest dart.

    The plain-Python reference for :class:`OrbitPartition`: darts are
    visited in ascending order, so each new cycle starts at its smallest
    dart and cycles are numbered in that order.
    """
    labels = [-1] * p.n
    orbits = []
    for start in range(1, p.n + 1):
        if labels[start - 1] >= 0:
            continue
        cycle, d = [], start
        while labels[d - 1] < 0:
            labels[d - 1] = len(orbits)
            cycle.append(d)
            d = p.image[d - 1]
        orbits.append(tuple(cycle))
    return tuple(labels), tuple(orbits)


def reference_inverse(p):
    """Image tuple of ``p^-1``, one dart at a time."""
    inv = [0] * p.n
    for d, img in enumerate(p.image, start=1):
        inv[img - 1] = d
    return tuple(inv)


def reference_product(p, q):
    """Image tuple of ``p * q`` (``q`` first), one dart at a time."""
    return tuple(p.image[q.image[d] - 1] for d in range(p.n))


def reference_from_cycles(cycles, n):
    """Image tuple of :meth:`Permutation.from_cycles`, one label at a time, with the same errors.

    Each cycle's labels go through :func:`operator.index`, then are checked
    in reading order: in ``1..n``, and not seen before in any cycle.
    """
    n = index(n)
    image = list(range(1, n + 1))
    seen = set()
    for cycle in cycles:
        cycle = [index(x) for x in cycle]
        for x in cycle:
            if not 1 <= x <= n:
                raise ValueError(f"cycle entry {x} out of range 1..{n}")
            if x in seen:
                raise NotBijectiveError(f"label {x} appears in two cycles")
            seen.add(x)
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            image[x - 1] = y
    return tuple(image)


def reference_hypermap_from_cycles(n, sigma_cycles, tau_cycles):
    """``(sigma image, tau image)`` of :meth:`Hypermap.from_cycles`, with the same errors.

    Dart ``n`` must be named and at least ``n`` labels listed (unless
    ``n == 1``); then each permutation is read by
    :func:`reference_from_cycles` and the pair checked connected.
    """
    labels = [x for cycle in [*sigma_cycles, *tau_cycles] for x in cycle]
    if n > max(1, max(map(index, labels), default=0)):
        raise NotConnectedError(f"dart {n} is fixed by sigma and tau, so it is a component of its own")
    if n > max(1, len(labels)):
        raise NotConnectedError(
            f"the cycles list {len(labels)} labels for {n} darts, so some dart is"
            " fixed by sigma and tau and is a component of its own"
        )
    sigma, tau = reference_from_cycles(sigma_cycles, n), reference_from_cycles(tau_cycles, n)
    Hypermap(Permutation(sigma), Permutation(tau))
    return sigma, tau


def reference_surface_code(G):
    """``(hx, hz)`` of :func:`surface_code`, one matrix entry at a time, from the edge triples and face supports."""
    labels = G.labels.tolist()
    col = {label: k for k, label in enumerate(labels)}
    hx = np.zeros((G.vertex_count, len(labels)), dtype=np.uint8)
    for a, b, label in G.edges:
        hx[a - 1, col[label]] ^= 1
        hx[b - 1, col[label]] ^= 1
    hz = np.zeros((len(G.faces), len(labels)), dtype=np.uint8)
    for f, face in enumerate(G.faces):
        for label in face:
            hz[f, col[label]] = 1
    return hx, hz


def reference_rotation_faces(G):
    """Face supports of :func:`rotation_to_surface`, one edge-end at a time.

    The faces are the orbits of the face traversal ``sigma * end_swap``, and
    every edge-end ``h`` of a face toggles edge ``(h + 1) // 2`` in its support.
    """
    faces = []
    for orbit in (G.sigma() * G.end_swap()).orbits().orbits:
        support = set()
        for h in orbit:
            support ^= {(h + 1) // 2}
        faces.append(frozenset(support))
    return tuple(faces)


def random_hypermap(rng, min_darts=2, max_darts=20):
    """A random connected hypermap (retry until the pair acts transitively)."""
    while True:
        n = rng.randint(min_darts, max_darts)
        try:
            return Hypermap(random_permutation(rng, n), random_permutation(rng, n))
        except NotConnectedError:
            continue


def random_cycle_hypermap(rng, hyperedges, length):
    """A random connected hypermap whose sigma and tau are both ``length``-cycles.

    It has ``hyperedges * length`` darts, so its canonical code has
    ``hyperedges * (length - 1)`` qubits.
    """
    darts = hyperedges * length
    while True:
        cycles = []
        for _ in range(2):
            labels = list(range(1, darts + 1))
            rng.shuffle(labels)
            cycles.append([labels[k : k + length] for k in range(0, darts, length)])
        try:
            return Hypermap.from_cycles(darts, *cycles)
        except NotConnectedError:
            continue


def random_special_darts(rng, H):
    """A random valid special-dart choice: any one dart of every hyperedge."""
    return tuple(rng.choice(orbit) for orbit in H.hyperedges().orbits)


def reference_boundary_rows(H, S):
    """``(p1, p2)`` stacked from the per-dart and per-face helpers."""
    basis = nonspecial_darts(H, S)
    n_vertices, n_faces = len(H.vertices()), len(H.faces())
    p1 = np.array([dart_vertex_sum(H, d) for d in basis], dtype=np.uint8)
    p2 = np.array(
        [project_nonspecial(H, S, face_dart_sum(H, f)) for f in range(n_faces)],
        dtype=np.uint8,
    )
    return p1.reshape(len(basis), n_vertices).T, p2.reshape(n_faces, len(basis))


def random_invertible(rng, n):
    while True:
        M = np.array([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)], dtype=np.uint8)
        if gf2.rank(M) == n:
            return M


def random_sparse_invertible(rng, n, entries):
    """Identity plus ``entries`` ones above the diagonal, columns then shuffled.

    The shuffle leaves zeros on the diagonal, so the decomposition has to
    repair them.
    """
    M = gf2.identity(n)
    for _ in range(entries):
        i = rng.randrange(n - 1)
        M[i, rng.randrange(i + 1, n)] = 1
    order = list(range(n))
    rng.shuffle(order)
    return M[:, order]


def reference_decompose_elementary(T):
    """Elementary-factor decomposition one matrix entry at a time.

    The scalar reference for :func:`gf2.decompose_elementary`: rows in
    ascending order, a zero diagonal entry repaired with the smallest column
    to its right holding a 1, then one column addition per remaining 1 in
    the row, in ascending column order.  Returns the list of 1-based
    ``(i, j)`` tuples.
    """
    M = gf2.as_matrix(T).copy()
    n = M.shape[0]
    if M.shape[1] != n:
        raise ValueError(f"matrix is {M.shape[0]}x{M.shape[1]}, not square")

    applied = []
    for i in range(n):
        if M[i, i] == 0:
            hits = np.flatnonzero(M[i, i + 1 :])
            if hits.size == 0:
                raise gf2.SingularMatrixError(f"matrix is singular at row {i + 1}")
            j = i + 1 + int(hits[0])
            M[:, i] ^= M[:, j]
            applied.append((j + 1, i + 1))
        for j in range(n):
            if j != i and M[i, j]:
                M[:, j] ^= M[:, i]
                applied.append((i + 1, j + 1))
    assert np.array_equal(M, gf2.identity(n))
    return applied[::-1]


def reference_row_echelon(M):
    """Reduced row-echelon form by a numpy pass per column.

    The column-at-a-time reference for :func:`gf2.row_echelon`: the first
    row at or below the current one holding a 1 in the column becomes the
    pivot row, then is XORed into every other row holding a 1 there.
    """
    R = gf2.as_matrix(M).copy()
    rows, cols = R.shape
    pivot_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.flatnonzero(R[r:, c])
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        others = np.flatnonzero(R[:, c])
        others = others[others != r]
        if others.size:
            R[others] ^= R[r]
        pivot_cols.append(c)
        r += 1
    return R, pivot_cols


def reference_kernel_basis(M):
    """Right kernel basis read off :func:`reference_row_echelon` one entry at a time."""
    M = gf2.as_matrix(M)
    cols = M.shape[1]
    R, pivots = reference_row_echelon(M)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for r, p in enumerate(pivots):
            basis[k, p] = R[r, f]
    return basis


def reference_invert(T):
    """Inverse by :func:`reference_row_echelon` of ``[T | I]``, with the same error text."""
    T = gf2.as_matrix(T)
    n = T.shape[0]
    r = len(reference_row_echelon(T)[1])
    if r != n:
        raise gf2.SingularMatrixError(f"matrix has rank {r} < {n}")
    R, _ = reference_row_echelon(np.hstack([T, gf2.identity(n)]))
    return R[:, n:]


def random_css_code(rng, min_darts=2, max_darts=20, max_qubits=None, require_logical=False):
    """Canonical code of a random hypermap, optionally filtered on n and k."""
    while True:
        H = random_hypermap(rng, min_darts, max_darts)
        code = build_canonical(H)
        if code.n == 0:
            continue
        if max_qubits is not None and code.n > max_qubits:
            continue
        if require_logical and params(code).k == 0:
            continue
        return code


def random_rotation_graph(rng, max_edges=8):
    """A random connected multigraph (loops allowed) with a random rotation."""
    n_vertices = rng.randint(1, 4)
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n_vertices + 1)]
    while len(edges) < rng.randint(max(1, len(edges)), max_edges):
        edges.append((rng.randint(1, n_vertices), rng.randint(1, n_vertices)))
    at_vertex = {v: [] for v in range(1, n_vertices + 1)}
    for j, (a, b) in enumerate(edges, start=1):
        at_vertex[a].append(2 * j - 1)
        at_vertex[b].append(2 * j)
    rotation = []
    for v in range(1, n_vertices + 1):
        ends = at_vertex[v]
        rng.shuffle(ends)
        rotation.append(tuple(ends))
    return RotationGraph(n_vertices, tuple(edges), tuple(rotation))


def reference_toric_rotation_graph(rows, cols):
    """:func:`toric_rotation_graph` with each edge's number looked up in a dict.

    Edges are numbered in creation order, rightward then downward at every
    vertex, and each vertex lists its east, north, west and south ends.
    """

    def vid(x, y):
        return (x % rows) * cols + (y % cols) + 1

    edges = []
    right_edge, down_edge = {}, {}
    for x in range(rows):
        for y in range(cols):
            right_edge[(x, y)] = len(edges) + 1
            edges.append((vid(x, y), vid(x, y + 1)))
            down_edge[(x, y)] = len(edges) + 1
            edges.append((vid(x, y), vid(x + 1, y)))
    rotation = []
    for x in range(rows):
        for y in range(cols):
            east = 2 * right_edge[(x, y)] - 1
            north = 2 * down_edge[((x - 1) % rows, y)]
            west = 2 * right_edge[(x, (y - 1) % cols)]
            south = 2 * down_edge[(x, y)] - 1
            rotation.append((east, north, west, south))
    return RotationGraph(rows * cols, tuple(edges), tuple(rotation))


def reference_weight_search(cols, reducer, max_weight):
    """Smallest logical weight ``w <= max_weight``, or 0, by scanning every ``w``-subset.

    The plain reference for ``distance._weight_search``: a subset of the
    packed columns ``cols`` whose XOR is 0 is a kernel vector, and it is a
    logical when ``gf2._reduce`` by ``reducer`` leaves its support nonzero.
    """
    for w in range(1, max_weight + 1):
        for combo in combinations(range(len(cols)), w):
            syndrome = 0
            for j in combo:
                syndrome ^= cols[j]
            if syndrome:
                continue
            v = 0
            for j in combo:
                v |= 1 << j
            if gf2._reduce(v, *reducer):
                return w
    return 0


def golay_css():
    """[[23,1,7]] CSS code: both sectors span the dual of the binary Golay code."""
    G = np.zeros((12, 23), dtype=np.uint8)
    for r in range(12):
        G[r, r : r + 12] = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    H = gf2.kernel_basis(G)
    return CssCode(H, H)


def _reference_header_count(token, line):
    if token.isascii() and token.isdigit():
        digits = token.lstrip("0")
        if len(digits) > 19 or int(digits or "0") >= 2**63:
            raise ValueError(f"matrix dimensions must be at most {2**63 - 1}")
        return int(digits or "0")
    if token[:1] == "-" and token[1:].isascii() and token[1:].isdigit():
        raise ValueError("matrix dimensions must be nonnegative")
    raise ValueError(f"bad matrix header {line!r}, expected 'rows cols'")


def reference_parse_matrix(text):
    """The token parser of :func:`gf2.parse_matrix`, with the same errors, for any layout.

    Lines are ``str.splitlines`` lines and tokens ``str.split`` tokens; a
    matrix with no columns counts blank lines as its rows.
    """
    raw = text.splitlines()
    lines = [ln.strip() for ln in raw if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad matrix header {lines[0]!r}, expected 'rows cols'")
    rows, cols = (_reference_header_count(tok, lines[0]) for tok in header)
    found = len(lines) - 1
    if cols == 0 and found == 0:
        found = len(raw) - 1
        if found >= rows:
            return np.zeros((rows, 0), dtype=np.uint8)
    if found != rows:
        raise ValueError(f"expected {rows} matrix rows, found {found}")
    for r, line in enumerate(lines[1:]):
        row = line.split()
        if len(row) != cols:
            raise ValueError(f"row {r + 1} has {len(row)} entries, expected {cols}")
    # Allocated once every row has its entries, so a huge header count
    # with short rows is an error, not a MemoryError.
    M = np.zeros((rows, cols), dtype=np.uint8)
    for r, line in enumerate(lines[1:]):
        for c, tok in enumerate(line.split()):
            if tok not in ("0", "1"):
                raise ValueError(f"bad matrix entry {tok!r} in row {r + 1}")
            M[r, c] = int(tok)
    return M


def reference_parse_stabilizer(text):
    """The ``Hx``/``Hz`` section loop of :func:`css.parse_stabilizer`, through :func:`reference_parse_matrix`."""
    blocks = {}
    current = None
    for ln in text.splitlines(keepends=True):
        name = ln.strip()
        if name in ("Hx", "Hz"):
            if name in blocks:
                raise ValueError(f"duplicate {name} section")
            current = blocks.setdefault(name, [])
        elif current is not None:
            current.append(ln)
        elif name:
            raise ValueError(f"unexpected line {name!r} before Hx/Hz section")
    for name in ("Hx", "Hz"):
        if name not in blocks:
            raise ValueError(f"missing {name} section")
    return CssCode(reference_parse_matrix("".join(blocks["Hx"])), reference_parse_matrix("".join(blocks["Hz"])))
