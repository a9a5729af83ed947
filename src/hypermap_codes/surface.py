"""Surface graphs, rotation systems, and the hypermap/surface conversions.

A :class:`SurfaceGraph` is a multigraph embedded on a closed surface, with
labeled edges and an explicit face list; faces are stored as mod-2 boundary
supports (edge-label sets), so an edge whose two face incidences coincide
cancels out of that face's set.  A :class:`RotationGraph` encodes an
embedding the combinatorial way: a cyclic order of edge-ends around every
vertex.  Edge ``j`` (1-based) has edge-ends ``2j-1`` at its first endpoint
and ``2j`` at its second; these ids double as dart labels when a graph is
reinterpreted as a hypermap.

The conversion from a hypermap to its equivalent surface graph is executed
combinatorially: the output's edges pair each nonspecial dart with its
tau-predecessor's vertex, and its faces are read off the face-boundary
matrix ``hz`` of the canonical code
(:func:`~hypermap_codes.chain.boundary_pair`), whose columns are the
nonspecial darts in ascending order.  That matrix is exactly the merged-face
boundary the drawing-based procedure produces.  Both read the hypermap's
cached index arrays (vertex labels, ``tau^-1``) with no per-dart loop, and
:func:`surface_code` fills its incidence matrices with fancy-indexed XORs.
:func:`verify_equivalence` checks one code when those matrices equal the
canonical code's, which is then the surface code as well.
:func:`intermediate_surface` materializes the pre-merge stage (all darts
kept as edges, hyperedges as extra faces) for DOT export and debugging.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import index, itemgetter
from pathlib import Path

import numpy as np

from ._jsonfmt import compact_json, read_json
from .chain import _nonspecial, boundary_pair
from .css import CodeParams, CssCode, params, stabilizer_equal
from .hypermap import Hypermap, NotConnectedError, Permutation, _json_fields, choose_special_darts


@dataclass(frozen=True)
class SurfaceGraph:
    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]
    faces: tuple[frozenset[int], ...]

    def __post_init__(self):
        edges = tuple((index(a), index(b), index(label)) for a, b, label in self.edges)
        faces = tuple(frozenset(map(index, face)) for face in self.faces)
        object.__setattr__(self, "vertex_count", index(self.vertex_count))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "faces", faces)
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        labels = [label for _, _, label in edges]
        if len(set(labels)) != len(labels):
            raise ValueError("edge labels must be distinct")
        label_set = set(labels)
        for a, b, label in edges:
            if not (1 <= a <= self.vertex_count and 1 <= b <= self.vertex_count):
                raise ValueError(f"edge {label} endpoint out of range")
        for face in faces:
            if not face <= label_set:
                raise ValueError(f"face {sorted(face)} uses unknown edge labels")
        # Closed surface, observed mod 2: an edge lies on two face incidences,
        # so it shows up in exactly two face sets or cancels out of one.
        uses = Counter(label for face in faces for label in face)
        for label in labels:
            if uses[label] not in (0, 2):
                raise ValueError(
                    f"edge {label} appears in {uses[label]} faces; expected 0 or 2"
                )

    @property
    def edge_labels(self) -> tuple[int, ...]:
        return tuple(sorted(map(itemgetter(2), self.edges)))


@dataclass(frozen=True)
class RotationGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    rotation: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        edges = tuple((index(a), index(b)) for a, b in self.edges)
        rotation = tuple(tuple(map(index, cycle)) for cycle in self.rotation)
        object.__setattr__(self, "vertex_count", index(self.vertex_count))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "rotation", rotation)
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        if len(rotation) != self.vertex_count:
            raise ValueError(
                f"{len(rotation)} rotation cycles for {self.vertex_count} vertices"
            )
        for a, b in edges:
            if not (1 <= a <= self.vertex_count and 1 <= b <= self.vertex_count):
                raise ValueError(f"edge ({a},{b}) endpoint out of range")
        n_ends = 2 * len(edges)
        # Range and repeats are the permutation's own checks; with neither,
        # the count decides whether every edge-end is listed.
        sigma = Permutation.from_cycles(rotation, n_ends)
        if sum(map(len, rotation)) != n_ends:
            raise ValueError("rotation must list every edge-end exactly once")
        owner = list(chain.from_iterable(edges))  # owner[h - 1] carries edge-end h
        for v, cycle in enumerate(rotation, start=1):
            for h in cycle:
                if owner[h - 1] != v:
                    raise ValueError(f"edge-end {h} belongs at vertex {owner[h - 1]}, listed at {v}")
        object.__setattr__(self, "_sigma", sigma)

    def sigma(self) -> Permutation:
        """Next-end-around-the-vertex permutation of all edge-ends."""
        return self._sigma

    def end_swap(self) -> Permutation:
        """Involution pairing the two ends of every edge."""
        return Permutation.from_cycles(
            [(2 * j - 1, 2 * j) for j in range(1, len(self.edges) + 1)],
            2 * len(self.edges),
        )


def rotation_faces(G: RotationGraph) -> tuple[tuple[int, ...], ...]:
    """Faces of the embedded graph, as edge-end orbits of the face traversal."""
    if not G.edges:
        raise ValueError("face traversal needs at least one edge")
    return (G.sigma() * G.end_swap()).orbits().orbits


def rotation_to_surface(G: RotationGraph) -> SurfaceGraph:
    """Forget the rotation system, keeping the face list it induces.

    Edges are labeled by their 1-based edge index; each face becomes the
    mod-2 support of the edges its boundary traverses.
    """
    faces = []
    for orbit in rotation_faces(G):
        support: set[int] = set()
        for h in orbit:
            support ^= {(h + 1) // 2}
        faces.append(frozenset(support))
    edges = tuple((a, b, j) for j, (a, b) in enumerate(G.edges, start=1))
    return SurfaceGraph(G.vertex_count, edges, tuple(faces))


def surface_code(G: SurfaceGraph) -> CssCode:
    """Surface code of an embedded graph.

    ``hx`` is the vertex-edge incidence matrix (a loop's endpoints coincide
    and cancel to a zero column) and ``hz`` the face-edge incidence matrix;
    columns are ordered by ascending edge label.
    """
    return CssCode(*_incidence(G))


def _incidence(G: SurfaceGraph) -> tuple[np.ndarray, np.ndarray]:
    """``(hx, hz)`` of :func:`surface_code`, unchecked."""
    m = len(G.edges)
    column = dict(zip(G.edge_labels, range(m))).__getitem__
    hx = np.zeros((G.vertex_count, m), dtype=np.uint8)
    cols = np.fromiter(map(column, map(itemgetter(2), G.edges)), np.intp, m)
    hx[np.fromiter(map(itemgetter(0), G.edges), np.intp, m) - 1, cols] = 1
    hx[np.fromiter(map(itemgetter(1), G.edges), np.intp, m) - 1, cols] ^= 1  # a loop cancels
    hz = np.zeros((len(G.faces), m), dtype=np.uint8)
    sizes = list(map(len, G.faces))
    rows = np.arange(len(G.faces)).repeat(sizes)
    hz[rows, np.fromiter(map(column, chain.from_iterable(G.faces)), np.intp, sum(sizes))] = 1
    return hx, hz


def hypermap_to_surface(H: Hypermap, S: tuple[int, ...] | None = None) -> SurfaceGraph:
    """Equivalent surface graph of a canonical hypermap code.

    Vertices are the hypermap's vertex orbits; every nonspecial dart ``d``
    becomes an edge labeled ``d`` joining the vertices of ``d`` and of
    ``tau^-1(d)``; the faces are the face-boundary supports, one per
    hypermap face.  The surface code of the output is the canonical code.
    """
    if S is None:
        S = choose_special_darts(H)
    return _surface_from_code(H, S, boundary_pair(H, S))


def _surface_from_code(H: Hypermap, S: tuple[int, ...], code: CssCode) -> SurfaceGraph:
    """Surface graph read off the canonical code ``boundary_pair(H, S)``.

    Column ``k`` of the code is the ``k``-th dart of :func:`nonspecial_darts`,
    which becomes the edge label.
    """
    darts = _nonspecial(H.n_darts, S)
    rows, cols = code.hz.nonzero()  # row-major, so grouped by face
    labels = (darts[cols] + 1).tolist()
    bounds = rows.searchsorted(np.arange(code.hz.shape[0] + 1)).tolist()
    faces = tuple(frozenset(labels[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))
    return SurfaceGraph(len(H.vertices()), _dart_edges(H, darts), faces)


def _dart_edges(H: Hypermap, darts: np.ndarray) -> list[tuple[int, int, int]]:
    """``(vertex of d, vertex of tau^-1(d), d)`` (1-based) for the 0-based ``darts``."""
    vertex = H.vertices().array
    ends = (vertex[darts], vertex[H.tau.inverse().array[darts]], darts)
    return list(zip(*((end + 1).tolist() for end in ends)))


def intermediate_surface(H: Hypermap) -> SurfaceGraph:
    """Pre-merge stage of the conversion, for inspection and DOT export.

    Every dart is still an edge and every hyperedge adds a face bounded by
    its darts, whatever the special darts; deleting the special edges of a
    choice and merging across them yields :func:`hypermap_to_surface`.
    """
    faces = [frozenset(orbit) for orbit in H.faces().orbits]
    faces += [frozenset(orbit) for orbit in H.hyperedges().orbits]
    return SurfaceGraph(len(H.vertices()), _dart_edges(H, np.arange(H.n_darts)), tuple(faces))


def graph_to_hypermap(G: RotationGraph) -> tuple[Hypermap, tuple[int, ...]]:
    """Reinterpret an embedded graph as a hypermap with 2-dart hyperedges.

    Edge-ends become darts; the end-swap involution is the hyperedge
    permutation, the rotation the vertex permutation.  The special dart of
    each edge is the end at its smaller endpoint (the first end for loops),
    so the equivalent surface graph of the result recovers the input.
    """
    if not G.edges:
        raise NotConnectedError("graph has no edges")
    H = Hypermap(G.sigma(), G.end_swap())
    preferred = [
        (2 * j - 1) if a <= b else (2 * j)
        for j, (a, b) in enumerate(G.edges, start=1)
    ]
    return H, choose_special_darts(H, preferred=preferred)


@dataclass(frozen=True)
class EquivalenceReport:
    equal: bool
    graph: SurfaceGraph
    hypermap_code: CssCode
    surface_code: CssCode
    hypermap_params: CodeParams
    surface_params: CodeParams


def verify_equivalence(H: Hypermap, S: tuple[int, ...] | None = None) -> EquivalenceReport:
    """Build the canonical code and its surface code and compare stabilizers.

    The canonical code is the boundary pair ``(p1, p2)``, built and checked
    once, and the surface graph is read off the same matrices.  When its
    incidence matrices equal them, as they usually do, that code is the
    surface code too; otherwise the surface code is built and checked.
    """
    if S is None:
        S = choose_special_darts(H)
    hmap_code = boundary_pair(H, S)
    graph = _surface_from_code(H, S, hmap_code)
    hmap_params = params(hmap_code)
    hx, hz = _incidence(graph)
    if np.array_equal(hmap_code.hx, hx) and np.array_equal(hmap_code.hz, hz):
        surf_code, surf_params = hmap_code, hmap_params
    else:
        surf_code = CssCode(hx, hz)
        surf_params = params(surf_code)
    return EquivalenceReport(
        equal=stabilizer_equal(hmap_code, surf_code),
        graph=graph,
        hypermap_code=hmap_code,
        surface_code=surf_code,
        hypermap_params=hmap_params,
        surface_params=surf_params,
    )


def toric_rotation_graph(rows: int, cols: int) -> RotationGraph:
    """Square-lattice graph on the torus with the standard rotation system.

    ``rows * cols`` vertices, one rightward and one downward edge per vertex
    (wrapping around), and rotation order east, north, west, south at every
    vertex.  The induced embedding has ``rows * cols`` faces and genus 1.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")

    # Vertex v = x * cols + y (0-based) owns edges 2v + 1 (rightward) and
    # 2v + 2 (downward), whose first ends are 4v + 1 and 4v + 3.
    def vid(x: int, y: int) -> int:
        return (x % rows) * cols + (y % cols)

    edges = []
    rotation = []
    for x in range(rows):
        for y in range(cols):
            v = vid(x, y)
            edges += ((v + 1, vid(x, y + 1) + 1), (v + 1, vid(x + 1, y) + 1))
            rotation.append((4 * v + 1, 4 * vid(x - 1, y) + 4, 4 * vid(x, y - 1) + 2, 4 * v + 3))
    return RotationGraph(rows * cols, tuple(edges), tuple(rotation))


# --- DOT and JSON export --------------------------------------------------------


def surface_graph_dot(G: SurfaceGraph) -> str:
    lines = ["graph surface {"]
    for f, face in enumerate(G.faces, start=1):
        body = " ".join(map(str, sorted(face))) if face else "(empty)"
        lines.append(f"  // face {f}: {body}")
    for a, b, label in G.edges:
        lines.append(f'  v{a} -- v{b} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def rotation_graph_dot(G: RotationGraph) -> str:
    lines = ["graph rotation {"]
    for v, cycle in enumerate(G.rotation, start=1):
        lines.append(f"  // vertex {v} rotation: {' '.join(map(str, cycle))}")
    for j, (a, b) in enumerate(G.edges, start=1):
        lines.append(f'  v{a} -- v{b} [label="{j}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def surface_graph_to_json(G: SurfaceGraph) -> dict:
    return {
        "vertices": G.vertex_count,
        "edges": [[a, b, label] for a, b, label in G.edges],
        "faces": [sorted(face) for face in G.faces],
    }


def surface_graph_from_json(data: dict) -> SurfaceGraph:
    vertices, edges, faces = _json_fields(data, "surface graph", "vertices", "edges", "faces")
    if any(len(edge) != 3 for edge in edges):
        raise ValueError("surface graph JSON 'edges' must hold [a, b, label] triples")
    return SurfaceGraph(vertices, tuple(map(tuple, edges)), tuple(map(frozenset, faces)))


def rotation_graph_to_json(G: RotationGraph) -> dict:
    return {
        "vertices": G.vertex_count,
        "edges": [[a, b] for a, b in G.edges],
        "rotation": [list(cycle) for cycle in G.rotation],
    }


def rotation_graph_from_json(data: dict) -> RotationGraph:
    vertices, edges, rotation = _json_fields(data, "rotation graph", "vertices", "edges", "rotation")
    if any(len(edge) != 2 for edge in edges):
        raise ValueError("rotation graph JSON 'edges' must hold [a, b] pairs")
    return RotationGraph(vertices, tuple(map(tuple, edges)), tuple(map(tuple, rotation)))


def save_surface_graph(path, G: SurfaceGraph) -> None:
    Path(path).write_text(compact_json(surface_graph_to_json(G)))


def load_rotation_graph(path) -> RotationGraph:
    return rotation_graph_from_json(read_json(path))
