"""Surface graphs, rotation systems, and the hypermap/surface conversions.

A :class:`SurfaceGraph` is a multigraph embedded on a closed surface, with
labeled edges and an explicit face list; faces are stored as mod-2 boundary
supports (edge-label sets), so an edge whose two face incidences coincide
cancels out of that face's set.  A :class:`RotationGraph` encodes an
embedding the combinatorial way: a cyclic order of edge-ends around every
vertex.  Edge ``j`` (1-based) has edge-ends ``2j-1`` at its first endpoint
and ``2j`` at its second; these ids double as dart labels when a graph is
reinterpreted as a hypermap.

The conversion from a hypermap to its equivalent surface graph reads the
canonical code's column index arrays, one column per nonspecial dart ``d``
in ascending order: the edge joins the vertices of ``d`` and of
``tau^-1(d)``, and the faces are the nonzeros of the face-boundary matrix
``hz``, read off its two face rows per column, exactly the merged-face
boundary the drawing-based procedure produces.  :func:`hypermap_to_surface`
checks the chain condition on those arrays by pairing supports and builds
neither dense matrix; :func:`~hypermap_codes.chain.boundary_pair` stays the
only builder of the canonical code.  The surface code of that graph is the
canonical code, column for column, so :func:`verify_equivalence` builds no
graph: it builds and checks the canonical code once and reports it as both
codes.  :class:`SurfaceGraph` checks once that a graph lies on a closed
surface, and :func:`surface_code` builds its incidence matrices.
:func:`intermediate_surface` materializes the pre-merge stage (all darts
kept as edges, hyperedges as extra faces) for DOT export and debugging.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import index, itemgetter

import numpy as np

from ._jsonfmt import compact_json, read_json, write_text
from .chain import _canonical_columns, _check_pairing, _nonspecial, _toggle_columns, boundary_pair
from .css import CodeParams, CssCode, params
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
        # Column k is edge k; a dict takes labels of any size, -1 if unknown.
        labels = list(map(itemgetter(2), edges))
        column = {label: k for k, label in enumerate(labels)}
        if len(column) != len(labels):
            raise ValueError("edge labels must be distinct")
        ends = np.array([[a for a, _, _ in edges], [b for _, b, _ in edges]], dtype=object) - 1
        sizes = list(map(len, faces))
        rows = np.arange(len(faces)).repeat(sizes)
        cols = np.fromiter((column.get(x, -1) for x in chain.from_iterable(faces)), np.intp, sum(sizes))
        # On a closed surface: every endpoint a vertex, every face label an
        # edge, and every edge in 0 or 2 faces.
        bad = np.flatnonzero(((ends < 0) | (ends >= self.vertex_count)).any(axis=0))
        if bad.size:
            raise ValueError(f"edge {labels[bad[0]]} endpoint out of range")
        bad = np.flatnonzero(cols < 0)
        if bad.size:
            raise ValueError(f"face {sorted(faces[rows[bad[0]]])} uses unknown edge labels")
        # Mod 2, an edge's two face incidences put it in two faces or in none.
        uses = np.bincount(cols, minlength=len(labels))
        bad = np.flatnonzero((uses != 0) & (uses != 2))
        if bad.size:
            k = bad[0]
            raise ValueError(f"edge {labels[k]} appears in {uses[k]} faces; expected 0 or 2")
        object.__setattr__(self, "_columns", (labels, ends, rows, cols))

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
    labels, ends, rows, cols = G._columns
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rank = np.empty(len(order), dtype=np.intp)  # column of edge k, by ascending label
    rank[order] = np.arange(len(order))
    hz = np.zeros((len(G.faces), len(labels)), dtype=np.uint8)
    hz[rows, rank[cols]] = 1
    return CssCode(_toggle_columns(G.vertex_count, *ends[:, order].astype(np.intp)), hz)


def hypermap_to_surface(H: Hypermap, S: tuple[int, ...] | None = None) -> SurfaceGraph:
    """Equivalent surface graph of a canonical hypermap code.

    Vertices are the hypermap's vertex orbits; every nonspecial dart ``d``
    becomes an edge labeled ``d`` joining the vertices of ``d`` and of
    ``tau^-1(d)``; the faces are the face-boundary supports, one per
    hypermap face.  The surface code of the output is the canonical code.
    The graph is read off the canonical code's column arrays, whose chain
    condition is checked by pairing supports; neither matrix is built.
    """
    if S is None:
        S = choose_special_darts(H)
    vertex_count, ends, face_count, face_ends = _canonical_columns(H, S)
    _check_pairing(ends, face_count, face_ends)
    labels = _nonspecial(H.n_darts, S) + 1
    # A column whose two face rows coincide is zero: its edge is in no face.
    keep = face_ends[0] != face_ends[1]
    rows = face_ends[:, keep].ravel()
    order = rows.argsort(kind="stable")  # group the entries by face
    face_labels = np.tile(labels[keep], 2)[order].tolist()
    bounds = rows[order].searchsorted(np.arange(face_count + 1)).tolist()
    faces = tuple(frozenset(face_labels[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))
    return SurfaceGraph(vertex_count, tuple(zip(*(ends + 1).tolist(), labels.tolist())), faces)


def intermediate_surface(H: Hypermap) -> SurfaceGraph:
    """Pre-merge stage of the conversion, for inspection and DOT export.

    Every dart is still an edge and every hyperedge adds a face bounded by
    its darts, whatever the special darts; deleting the special edges of a
    choice and merging across them yields :func:`hypermap_to_surface`.
    """
    faces = [frozenset(orbit) for orbit in H.faces().orbits]
    faces += [frozenset(orbit) for orbit in H.hyperedges().orbits]
    # Dart d joins the vertices of d and of tau^-1(d).
    vertex = H.vertices().array + 1
    edges = zip(vertex.tolist(), vertex[H.tau.inverse().array].tolist(), range(1, H.n_darts + 1))
    return SurfaceGraph(len(H.vertices()), tuple(edges), tuple(faces))


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
    hypermap_code: CssCode
    surface_code: CssCode
    hypermap_params: CodeParams
    surface_params: CodeParams


def verify_equivalence(H: Hypermap, S: tuple[int, ...] | None = None) -> EquivalenceReport:
    """Build the canonical code and report it as the surface code of its graph.

    The canonical code is built from its column arrays and its chain
    condition checked once, by pairing supports
    (:func:`~hypermap_codes.chain.boundary_pair`).  The equivalent surface
    graph (:func:`hypermap_to_surface`) is read off those same arrays: edge
    ``k`` joins the two vertex rows of column ``k`` and lies in its two face
    rows, so its incidence matrices are the canonical code, bit for bit.
    ``equal`` is therefore true by construction, and ``surface_code`` is
    ``hypermap_code``.  The theorem is cross-checked independently in the
    tests: against ``reference_surface_code`` and ``reference_boundary_rows``
    (entry-by-entry builds) and, in acceptance criterion 7, against the
    faces of a rotation system.
    """
    if S is None:
        S = choose_special_darts(H)
    code = boundary_pair(H, S)
    code_params = params(code)
    return EquivalenceReport(
        equal=True,
        hypermap_code=code,
        surface_code=code,
        hypermap_params=code_params,
        surface_params=code_params,
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


def surface_graph_to_json(G: SurfaceGraph) -> dict:
    return {
        "vertices": G.vertex_count,
        "edges": [[a, b, label] for a, b, label in G.edges],
        "faces": [sorted(face) for face in G.faces],
    }


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
    write_text(path, compact_json(surface_graph_to_json(G)))


def load_rotation_graph(path) -> RotationGraph:
    return rotation_graph_from_json(read_json(path))
