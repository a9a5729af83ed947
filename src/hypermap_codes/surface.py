"""Surface graphs, rotation systems, and the hypermap/surface conversions.

A :class:`SurfaceGraph` is a multigraph embedded on a closed surface, held
in the canonical code's column format: edge ``k`` has a label, two ends
(vertices) and two sides (faces), so it lies in two faces or, when its
sides coincide, in none mod 2.  Its 1-based edge triples and mod-2 face
supports are built on first use, for the writers.  A :class:`RotationGraph`
encodes an embedding the combinatorial way: a cyclic order of edge-ends
around every vertex.  Edge ``j`` (1-based) has edge-ends ``2j-1`` at its
first endpoint and ``2j`` at its second; these ids double as dart labels
when a graph is reinterpreted as a hypermap.

The equivalent surface graph of a hypermap is the canonical code's column
arrays, one column per nonspecial dart ``d`` in ascending order: the edge
joins the vertices of ``d`` and ``tau^-1(d)`` and lies between the face of
``d`` and the face of its hyperedge's special dart, exactly the merged-face
boundary of the drawing-based procedure.  :func:`hypermap_to_surface`
checks the chain condition on those arrays by pairing supports and builds
no matrix.  The surface code of that graph is the canonical code, column
for column, so :func:`verify_equivalence` builds no graph: it builds and
checks the canonical code once (:func:`~hypermap_codes.chain.boundary_pair`)
and returns it with its parameters, ranked by the component counts it
carries.  :func:`surface_code` builds the code of any graph from its
columns, checked by the same support pairing, and ranked by counting
components.
:func:`intermediate_surface` materializes the pre-merge stage (all darts
kept as edges, hyperedges as extra faces) for DOT export and debugging.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import index

import numpy as np

from ._jsonfmt import compact_json, read_json, write_text
from .chain import _canonical_columns, _check_pairing, boundary_pair
from .css import CodeParams, CssCode, params
from .hypermap import Hypermap, NotConnectedError, Permutation, _cached, _json_fields, _readonly, choose_special_darts


@dataclass(frozen=True, eq=False)
class SurfaceGraph:
    """Edge ``k`` has label ``labels[k]``, ends ``ends[:, k]`` and sides ``sides[:, k]``.

    ``labels`` is ``(m,)``, positive and strictly ascending; ``ends`` and
    ``sides`` are ``2 x m``, 0-based vertices below ``vertex_count`` and
    0-based faces below ``face_count``.  The arrays are held read-only as
    ``intp``; an ``intp`` array is not copied.  These are the only checks:
    with two sides, every edge is in 0 or 2 faces mod 2.  Each error names
    the first bad edge.
    """

    vertex_count: int
    face_count: int
    labels: np.ndarray
    ends: np.ndarray
    sides: np.ndarray

    def __post_init__(self):
        for name in ("vertex_count", "face_count"):
            object.__setattr__(self, name, index(getattr(self, name)))
        for name in ("labels", "ends", "sides"):
            array = np.asarray(getattr(self, name))
            if array.size and array.dtype.kind not in "iu":
                raise TypeError(f"{name} must be integers, got {array.dtype}")
            object.__setattr__(self, name, _readonly(array.astype(np.intp, copy=False)))
        labels = self.labels
        shapes = labels.shape, self.ends.shape, self.sides.shape
        if labels.ndim != 1 or shapes[1:] != ((2, labels.size),) * 2:
            raise ValueError(f"labels, ends and sides have shapes {shapes}, expected (m,), (2, m) and (2, m)")
        bad = np.flatnonzero(labels <= np.concatenate(([0], labels[:-1])))
        if bad.size:
            raise ValueError(f"edge {bad[0] + 1} has label {labels[bad[0]]}; labels must ascend from 1")
        for name, values, count in (("ends", self.ends, self.vertex_count), ("sides", self.sides, self.face_count)):
            bad = np.flatnonzero(((values < 0) | (values >= count)).any(axis=0))
            if bad.size:
                k = bad[0]
                raise ValueError(f"edge {labels[k]} has {name} {values[:, k].tolist()}, outside 0..{count - 1}")

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """``(a, b, label)`` of every edge, with 1-based vertices ``a`` and ``b``."""
        return _cached(self, "_edges", lambda: tuple(zip(*(self.ends + 1).tolist(), self.labels.tolist())))

    @property
    def faces(self) -> tuple[frozenset[int], ...]:
        """Mod-2 boundary support of every face: the labels of the edges with exactly one side on it."""
        return _cached(self, "_faces", self._face_supports)

    def _face_supports(self) -> tuple[frozenset[int], ...]:
        keep = self.sides[0] != self.sides[1]
        rows = self.sides[:, keep].ravel()
        order = rows.argsort(kind="stable")  # group the entries by face
        face_labels = np.tile(self.labels[keep], 2)[order].tolist()
        bounds = rows[order].searchsorted(np.arange(self.face_count + 1)).tolist()
        return tuple(frozenset(face_labels[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))


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
        return Permutation._of_array(np.arange(2 * len(self.edges)) ^ 1)


def rotation_to_surface(G: RotationGraph) -> SurfaceGraph:
    """Forget the rotation system, keeping the faces it induces.

    Edges are labeled by their 1-based edge index; the sides of edge ``j``
    are the faces of its edge-ends ``2j-1`` and ``2j``, the orbits of the
    face traversal ``sigma * end_swap``.
    """
    if not G.edges:
        raise ValueError("face traversal needs at least one edge")
    faces = (G.sigma() * G.end_swap()).orbits()
    ends = np.array(G.edges, dtype=np.intp).T - 1
    return SurfaceGraph(G.vertex_count, len(faces), np.arange(1, len(G.edges) + 1), ends, faces.array.reshape(-1, 2).T)


def surface_code(G: SurfaceGraph) -> CssCode:
    """Surface code of an embedded graph, checked by support pairing.

    ``hx`` is the vertex-edge incidence matrix (a loop's endpoints coincide
    and cancel to a zero column) and ``hz`` the face-edge incidence matrix;
    column ``k`` is edge ``k``, in ascending label order.
    """
    return CssCode.from_columns(G.vertex_count, G.ends, G.face_count, G.sides)


def hypermap_to_surface(H: Hypermap, S: tuple[int, ...] | None = None) -> SurfaceGraph:
    """Equivalent surface graph of a canonical hypermap code.

    Vertices are the hypermap's vertex orbits; every nonspecial dart ``d``
    becomes an edge labeled ``d`` joining the vertices of ``d`` and of
    ``tau^-1(d)``, between the face of ``d`` and the face of its
    hyperedge's special dart.  The surface code of the output is the
    canonical code: the graph is the canonical code's column arrays, whose
    chain condition is checked by pairing supports; neither matrix is built.
    """
    darts, (vertex_count, ends, face_count, sides) = _canonical_columns(H, S)
    _check_pairing(ends, face_count, sides)
    return SurfaceGraph(vertex_count, face_count, darts + 1, ends, sides)


def intermediate_surface(H: Hypermap) -> SurfaceGraph:
    """Pre-merge stage of the conversion, for inspection and DOT export.

    Every dart is still an edge and every hyperedge adds a face bounded by
    its darts, whatever the special darts; deleting the special edges of a
    choice and merging across them yields :func:`hypermap_to_surface`.
    Dart ``d`` joins the vertices of ``d`` and of ``tau^-1(d)``, between
    the face of ``d`` and the face of its hyperedge.
    """
    vertices, faces, edges = H.vertices(), H.faces(), H.hyperedges()
    ends = np.array((vertices.array, vertices.array[H.tau.inverse().array]))
    sides = np.array((faces.array, len(faces) + edges.array))
    return SurfaceGraph(len(vertices), len(faces) + len(edges), np.arange(1, H.n_darts + 1), ends, sides)


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


def verify_equivalence(H: Hypermap, S: tuple[int, ...] | None = None) -> tuple[CssCode, CodeParams]:
    """The canonical code, which is the surface code of its graph, and its parameters.

    The code is built from its column arrays and its chain condition checked
    once, by pairing supports (:func:`~hypermap_codes.chain.boundary_pair`);
    a failed check raises ``ValueError``.  Its ranks come from the
    component counts ``(1, 1)`` it carries
    (:func:`~hypermap_codes.css.params`), so neither dense matrix is built
    and no components pass is made.  The equivalent surface graph
    (:func:`hypermap_to_surface`) is those same arrays, so its code is this
    one, bit for bit.  The tests cross-check the theorem independently:
    against entry-by-entry builds (``reference_surface_code``,
    ``reference_boundary_rows``) and, in acceptance criterion 7, against the
    faces of a rotation system.
    """
    code = boundary_pair(H, S)
    return code, params(code)


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
