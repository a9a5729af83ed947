"""Boundary maps of a hypermap over GF(2), relative to a special-dart choice.

Dart sums are uint8 vectors over all ``|W|`` darts (entry ``d-1`` for dart
``d``); vertex sums are vectors over the vertex orbits.  Designating one
special dart per hyperedge imposes the relation "sum of a hyperedge's darts
is zero", which eliminates the special darts and leaves coordinates over the
``n = |W| - |E|`` nonspecial darts, ascending.  The two boundary matrices
relative to that basis form a :class:`BoundaryPair`:

* ``p1`` (``|V| x n``): column ``k`` records the pair of vertices touched by
  nonspecial dart ``k`` once extended to a full edge by its tau-predecessor.
* ``p2`` (``|F| x n``): row ``f`` is the characteristic vector of face
  ``f``'s boundary after eliminating special darts.

``p1 @ p2^t = 0`` always holds and is validated at construction.

:func:`boundary_pair` builds both matrices in one pass over per-dart index
arrays (vertex, hyperedge, face, ``tau^-1``) read from the hypermap, whose
frozen objects compute that structure once.  Every column has two toggled
entries in each matrix: nonspecial dart ``d`` touches the vertices of ``d``
and ``tau^-1(d)`` in ``p1``, and in ``p2`` the face of ``d`` and the face of
its hyperedge's special dart, which the elimination replaces by the other
darts of the hyperedge.  The per-face and per-dart helpers
(:func:`face_dart_sum`, :func:`project_nonspecial`, :func:`dart_vertex_sum`)
compute the same rows one at a time; tests use them as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .hypermap import Hypermap, SpecialDartSet, check_special_darts


def face_dart_sum(H: Hypermap, face: int) -> np.ndarray:
    """Characteristic vector (length ``|W|``) of the darts in face ``face``."""
    orbit = H.faces().orbits[face]
    out = np.zeros(H.n_darts, dtype=np.uint8)
    for d in orbit:
        out[d - 1] = 1
    return out


def dart_vertex_sum(H: Hypermap, dart: int) -> np.ndarray:
    """Vertex pair (length ``|V|``) bounding dart ``dart`` and its tau-predecessor.

    The two incident vertices may coincide, in which case the sum cancels to
    the zero vector.
    """
    verts = H.vertices()
    out = np.zeros(len(verts), dtype=np.uint8)
    out[verts.orbit_index(dart)] ^= 1
    out[verts.orbit_index(H.tau.inverse()(dart))] ^= 1
    return out


def hyperedge_dart_sum(H: Hypermap, edge: int) -> np.ndarray:
    """Characteristic vector (length ``|W|``) of the darts on hyperedge ``edge``."""
    orbit = H.hyperedges().orbits[edge]
    out = np.zeros(H.n_darts, dtype=np.uint8)
    for d in orbit:
        out[d - 1] = 1
    return out


def nonspecial_darts(H: Hypermap, S: SpecialDartSet) -> tuple[int, ...]:
    """All darts not in ``S``, ascending; the special coordinate basis."""
    special = set(S.darts)
    return tuple(d for d in range(1, H.n_darts + 1) if d not in special)


def project_nonspecial(H: Hypermap, S: SpecialDartSet, x) -> np.ndarray:
    """Express a dart sum over the nonspecial basis.

    Each special dart in ``x`` is replaced by the sum of the other darts of
    its hyperedge; the result has length ``|W| - |E|`` with coordinates in
    nonspecial-dart order.
    """
    x = gf2.as_vector(x)
    if x.shape[0] != H.n_darts:
        raise ValueError(f"dart sum has length {x.shape[0]}, expected {H.n_darts}")
    edges = H.hyperedges()
    basis = nonspecial_darts(H, S)
    position = {d: k for k, d in enumerate(basis)}
    special = set(S.darts)
    out = np.zeros(len(basis), dtype=np.uint8)
    for d in range(1, H.n_darts + 1):
        if not x[d - 1]:
            continue
        if d in special:
            for j in edges.orbits[edges.orbit_index(d)]:
                if j != d:
                    out[position[j]] ^= 1
        else:
            out[position[d]] ^= 1
    return out


@dataclass(frozen=True)
class QuotientBasis:
    """Bookkeeping for the coordinate basis of the dart quotient space.

    ``transform`` columns hold the special-basis coordinates of each basis
    vector; ``kind`` is ``"special"`` exactly when it is the identity.
    """

    kind: str
    darts: tuple[int, ...]
    transform: np.ndarray

    def __post_init__(self):
        T = gf2.as_matrix(self.transform)
        n = len(self.darts)
        if T.shape != (n, n):
            raise ValueError(f"transform is {T.shape}, expected {(n, n)}")
        T = T.copy()
        T.setflags(write=False)
        object.__setattr__(self, "transform", T)
        expected = "special" if np.array_equal(T, gf2.identity(n)) else "general"
        if self.kind != expected:
            raise ValueError(f"basis kind {self.kind!r} but transform says {expected!r}")

    @classmethod
    def special(cls, darts: tuple[int, ...]) -> "QuotientBasis":
        return cls("special", tuple(darts), gf2.identity(len(darts)))


@dataclass(frozen=True)
class BoundaryPair:
    p1: np.ndarray
    p2: np.ndarray
    basis: QuotientBasis

    def __post_init__(self):
        p1 = gf2.as_matrix(self.p1).copy()
        p2 = gf2.as_matrix(self.p2).copy()
        if p1.shape[1] != p2.shape[1]:
            raise ValueError(
                f"p1 has {p1.shape[1]} columns but p2 has {p2.shape[1]}"
            )
        if p1.shape[1] != len(self.basis.darts):
            raise ValueError("column count does not match the basis size")
        if np.any(gf2.mul(p1, p2.T)):
            raise ValueError("chain condition violated: p1 @ p2^t != 0")
        p1.setflags(write=False)
        p2.setflags(write=False)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)

    @property
    def n(self) -> int:
        return self.p1.shape[1]


def _toggle_columns(rows: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``rows x len(a)`` matrix whose column ``k`` is ``e_a[k] + e_b[k]`` mod 2."""
    M = np.zeros((rows, a.size), dtype=np.uint8)
    cols = np.arange(a.size)
    M[a, cols] = 1
    M[b, cols] ^= 1
    return M


def boundary_pair(H: Hypermap, S: SpecialDartSet) -> BoundaryPair:
    """Both boundary matrices in the special basis defined by ``S``."""
    check_special_darts(H, S)
    vertices, edges, faces = H.vertices(), H.hyperedges(), H.faces()
    vertex = np.array(vertices.labels)
    edge = np.array(edges.labels)
    face = np.array(faces.labels)
    tau_inv = np.array(H.tau.inverse().image) - 1
    special = np.array(S.darts) - 1
    special_of_edge = np.empty(len(edges), dtype=np.intp)
    special_of_edge[edge[special]] = special
    is_special = np.zeros(H.n_darts, dtype=bool)
    is_special[special] = True
    darts = np.flatnonzero(~is_special)  # 0-based, ascending: the column order
    p1 = _toggle_columns(len(vertices), vertex[darts], vertex[tau_inv[darts]])
    p2 = _toggle_columns(len(faces), face[darts], face[special_of_edge[edge[darts]]])
    return BoundaryPair(p1, p2, QuotientBasis.special(tuple((darts + 1).tolist())))


def apply_basis_change(bp: BoundaryPair, T) -> BoundaryPair:
    """Re-express a boundary pair in the basis whose columns ``T`` describes.

    Column ``j`` of ``T`` holds the current-basis coordinates of the ``j``-th
    new basis vector.  ``p1`` maps to ``p1 @ T`` and ``p2`` (rows being
    characteristic vectors) to ``p2 @ (T^-1)^t``, which preserves the chain
    condition.
    """
    T = gf2.as_matrix(T)
    n = bp.n
    if T.shape != (n, n):
        raise ValueError(f"basis change is {T.shape}, expected {(n, n)}")
    T_inv = gf2.invert(T)
    p1 = gf2.mul(bp.p1, T)
    p2 = gf2.mul(bp.p2, T_inv.T)
    combined = gf2.mul(bp.basis.transform, T)
    kind = "special" if np.array_equal(combined, gf2.identity(n)) else "general"
    return BoundaryPair(p1, p2, QuotientBasis(kind, bp.basis.darts, combined))
