"""Boundary maps of a hypermap over GF(2), relative to a special-dart choice.

Dart sums are uint8 vectors over all ``|W|`` darts (entry ``d-1`` for dart
``d``); vertex sums are vectors over the vertex orbits.  Designating one
special dart per hyperedge imposes the relation "sum of a hyperedge's darts
is zero", which eliminates the special darts and leaves coordinates over the
``n = |W| - |E|`` nonspecial darts, ascending (:func:`nonspecial_darts`).
The two boundary matrices relative to that basis are the canonical code, a
:class:`CssCode` (defined here, the lowest module that builds one):

* ``hx = p1`` (``|V| x n``): column ``k`` records the pair of vertices
  touched by nonspecial dart ``k`` once extended to a full edge by its
  tau-predecessor.
* ``hz = p2`` (``|F| x n``): row ``f`` is the characteristic vector of face
  ``f``'s boundary after eliminating special darts.

The chain condition ``p1 @ p2^t = 0`` is the CSS orthogonality condition,
checked once when the code is constructed.

:func:`boundary_pair` builds the code from four column index arrays, taken
from per-dart index arrays (vertex, hyperedge, face, ``tau^-1``): the
read-only arrays that the hypermap's frozen objects cache
(``OrbitPartition.array``, ``Permutation.array``), used as they are.  Column
``k``, nonspecial dart ``d``, toggles two rows in each matrix: the vertices
of ``d`` and ``tau^-1(d)`` in ``p1``, and in ``p2`` the face of ``d`` and the
face of its hyperedge's special dart, which the elimination replaces by the
other darts of the hyperedge.  :meth:`CssCode.from_columns` checks the chain
condition on those arrays by pairing supports, with no matrix product:
entry ``(r, s)`` of ``hx @ hz^t`` is the parity of the number of keys
``(r, s)`` among the four row pairs of every column, so the condition holds
exactly when every key occurs an even number of times.  The surface
conversion takes the same arrays (``_canonical_columns``) and runs the same
check (``_check_pairing``) without building either matrix.  A code built
this way keeps the arrays and builds neither matrix until one is read:
:func:`~hypermap_codes.css.params` ranks it on the arrays, since a matrix
whose every column toggles two rows is the incidence matrix of a graph,
of rank ``rows - connected components`` over GF(2).  Both graphs of a
canonical code are connected, since the hypermap is, so
:func:`boundary_pair` gives the code its counts ``(1, 1)`` and no
components pass ranks it.  A code given as dense matrices (a transformed
code, a file) is checked by one
:func:`~hypermap_codes.gf2.mul` product instead, and ranked by
elimination.  The per-face and per-dart helpers (:func:`face_dart_sum`,
:func:`project_nonspecial`, :func:`dart_vertex_sum`) compute the same rows
one at a time; tests use them as the reference.  :func:`apply_basis_change`
re-expresses the pair in another basis of the quotient space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .hypermap import Hypermap, _readonly, _special_of_edge


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
    out[verts.orbit_index(dart)] ^= 1  # checks the range of dart
    out[verts.array[H.tau.inverse().array[dart - 1]]] ^= 1
    return out


def _nonspecial(n_darts: int, special: np.ndarray) -> np.ndarray:
    """0-based darts not in ``special`` (0-based), ascending: the column order of the canonical code."""
    nonspecial = np.ones(n_darts, dtype=bool)
    nonspecial[special] = False
    return nonspecial.nonzero()[0]


def nonspecial_darts(H: Hypermap, S) -> tuple[int, ...]:
    """All darts not in ``S``, ascending; the special coordinate basis.

    ``S`` is checked as :func:`~hypermap_codes.hypermap.choose_special_darts`
    checks it: exactly one dart on every hyperedge.
    """
    return tuple((_nonspecial(H.n_darts, _special_of_edge(H, S)) + 1).tolist())


def project_nonspecial(H: Hypermap, S: tuple[int, ...], x) -> np.ndarray:
    """Express a dart sum over the nonspecial basis.

    Each special dart in ``x`` is replaced by the sum of the other darts of
    its hyperedge; the result has length ``|W| - |E|`` with coordinates in
    nonspecial-dart order.  ``S`` is read once, so any iterable will do.
    """
    S = tuple(S)
    (x,) = gf2.as_matrix([x])
    if x.shape[0] != H.n_darts:
        raise ValueError(f"dart sum has length {x.shape[0]}, expected {H.n_darts}")
    edges = H.hyperedges()
    basis = nonspecial_darts(H, S)
    position = {d: k for k, d in enumerate(basis)}
    special = set(S)
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


def _toggle_columns(rows: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``rows x len(a)`` matrix whose column ``k`` is ``e_a[k] + e_b[k]`` mod 2."""
    M = np.zeros((rows, a.size), dtype=np.uint8)
    cols = np.arange(a.size)
    M[a, cols] = 1
    M[b, cols] ^= 1
    return M


def _check_pairing(x_ends: np.ndarray, z_rows: int, z_ends: np.ndarray) -> None:
    """Raise unless the columns given by ``x_ends`` and ``z_ends`` satisfy the chain condition.

    Entry ``(r, s)`` of ``hx @ hz^t`` is the parity of the number of keys
    ``(r, s)`` among the four row pairs of every column, so the condition
    holds exactly when the keys, once sorted, pair up as equal neighbours.
    """
    if x_ends.shape[1] != z_ends.shape[1]:
        raise ValueError(f"hx has {x_ends.shape[1]} columns but hz has {z_ends.shape[1]}")
    # keys[i, j, k] pairs row x_ends[i, k] of hx with row z_ends[j, k] of hz.
    keys = (x_ends[:, None] * z_rows + z_ends).ravel()
    keys.sort()
    if (keys[0::2] != keys[1::2]).any():
        raise ValueError("hx and hz are not orthogonal over GF(2)")


@dataclass(frozen=True, eq=False, repr=False)
class CssCode:
    """Generator matrices ``hx`` and ``hz`` (read-only ``uint8``), checked orthogonal over GF(2).

    Every code is checked once, when it is built: from dense matrices by one
    :func:`~hypermap_codes.gf2.mul` product, or by :meth:`from_columns` from
    column index arrays, which the code then keeps as ``_columns``, with
    its row counts as ``_rows``.  A column-built code fills each of ``hx``
    and ``hz`` the first time it is read (:meth:`__getattr__`); until then
    it holds only the arrays.  A canonical code (:func:`boundary_pair`) also
    carries the component counts of its two column graphs as ``_components``.

    Codes compare and hash by identity, and ``repr`` reads only ``n`` and
    the row counts, so neither fills a matrix;
    :func:`~hypermap_codes.css.stabilizer_equal` compares row spaces.
    """

    hx: np.ndarray
    hz: np.ndarray
    # Set by from_columns (rows, columns) and boundary_pair (components) on
    # the code they build; None otherwise.
    _rows = _columns = _components = None

    def __post_init__(self):
        hx = gf2.as_matrix(self.hx).copy()
        hz = gf2.as_matrix(self.hz).copy()
        if hx.shape[1] != hz.shape[1]:
            raise ValueError(
                f"hx has {hx.shape[1]} columns but hz has {hz.shape[1]}"
            )
        if np.any(gf2.mul(hx, hz.T)):
            raise ValueError("hx and hz are not orthogonal over GF(2)")
        hx.setflags(write=False)
        hz.setflags(write=False)
        object.__setattr__(self, "hx", hx)
        object.__setattr__(self, "hz", hz)

    @classmethod
    def from_columns(cls, x_rows: int, x_ends: np.ndarray, z_rows: int, z_ends: np.ndarray) -> "CssCode":
        """The code whose column ``k`` toggles rows ``x_ends[:, k]`` of ``hx`` and ``z_ends[:, k]`` of ``hz``.

        ``x_ends`` and ``z_ends`` are ``2 x n`` index arrays; a column whose
        two rows coincide is zero.  The chain condition is checked by
        pairing supports (:func:`_check_pairing`).  The arrays are not
        copied: they are made read-only in place and kept as ``_columns``.
        Neither matrix is built here.
        """
        _check_pairing(x_ends, z_rows, z_ends)
        x_ends.setflags(write=False)
        z_ends.setflags(write=False)
        code = cls.__new__(cls)
        object.__setattr__(code, "_rows", (x_rows, z_rows))
        object.__setattr__(code, "_columns", (x_ends, z_ends))
        return code

    def __getattr__(self, name: str):
        # Reached only when ``name`` is not set: ``hx`` or ``hz`` of a
        # column-built code that has not been read yet.
        if name not in ("hx", "hz") or self._columns is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        i = ("hx", "hz").index(name)
        matrix = _readonly(_toggle_columns(self._rows[i], *self._columns[i]))
        object.__setattr__(self, name, matrix)
        return matrix

    @property
    def n(self) -> int:
        return self.hx.shape[1] if self._columns is None else self._columns[0].shape[1]

    def __repr__(self) -> str:
        x_rows, z_rows = self._rows or (self.hx.shape[0], self.hz.shape[0])
        return f"CssCode(n={self.n}, hx_rows={x_rows}, hz_rows={z_rows})"


def _canonical_columns(H: Hypermap, S) -> tuple[np.ndarray, tuple[int, np.ndarray, int, np.ndarray]]:
    """The nonspecial darts (0-based, ascending) and ``(x_rows, x_ends, z_rows, z_ends)``, not yet checked.

    The four are the canonical code's arguments of :meth:`CssCode.from_columns`: column ``k``,
    nonspecial dart ``d``, toggles the vertices of ``d`` and ``tau^-1(d)``
    and the faces of ``d`` and of its hyperedge's special dart.
    """
    vertices, faces = H.vertices(), H.faces()
    special_of_edge = _special_of_edge(H, S)
    vertex, edge, face = vertices.array, H.hyperedges().array, faces.array
    tau_inv = H.tau.inverse().array
    darts = _nonspecial(H.n_darts, special_of_edge)
    return darts, (
        len(vertices),
        np.array((vertex[darts], vertex[tau_inv[darts]])),
        len(faces),
        np.array((face[darts], face[special_of_edge[edge[darts]]])),
    )


def boundary_pair(H: Hypermap, S=None) -> CssCode:
    """The canonical code: both boundary matrices in the special basis defined by ``S``.

    ``S`` is checked as :func:`~hypermap_codes.hypermap.choose_special_darts`
    checks it; omitted, each hyperedge's smallest dart is special.

    ``hx`` is the vertex boundary ``p1`` and ``hz`` the face boundary
    ``p2``; columns follow :func:`nonspecial_darts`.  The code is built, and
    its chain condition checked, from its column arrays
    (:meth:`CssCode.from_columns`).  Both of its column graphs are
    connected, since ``H`` is (:func:`~hypermap_codes.css.params`), so it
    carries the component counts ``(1, 1)``.
    """
    code = CssCode.from_columns(*_canonical_columns(H, S)[1])
    object.__setattr__(code, "_components", (1, 1))
    return code


def apply_basis_change(code: CssCode, T) -> CssCode:
    """Re-express a code's boundary pair in the basis whose columns ``T`` describes.

    Column ``j`` of ``T`` holds the current-basis coordinates of the ``j``-th
    new basis vector.  ``hx`` maps to ``hx @ T`` and ``hz`` (rows being
    characteristic vectors) to ``hz @ (T^-1)^t``, which preserves the chain
    condition.
    """
    T = gf2.as_matrix(T)
    n = code.n
    if T.shape != (n, n):
        raise ValueError(f"basis change is {T.shape}, expected {(n, n)}")
    return CssCode(gf2.mul(code.hx, T), gf2.mul(code.hz, gf2.invert(T).T))
