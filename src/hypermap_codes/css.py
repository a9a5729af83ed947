"""CSS stabilizer codes built from hypermap boundary pairs.

A :class:`CssCode` is the pair of generator matrices ``(hx, hz)`` with
``hx @ hz^t = 0``; rows are generators, columns are qubits.  The class lives
in :mod:`~hypermap_codes.chain`, whose :func:`boundary_pair` returns the
canonical code, and is re-exported here.  Dependent rows are kept, since
the row spaces are what define the code; :func:`reduced` drops them for
display.  :func:`params` gives ``n`` and ``k`` only, ranking a column-built
code by the connected components of its column graphs (one each for a
canonical code, which carries them) and a dense one by elimination; the
distance comes from
:func:`~hypermap_codes.distance.distance_split`, and row-space equality from
the echelon bases of :func:`~hypermap_codes.gf2.row_basis`.

The canonical code of a hypermap places one qubit on each nonspecial dart;
any invertible basis change of the underlying quotient space is realized on
the code by a CNOT circuit obtained from the elementary-factor
decomposition of the change matrix.  A gate is a 1-based
``(control, target)`` pair, and a :class:`CnotCircuit` holds its gates as
one ``(m, 2)`` array: factor ``f_ij`` of
:func:`~hypermap_codes.gf2.decompose_elementary` is the CNOT with control
``i`` and target ``j``, so the array passes unchanged from the
decomposition to the gate loop of :func:`transform`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from ._jsonfmt import read_text, write_text
from .chain import CssCode, apply_basis_change, boundary_pair
from .hypermap import Hypermap, components


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int


@dataclass(frozen=True, eq=False)
class CnotCircuit:
    """A CNOT circuit on ``n`` qubits, held as one ``(m, 2)`` integer array.

    Row ``l`` of ``gates`` is the 1-based ``(control, target)`` of gate
    ``l``.  All gates are checked at once; each error names the first bad
    gate.  This is the one place gates are validated.  Circuits compare and
    hash by identity.
    """

    gates: np.ndarray
    n: int

    def __post_init__(self):
        gates = np.asarray(self.gates)
        if gates.size and gates.dtype.kind not in "iu":
            raise ValueError(f"gate labels must be integers, got {gates.dtype}")
        gates = gates.astype(np.intp).reshape(-1, 2)
        control, target = gates[:, 0], gates[:, 1]
        bad = np.flatnonzero((control < 1) | (target < 1) | (control == target))
        if bad.size:
            if gates[bad[0]].min() < 1:
                raise ValueError("qubit labels are 1-based")
            raise ValueError("control and target must differ")
        bad = np.flatnonzero((control > self.n) | (target > self.n))
        if bad.size:
            c, t = gates[bad[0]].tolist()
            raise ValueError(f"gate ({c}, {t}) exceeds {self.n} qubits")
        if len(gates) > self.n * self.n:
            raise ValueError(f"{len(gates)} gates exceed the n^2 bound")
        gates.setflags(write=False)
        object.__setattr__(self, "gates", gates)

    def __len__(self) -> int:
        return len(self.gates)


def build_canonical(H: Hypermap, S: tuple[int, ...] | None = None) -> CssCode:
    """Canonical code of a hypermap: qubits on nonspecial darts.

    With ``S`` omitted the default special darts (smallest per hyperedge)
    are used.  ``hx`` is the vertex boundary matrix and ``hz`` rows are the
    face boundaries; the code length is ``|W| - |E|``.
    """
    return boundary_pair(H, S)


def reduced(code: CssCode) -> CssCode:
    """Row-reduce both sectors and drop zero rows (display form)."""

    def reduce_one(M):
        R, pivots = gf2.row_echelon(M)
        return R[: len(pivots)]

    return CssCode(reduce_one(code.hx), reduce_one(code.hz))


def params(code: CssCode) -> CodeParams:
    """Length and logical count; ``k = n - rank(hx) - rank(hz)``.

    A column-built code (:meth:`CssCode.from_columns`) is ranked on its
    column arrays, with no matrix: each column toggles two rows, so ``hx``
    is the incidence matrix of a graph on its rows (a loop is a zero
    column), and over GF(2) its rank is ``rows - components``.  The rows of
    a component sum to zero, and the edges of a spanning forest are
    independent.  The same holds for ``hz``.

    A canonical code (:func:`~hypermap_codes.chain.boundary_pair`) carries
    its counts, ``(1, 1)``, and is ranked with no components pass.  Its
    ``hx`` graph is the vertex graph of the connected hypermap minus one
    edge of each hyperedge's closed walk: the darts of a hyperedge join its
    vertices round a closed walk, and dropping the special dart's edge
    leaves a path through the same vertices.  Its ``hz`` graph is the face
    graph of a connected surface: faces (orbits of ``sigma * tau^-1``) and
    hyperedges (orbits of ``tau``) generate the same transitive group, and
    each hyperedge joins the faces of its darts to the face of its special
    dart.  So both graphs are connected for any ``S``, the ranks are
    ``V - 1`` and ``F - 1``, and with ``n = W - E`` Euler's formula
    ``V + E + F - W = 2 - 2g`` gives ``k = 2g``.  Any other column-built
    code, such as the :func:`~hypermap_codes.surface.surface_code` of a
    rotation graph, which may be disconnected, counts its components with
    :func:`~hypermap_codes.hypermap.components`, the routine that checks a
    hypermap's connectivity.  A code given as dense
    matrices is ranked by :func:`~hypermap_codes.gf2.rank`.
    """
    if code._columns is None:
        ranks = gf2.rank(code.hx) + gf2.rank(code.hz)
    else:
        counts = code._components or [components(rows, *ends)[0] for rows, ends in zip(code._rows, code._columns)]
        ranks = sum(code._rows) - sum(counts)
    return CodeParams(n=code.n, k=code.n - ranks)


def cnot_circuit(T) -> CnotCircuit:
    """CNOT realization of a basis change matrix.

    Gate ``l`` is ``(control i_l, target j_l)`` where the elementary factors
    of ``T`` multiply out to ``T`` in gate order: the gates are the index
    array of :func:`~hypermap_codes.gf2.decompose_elementary` itself.
    """
    T = gf2.as_matrix(T)
    return CnotCircuit(gf2.decompose_elementary(T), T.shape[0])


def _apply_gates(code: CssCode, gates: np.ndarray) -> CssCode:
    """Apply the gates, in order, to one working copy of the code, then validate once.

    Row ``l`` of ``gates`` is the 1-based ``(control, target)`` of gate ``l``.
    Every column is held as a Python int (packed as a row of the transpose),
    so a gate is one XOR of two ints in each sector; a leading unused entry
    lets the 1-based labels index the column lists directly.  A column-built
    code enters from its column arrays, column ``k`` as ``(1 << a) ^ (1 << b)``
    for its two rows ``a`` and ``b``, with neither dense matrix filled.  The
    labels are read as one flat list, taken in pairs.  The gates must
    already be checked by :class:`CnotCircuit`.
    """
    if code._columns is None:
        xcols, zcols = [0, *gf2._pack_rows(code.hx.T)], [0, *gf2._pack_rows(code.hz.T)]
    else:
        xcols, zcols = ([0, *((1 << a) ^ (1 << b) for a, b in zip(*ends.tolist()))] for ends in code._columns)
    labels = iter(gates.ravel().tolist())
    for c, t in zip(labels, labels):
        xcols[t] ^= xcols[c]
        zcols[c] ^= zcols[t]
    rows = code._rows or (code.hx.shape[0], code.hz.shape[0])
    return CssCode(gf2._unpack_rows(xcols[1:], rows[0]).T, gf2._unpack_rows(zcols[1:], rows[1]).T)


def apply_cnot(code: CssCode, gate) -> CssCode:
    """One CNOT ``(control, target)``: control into target on hx, target into control on hz.

    The gate is checked as a one-gate :class:`CnotCircuit` on ``code.n``
    qubits, then runs through the same in-place loop as :func:`transform`.
    """
    return _apply_gates(code, CnotCircuit([gate], code.n).gates)


def transform(code: CssCode, T) -> CssCode:
    """Apply the CNOT circuit of ``T`` to the code.

    The circuit is built and checked as by :func:`cnot_circuit`; the rows of
    its index array then act in order on one working copy of ``hx`` and
    ``hz``, and the result is validated once, as a single :class:`CssCode`.
    It equals rebuilding the code from the basis-changed boundary pair;
    both routes are exercised by the tests.
    """
    circuit = cnot_circuit(T)
    if circuit.n != code.n:
        raise ValueError(f"basis change acts on {circuit.n} qubits, code has {code.n}")
    return _apply_gates(code, circuit.gates)


def _same_row_space(A, B) -> bool:
    """No row of ``B`` lies outside the span of ``A``, and the ranks agree."""
    if np.array_equal(A, B):
        return True
    basis = gf2.row_basis(A)
    return not gf2.rows_outside(B, basis) and gf2.rank(B) == len(basis[0])


def stabilizer_equal(a: CssCode, b: CssCode) -> bool:
    """True iff both sectors span the same row spaces."""
    if a.n != b.n:
        raise ValueError(f"codes act on {a.n} and {b.n} qubits")
    return _same_row_space(a.hx, b.hx) and _same_row_space(a.hz, b.hz)


def code_from_boundary_change(H: Hypermap, S: tuple[int, ...], T) -> CssCode:
    """Noncanonical code via the boundary-pair route (independent of CNOTs)."""
    return apply_basis_change(boundary_pair(H, S), T)


# --- stabilizer block file format ---------------------------------------------


def format_stabilizer(code: CssCode) -> str:
    return "Hx\n" + gf2.format_matrix(code.hx) + "Hz\n" + gf2.format_matrix(code.hz)


def parse_stabilizer(text: str) -> CssCode:
    # The written layout "Hx\n<matrix>Hz\n<matrix>" is split at its one
    # "\nHz\n": with no other H in the text, the line loop below would find
    # the same two sections.
    split = text.find("\nHz\n")
    if text.startswith("Hx\n") and split >= 0 and text.count("H") == 2:
        return CssCode(gf2.parse_matrix(text[3 : split + 1]), gf2.parse_matrix(text[split + 4 :]))
    # Each section keeps its blank lines: they are the rows of a matrix with
    # no columns (see gf2.parse_matrix).
    blocks: dict[str, list[str]] = {}
    current: list[str] | None = None
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
    hx = gf2.parse_matrix("".join(blocks["Hx"]))
    hz = gf2.parse_matrix("".join(blocks["Hz"]))
    return CssCode(hx, hz)


def read_stabilizer(path) -> CssCode:
    return parse_stabilizer(read_text(path))


def write_stabilizer(path, code: CssCode) -> None:
    write_text(path, format_stabilizer(code))
