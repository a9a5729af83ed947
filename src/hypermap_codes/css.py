"""CSS stabilizer codes built from hypermap boundary pairs.

A :class:`CssCode` is the pair of generator matrices ``(hx, hz)`` with
``hx @ hz^t = 0``; rows are generators, columns are qubits.  The class lives
in :mod:`~hypermap_codes.chain`, whose :func:`boundary_pair` returns the
canonical code, and is re-exported here.  Dependent rows are kept, since
the row spaces are what define the code; :func:`reduced` drops them for
display.  The canonical code of a hypermap places one qubit on each
nonspecial dart; any invertible basis change of the underlying quotient
space is realized on the code by a CNOT circuit obtained from the
elementary-factor decomposition of the change matrix.  A
:class:`CnotCircuit` holds its gates as one ``(m, 2)`` array of 1-based
``(control, target)`` labels, from the decomposition to the gate loop of
:func:`transform`; :attr:`CnotCircuit.gates` builds :class:`CnotGate`
objects on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gf2
from .chain import CssCode, apply_basis_change, boundary_pair
from .hypermap import Hypermap, SpecialDartSet, choose_special_darts


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    d: int | None = None
    dx: int | None = None
    dz: int | None = None


@dataclass(frozen=True)
class CnotGate:
    """CNOT acting on 1-based qubit labels, ``control != target``."""

    control: int
    target: int

    def __post_init__(self):
        if self.control < 1 or self.target < 1:
            raise ValueError("qubit labels are 1-based")
        if self.control == self.target:
            raise ValueError("control and target must differ")


@dataclass(frozen=True)
class CnotCircuit:
    """A CNOT circuit on ``n`` qubits, held as one ``(m, 2)`` integer array.

    Row ``l`` of ``pairs`` is the 1-based ``(control, target)`` of gate
    ``l``.  All gates are checked at once, with the messages
    :class:`CnotGate` and the ``n`` and ``n^2`` bounds give for the first
    bad gate; :attr:`gates` builds the :class:`CnotGate` objects on demand.
    """

    pairs: np.ndarray
    n: int

    def __post_init__(self):
        pairs = np.array(self.pairs, dtype=np.intp).reshape(-1, 2)
        control, target = pairs[:, 0], pairs[:, 1]
        bad = np.flatnonzero((control < 1) | (target < 1) | (control == target))
        if bad.size:
            CnotGate(*pairs[bad[0]].tolist())  # raises the gate's own error
        bad = np.flatnonzero((control > self.n) | (target > self.n))
        if bad.size:
            raise ValueError(f"gate {CnotGate(*pairs[bad[0]].tolist())} exceeds {self.n} qubits")
        if len(pairs) > self.n * self.n:
            raise ValueError(f"{len(pairs)} gates exceed the n^2 bound")
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)

    @property
    def gates(self) -> tuple[CnotGate, ...]:
        return tuple(CnotGate(c, t) for c, t in self.pairs.tolist())

    def __len__(self) -> int:
        return len(self.pairs)


def build_canonical(H: Hypermap, S: SpecialDartSet | None = None) -> CssCode:
    """Canonical code of a hypermap: qubits on nonspecial darts.

    With ``S`` omitted the default special darts (smallest per hyperedge)
    are used.  ``hx`` is the vertex boundary matrix and ``hz`` rows are the
    face boundaries; the code length is ``|W| - |E|``.
    """
    if S is None:
        S = choose_special_darts(H)
    return boundary_pair(H, S)


def reduced(code: CssCode) -> CssCode:
    """Row-reduce both sectors and drop zero rows (display form)."""

    def reduce_one(M):
        R, pivots = gf2.row_echelon(M)
        return R[: len(pivots)]

    return CssCode(reduce_one(code.hx), reduce_one(code.hz))


def params(code: CssCode, with_distance: bool = False) -> CodeParams:
    """Code parameters; ``k = n - rank(hx) - rank(hz)``.

    With ``with_distance`` the brute-force oracle fills ``d``/``dx``/``dz``;
    they stay ``None`` for codes without logical operators (``k = 0``).
    """
    n = code.n
    k = n - gf2.rank(code.hx) - gf2.rank(code.hz)
    if not with_distance or k == 0:
        return CodeParams(n=n, k=k)
    from .distance import distance_split

    dx, dz = distance_split(code)
    return CodeParams(n=n, k=k, d=min(dx, dz), dx=dx, dz=dz)


def cnot_circuit(T) -> CnotCircuit:
    """CNOT realization of a basis change matrix.

    Gate ``l`` is ``(control i_l, target j_l)`` where the elementary factors
    of ``T`` multiply out to ``T`` in gate order.  The gates stay the index
    array of the elimination; no per-gate object is built.
    """
    T = gf2.as_matrix(T)
    return CnotCircuit(gf2._elementary_pairs(T), T.shape[0])


def _apply_gates(code: CssCode, pairs) -> CssCode:
    """Apply 1-based ``(control, target)`` pairs in order to one working copy, then validate once.

    Every column is held as a Python int (packed as a row of the transpose),
    so a gate is one XOR of two ints in each sector; a leading unused entry
    lets the 1-based labels index the column lists directly.  The pairs must
    already be checked against ``code.n``.
    """
    xcols, zcols = [0, *gf2._pack_rows(code.hx.T)], [0, *gf2._pack_rows(code.hz.T)]
    for c, t in pairs:
        xcols[t] ^= xcols[c]
        zcols[c] ^= zcols[t]
    hx = gf2._unpack_rows(xcols[1:], code.hx.shape[0]).T
    hz = gf2._unpack_rows(zcols[1:], code.hz.shape[0]).T
    return CssCode(hx, hz)


def apply_cnot(code: CssCode, gate: CnotGate) -> CssCode:
    """Column action of one CNOT: control into target on hx, target into control on hz.

    Runs the same in-place loop as :func:`transform` on a one-gate list.
    """
    if gate.control > code.n or gate.target > code.n:
        raise ValueError(f"gate {gate} exceeds {code.n} qubits")
    return _apply_gates(code, [(gate.control, gate.target)])


def transform(code: CssCode, T) -> CssCode:
    """Apply the CNOT circuit of ``T`` to the code.

    The circuit is built and checked as by :func:`cnot_circuit`; the rows of
    its index array then act in order on one working copy of ``hx`` and
    ``hz``, and the result is validated once, as a single :class:`CssCode`.
    No :class:`CnotGate` or :class:`~hypermap_codes.gf2.ElementaryFactor`
    is built.  It equals rebuilding the code from the basis-changed boundary
    pair; both routes are exercised by the tests.
    """
    circuit = cnot_circuit(T)
    if circuit.n != code.n:
        raise ValueError(f"basis change acts on {circuit.n} qubits, code has {code.n}")
    return _apply_gates(code, circuit.pairs.tolist())


def _same_row_space(A, B) -> bool:
    """Every row of ``B`` reduces to 0 against an echelon basis of ``A``, and the ranks agree."""
    if np.array_equal(A, B):
        return True
    basis, mask = gf2._forward(gf2._pack_rows(A))
    rows = gf2._pack_rows(B)
    if any(gf2._reduce(v, basis, mask) for v in rows):
        return False
    return len(gf2._forward(rows)[0]) == len(basis)


def stabilizer_equal(a: CssCode, b: CssCode) -> bool:
    """True iff both sectors span the same row spaces."""
    if a.n != b.n:
        raise ValueError(f"codes act on {a.n} and {b.n} qubits")
    return _same_row_space(a.hx, b.hx) and _same_row_space(a.hz, b.hz)


def code_from_boundary_change(H: Hypermap, S: SpecialDartSet, T) -> CssCode:
    """Noncanonical code via the boundary-pair route (independent of CNOTs)."""
    return apply_basis_change(boundary_pair(H, S), T)


# --- stabilizer block file format ---------------------------------------------


def format_stabilizer(code: CssCode) -> str:
    return "Hx\n" + gf2.format_matrix(code.hx) + "Hz\n" + gf2.format_matrix(code.hz)


def parse_stabilizer(text: str) -> CssCode:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    blocks: dict[str, list[str]] = {}
    current: list[str] | None = None
    for ln in lines:
        if ln in ("Hx", "Hz"):
            if ln in blocks:
                raise ValueError(f"duplicate {ln} section")
            current = blocks.setdefault(ln, [])
        elif current is None:
            raise ValueError(f"unexpected line {ln!r} before Hx/Hz section")
        else:
            current.append(ln)
    for name in ("Hx", "Hz"):
        if name not in blocks:
            raise ValueError(f"missing {name} section")
    hx = gf2.parse_matrix("\n".join(blocks["Hx"]))
    hz = gf2.parse_matrix("\n".join(blocks["Hz"]))
    return CssCode(hx, hz)


def read_stabilizer(path) -> CssCode:
    return parse_stabilizer(Path(path).read_text())


def write_stabilizer(path, code: CssCode) -> None:
    Path(path).write_text(format_stabilizer(code))
