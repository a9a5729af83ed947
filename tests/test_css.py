import random

import numpy as np
import pytest

from hypermap_codes import (
    CnotCircuit,
    CssCode,
    Hypermap,
    apply_cnot,
    build_canonical,
    choose_special_darts,
    cnot_circuit,
    code_from_boundary_change,
    params,
    reduced,
    stabilizer_equal,
    transform,
)
from hypermap_codes import gf2
from hypermap_codes.css import format_stabilizer, parse_stabilizer
from util import (
    random_cycle_hypermap,
    random_hypermap,
    random_invertible,
    random_sparse_invertible,
    random_special_darts,
    torus_hypermap,
)

TORUS_HZ = np.array(
    [
        [1, 0, 0, 1, 1, 1],
        [0, 1, 0, 0, 0, 1],
        [1, 1, 1, 1, 0, 0],
        [0, 0, 1, 0, 1, 0],
    ],
    dtype=np.uint8,
)

NONCANONICAL_HZ = np.array(
    [
        [1, 0, 0, 1, 1, 1],
        [1, 1, 0, 0, 0, 1],
        [0, 1, 1, 1, 0, 0],
        [0, 0, 1, 0, 1, 0],
    ],
    dtype=np.uint8,
)


def torus_code():
    H, S = torus_hypermap()
    return build_canonical(H, S)


def basis_change_matrix():
    return gf2.elementary_matrix(1, 2, 6)


def test_build_canonical_golden():
    code = torus_code()
    assert np.array_equal(code.hx, np.ones((2, 6), dtype=np.uint8))
    assert np.array_equal(code.hz, TORUS_HZ)


def test_build_canonical_params():
    p = params(torus_code())
    assert (p.n, p.k) == (6, 2)


def test_build_canonical_default_specials():
    H, _ = torus_hypermap()
    code = build_canonical(H)
    assert code.n == 6
    assert params(code).k == 2


def test_degenerate_two_dart_code():
    H = Hypermap.from_cycles(2, [], [[1, 2]])
    code = build_canonical(H)
    assert code.n == 1
    assert code.hx.tolist() == [[1], [1]]
    assert code.hz.tolist() == [[0]]
    assert params(code).k == 0


def test_css_code_rejects_nonorthogonal():
    with pytest.raises(ValueError):
        CssCode(np.array([[1, 0]], dtype=np.uint8), np.array([[1, 0]], dtype=np.uint8))


def test_css_code_rejects_column_mismatch():
    with pytest.raises(ValueError):
        CssCode(np.ones((1, 2), dtype=np.uint8), np.zeros((1, 3), dtype=np.uint8))


def test_reduced_drops_dependent_rows():
    code = reduced(torus_code())
    assert np.array_equal(code.hx, np.ones((1, 6), dtype=np.uint8))
    assert code.hz.shape == (3, 6)
    assert stabilizer_equal(code, torus_code())


def test_cnot_circuit_identity_empty():
    assert len(cnot_circuit(gf2.identity(4))) == 0
    assert CnotCircuit([], 4).gates.shape == (0, 2)


def test_cnot_circuit_single_gate():
    circuit = cnot_circuit(basis_change_matrix())
    assert circuit.gates.tolist() == [[1, 2]]


def test_cnot_circuit_bound():
    rng = random.Random(9)
    for _ in range(20):
        circuit = cnot_circuit(random_invertible(rng, 6))
        assert len(circuit) <= 36


@pytest.mark.parametrize(
    "pairs, n, message",
    [
        pytest.param([(1, 2), (0, 2)], 3, "qubit labels are 1-based", id="label-0"),
        pytest.param([(1, 2), (2, 4), (5, 1)], 3, "gate (2, 4) exceeds 3 qubits", id="label-above-n"),
        pytest.param([(3, 3), (0, 1)], 3, "control and target must differ", id="control-is-target"),
        pytest.param([(1, 2)] * 5, 2, "5 gates exceed the n^2 bound", id="more-than-n-squared"),
        pytest.param([(1.9, 2.2)], 3, "gate labels must be integers, got float64", id="float-labels"),
    ],
)
def test_cnot_circuit_rejects_bad_gates(pairs, n, message):
    # Each check reports the first bad gate.
    with pytest.raises(ValueError) as err:
        CnotCircuit(np.array(pairs), n)
    assert str(err.value) == message


def test_cnot_circuit_gates_equal_decomposition():
    # Factor f_ij is the CNOT with control i and target j, so the gate array
    # is the decomposition itself.
    rng = random.Random(11)
    for T in (random_invertible(rng, 8), random_sparse_invertible(rng, 8, 16), gf2.identity(3)):
        circuit = cnot_circuit(T)
        assert circuit.gates.shape == (len(circuit), 2)
        assert np.array_equal(circuit.gates, gf2.decompose_elementary(T))
        assert not circuit.gates.flags.writeable


def test_apply_cnot_matches_noncanonical_display():
    code = torus_code()
    out = apply_cnot(code, (1, 2))
    assert out.hx.tolist() == [[1, 0, 1, 1, 1, 1]] * 2
    assert np.array_equal(out.hz, NONCANONICAL_HZ)


def test_apply_cnot_is_involution():
    code = torus_code()
    gate = (3, 5)
    back = apply_cnot(apply_cnot(code, gate), gate)
    assert np.array_equal(back.hx, code.hx)
    assert np.array_equal(back.hz, code.hz)


def test_apply_cnot_preserves_orthogonality():
    rng = random.Random(17)
    for _ in range(20):
        H = random_hypermap(rng, 3, 14)
        code = build_canonical(H)
        if code.n < 2:
            continue
        for _ in range(5):
            a, b = rng.sample(range(1, code.n + 1), 2)
            code = apply_cnot(code, (a, b))
            assert not ((code.hx @ code.hz.T) % 2).any()


def test_transform_identity():
    code = torus_code()
    out = transform(code, gf2.identity(6))
    assert np.array_equal(out.hx, code.hx)
    assert np.array_equal(out.hz, code.hz)


def test_transform_golden():
    out = transform(torus_code(), basis_change_matrix())
    assert out.hx.tolist() == [[1, 0, 1, 1, 1, 1]] * 2
    assert np.array_equal(out.hz, NONCANONICAL_HZ)


def test_transform_round_trip():
    rng = random.Random(19)
    code = torus_code()
    for _ in range(10):
        T = random_invertible(rng, 6)
        back = transform(transform(code, T), gf2.invert(T))
        assert np.array_equal(back.hx, code.hx)
        assert np.array_equal(back.hz, code.hz)


def test_transform_equals_boundary_route():
    # Gate-by-gate column action and the boundary-pair basis change are two
    # independent routes to the same matrices.
    rng = random.Random(21)
    H, S = torus_hypermap()
    code = build_canonical(H, S)
    for _ in range(15):
        T = random_invertible(rng, 6)
        via_gates = transform(code, T)
        via_boundary = code_from_boundary_change(H, S, T)
        assert np.array_equal(via_gates.hx, via_boundary.hx)
        assert np.array_equal(via_gates.hz, via_boundary.hz)


@pytest.mark.parametrize(
    "length, hyperedges",
    [pytest.param(3, (10, 30), id="3-cycles"), pytest.param(4, (7, 20), id="4-cycles")],
)
def test_transform_matches_gate_fold_and_boundary_route(length, hyperedges):
    # The in-place loop against one apply_cnot per gate, and against the
    # boundary-pair route, on 3- and 4-cycle hypermaps with n = 20-60.
    rng = random.Random(30 + length)
    for trial in range(6):
        H = random_cycle_hypermap(rng, rng.randint(*hyperedges), length)
        S = random_special_darts(rng, H)
        code = build_canonical(H, S)
        assert 20 <= code.n <= 60
        n = code.n
        T = random_invertible(rng, n) if trial % 2 else random_sparse_invertible(rng, n, 3 * n)
        circuit = cnot_circuit(T)
        folded = code
        for gate in circuit.gates:
            folded = apply_cnot(folded, gate)
        via_loop = transform(code, T)
        via_boundary = code_from_boundary_change(H, S, T)
        for other in (folded, via_boundary):
            assert np.array_equal(via_loop.hx, other.hx)
            assert np.array_equal(via_loop.hz, other.hz)


def test_transform_validates_one_code(monkeypatch):
    code = torus_code()
    T = random_invertible(random.Random(23), 6)
    assert len(cnot_circuit(T)) > 1
    built = []
    original = CssCode.__post_init__

    def counting_post_init(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(CssCode, "__post_init__", counting_post_init)
    transform(code, T)
    assert len(built) == 1


def test_apply_cnot_rejects_out_of_range_gate():
    with pytest.raises(ValueError, match="exceeds 6 qubits"):
        apply_cnot(torus_code(), (1, 7))


@pytest.mark.parametrize(
    "gate, message",
    [
        pytest.param((0, 2), "qubit labels are 1-based", id="label-0"),
        pytest.param((4, 4), "control and target must differ", id="control-is-target"),
        pytest.param((2, 7), "gate (2, 7) exceeds 6 qubits", id="target-above-n"),
    ],
)
def test_apply_cnot_rejects_bad_gate_with_circuit_messages(gate, message):
    # apply_cnot has no check of its own: the one-gate CnotCircuit raises.
    with pytest.raises(ValueError) as err:
        apply_cnot(torus_code(), gate)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        CnotCircuit([gate], 6)
    assert str(err.value) == message


def test_transform_preserves_k():
    rng = random.Random(27)
    for _ in range(15):
        H = random_hypermap(rng, 3, 16)
        code = build_canonical(H)
        if code.n == 0:
            continue
        T = random_invertible(rng, code.n)
        assert params(transform(code, T)).k == params(code).k


def test_transform_rejects_singular():
    with pytest.raises(gf2.SingularMatrixError):
        transform(torus_code(), np.zeros((6, 6), dtype=np.uint8))


def test_stabilizer_equal_duplicated_rows():
    code = torus_code()
    doubled = CssCode(np.vstack([code.hx, code.hx]), np.vstack([code.hz, code.hz[:1]]))
    assert stabilizer_equal(code, doubled)


def test_stabilizer_equal_canonical_vs_noncanonical():
    code = torus_code()
    assert not stabilizer_equal(code, transform(code, basis_change_matrix()))


def test_stabilizer_equal_size_mismatch():
    small = CssCode(np.ones((1, 2), dtype=np.uint8), np.zeros((1, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        stabilizer_equal(torus_code(), small)


def test_k_equals_twice_genus_randomized():
    rng = random.Random(29)
    for _ in range(30):
        H = random_hypermap(rng, 2, 18)
        code = build_canonical(H, choose_special_darts(H))
        assert params(code).k == 2 * H.genus()


def test_stabilizer_file_round_trip():
    code = torus_code()
    text = format_stabilizer(code)
    assert text.startswith("Hx\n2 6\n")
    parsed = parse_stabilizer(text)
    assert np.array_equal(parsed.hx, code.hx)
    assert np.array_equal(parsed.hz, code.hz)


def test_zero_qubit_stabilizer_file_round_trip():
    # Each row of a matrix with no columns is an empty line, which the parser counts.
    code = CssCode(np.zeros((3, 0), dtype=np.uint8), np.zeros((1, 0), dtype=np.uint8))
    text = format_stabilizer(code)
    assert text == "Hx\n3 0\n\n\n\nHz\n1 0\n\n"
    parsed = parse_stabilizer(text)
    assert parsed.hx.shape == (3, 0) and parsed.hz.shape == (1, 0)


def test_parse_stabilizer_requires_both_sections():
    with pytest.raises(ValueError):
        parse_stabilizer("Hx\n1 1\n1\n")


def test_circuits_compare_by_identity():
    T = random_invertible(random.Random(5), 6)
    a, b = cnot_circuit(T), cnot_circuit(T)
    assert np.array_equal(a.gates, b.gates)
    assert a == a and a != b and len({a, b}) == 2 and hash(a) == hash(a)
