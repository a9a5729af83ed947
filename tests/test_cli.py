import json
import random
import sys
import tracemalloc

import numpy as np
import pytest

from hypermap_codes import (
    build_canonical,
    chain,
    cli,
    css,
    gf2,
    graph_to_hypermap,
    load_hypermap,
    save_hypermap,
    toric_rotation_graph,
    transform,
)
from hypermap_codes.cli import main
from util import FIXTURES, GOLDEN, random_cycle_hypermap, random_invertible, random_sparse_invertible

TORUS = str(FIXTURES / "torus_hypermap.json")
TORUS_T = str(FIXTURES / "torus_basis_change.txt")
DENSE24_T = str(FIXTURES / "dense24_basis_change.txt")
TORIC_2X2 = str(FIXTURES / "toric_2x2_rotation.json")


def test_info_torus(capsys):
    assert main(["info", TORUS]) == 0
    out = capsys.readouterr().out
    assert "V=2 E=2 F=4 W=8 genus=1" in out
    assert "special=3,7" in out


def test_info_one_dart(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text('{"darts": 1, "sigma": [], "tau": []}')
    assert main(["info", str(path)]) == 0
    assert "genus=0" in capsys.readouterr().out


def test_info_disconnected_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"darts": 2, "sigma": [], "tau": []}')
    assert main(["info", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def info_error_without_allocating(tmp_path, capsys, data) -> str:
    """Stderr of ``info`` on ``data``, which must exit 2 with a tracemalloc peak under 1 MiB.

    The file's path, which leads the error line, is cut from the result.
    """
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    tracemalloc.start()
    try:
        assert main(["info", str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    return captured.err.replace(f"{path}: ", "", 1)


def test_info_huge_dart_count_exits_2_without_allocating(tmp_path, capsys):
    err = info_error_without_allocating(tmp_path, capsys, {"darts": 10**9, "sigma": [[1, 2]], "tau": []})
    assert err == "error: dart 1000000000 is fixed by sigma and tau, so it is a component of its own\n"


@pytest.mark.parametrize("darts", [10**19, 10**6])
def test_info_unlisted_darts_exit_2_without_allocating(tmp_path, capsys, darts):
    # Dart n is named, but the other darts lie on no cycle.
    err = info_error_without_allocating(tmp_path, capsys, {"darts": darts, "sigma": [[1, darts]], "tau": []})
    assert err == (
        f"error: the cycles list 2 labels for {darts} darts, so some dart is"
        " fixed by sigma and tau and is a component of its own\n"
    )


@pytest.mark.parametrize(
    "data, message",
    [
        pytest.param({"darts": 2, "sigma": [[1, 10**30]], "tau": []}, f"cycle entry {10**30} out of range 1..2", id="huge"),
        pytest.param({"darts": 2, "sigma": [[1, 2, -5]], "tau": []}, "cycle entry -5 out of range 1..2", id="negative"),
        pytest.param({"darts": 2, "sigma": [[1, 2]], "tau": [[0, 1]]}, "cycle entry 0 out of range 1..2", id="zero"),
        pytest.param({"darts": 2, "sigma": [[1, 2, 2**63]], "tau": []}, f"cycle entry {2**63} out of range 1..2", id="2**63"),
        pytest.param({"darts": 2, "sigma": [[2**64, 1, 2]], "tau": []}, f"cycle entry {2**64} out of range 1..2", id="2**64"),
        pytest.param(
            {"darts": 2, "sigma": [[1, 2]], "tau": [], "special": [10**30]},
            f"special dart {10**30} out of range 1..2",
            id="special-huge",
        ),
        pytest.param({"darts": 2, "sigma": [[1, True]], "tau": []}, "JSON 'sigma' holds True, expected an integer", id="bool"),
        pytest.param(
            {"darts": 4, "sigma": [[1, 2, 3, 4]], "tau": [[3, 4], [4, 1], [1, 3]]},
            "label 4 appears in two cycles",
            id="repeated",
        ),
        pytest.param(
            {"darts": 4, "sigma": [[1, 2, 3, 4]], "tau": [[1, 2], [3, 4]], "special": [2, 1, 10**30]},
            "darts 2 and 1 lie on the same hyperedge",
            id="special-repeated-before-huge",
        ),
    ],
)
@pytest.mark.parametrize("command", ["info", "verify"])
def test_bad_labels_exit_2_with_one_line(tmp_path, capsys, command, data, message):
    # Labels are range-checked as Python ints before any array is built, so
    # a label past int64 is a one-line error, not an OverflowError.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


# One digit past what int() converts; json.dumps cannot write such a number.
LONG = "9" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "command, fixture, old, new",
    [
        pytest.param("info", TORUS, '"darts": 8', f'"darts": {LONG}', id="darts"),
        pytest.param("verify", TORUS, '"special": [3,', f'"special": [{LONG},', id="special"),
        pytest.param("from-graph", TORIC_2X2, '"vertices": 4', f'"vertices": {LONG}', id="vertices"),
    ],
)
def test_json_integer_past_the_digit_limit_exits_2_with_one_line(tmp_path, capsys, command, fixture, old, new):
    # json.loads refuses it with advice to call sys.set_int_max_str_digits();
    # the line says what is wrong and does not echo the digits.
    text = open(fixture).read().replace(" ", "").replace(old.replace(" ", ""), new)
    assert LONG in text
    path = tmp_path / "long.json"
    path.write_text(text)
    argv = [command, str(path)] + (["--out", str(tmp_path / "out.json")] if command == "from-graph" else [])
    assert main(argv) == 2
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr() == ("", f"error: {path}: JSON holds an integer of more than {limit} digits\n")


def test_special_flag_label_past_the_digit_limit_exits_2_with_one_line(capsys):
    assert main(["build", TORUS, "--special", f"{LONG},7"]) == 2
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr() == ("", f"error: dart list holds a label of more than {limit} digits\n")
    # A label of as many digits as int() converts passes the bound.
    assert main(["build", TORUS, "--special", "0" * (limit - 1) + "3,7"]) == 0
    plain = capsys.readouterr()
    assert main(["build", TORUS, "--special", "3,7"]) == 0
    assert capsys.readouterr() == plain


def test_info_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["info", str(path)]) == 2


@pytest.mark.parametrize("command", ["info", "verify", "from-graph"])
def test_deeply_nested_json_exits_2_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    argv = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "from-graph" else [])
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {path}: JSON is nested too deeply\n")


TORUS_SIGMA = [[1, 8, 3, 6], [2, 5, 4, 7]]
TORUS_TAU = [[1, 2, 3, 4], [5, 6, 7, 8]]


@pytest.mark.parametrize(
    "command, data",
    [
        pytest.param("info", {"darts": 8, "sigma": 5, "tau": TORUS_TAU}, id="sigma-int"),
        pytest.param("info", {"darts": 8, "sigma": TORUS_SIGMA, "tau": TORUS_TAU, "special": 5}, id="special-int"),
        pytest.param("info", {"darts": 2, "sigma": [[1, 2]], "tau": [], "special": [1.7, 2]}, id="special-float"),
        pytest.param("info", {"darts": True, "sigma": [], "tau": []}, id="darts-bool"),
        pytest.param("info", {"darts": "3", "sigma": [[1, 2, 3]], "tau": []}, id="darts-str"),
        pytest.param("info", {"darts": 2, "sigma": [], "tau": [1, 2]}, id="tau-flat"),
        pytest.param("from-graph", {"vertices": 1, "edges": 5, "rotation": [[]]}, id="graph-edges-int"),
        pytest.param("from-graph", {"vertices": True, "edges": [], "rotation": [[]]}, id="graph-vertices-bool"),
        pytest.param("from-graph", {"vertices": 1, "edges": [[1, 1.0]], "rotation": [[1, 2]]}, id="graph-end-float"),
        pytest.param("from-graph", {"vertices": 1, "edges": [[1, 1, 1]], "rotation": [[1, 2]]}, id="graph-edge-triple"),
        pytest.param("from-graph", {"vertices": 1, "edges": [[1, 1]], "rotation": [1, 2]}, id="graph-rotation-flat"),
        pytest.param("from-graph", {"vertices": 1, "edges": [[1, 1]], "rotation": [["1", 2]]}, id="graph-rotation-str"),
        pytest.param("decompose", "+2 0_2\n1 0\n0 1\n", id="matrix-header-sign-underscore"),
        pytest.param("decompose", "\u0661 1\n1\n", id="matrix-header-arabic-indic"),
        pytest.param("decompose", "2 2\n1 0\n0 \u0661\n", id="matrix-entry-arabic-indic"),
        pytest.param("build", "+6 6\n" + "1 0 0 0 0 0\n" * 6, id="basis-change-header-sign"),
        pytest.param("build", "6 \u0666\n" + "1 0 0 0 0 0\n" * 6, id="basis-change-header-arabic-indic"),
        pytest.param("special", "\u0661", id="special-arabic-indic"),
        pytest.param("special", "1_2", id="special-underscore"),
        pytest.param("special", "+7", id="special-plus-sign"),
        pytest.param("special", "3,7_0", id="special-underscore-in-second"),
    ],
)
def test_info_non_integer_labels_exit_2(tmp_path, capsys, command, data):
    # JSON inputs (dicts), matrix text and --special labels (strings) alike
    # exit 2 with one line.
    path = tmp_path / "bad.txt"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    out = str(tmp_path / "out")
    argv = {
        "info": ["info", str(path)],
        "from-graph": ["from-graph", str(path), "--out", out],
        "decompose": ["decompose", str(path)],
        "build": ["build", TORUS, "--basis-change", str(path), "--out", out],
        "special": ["build", TORUS, "--special", data, "--out", out],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_consecutive_calls_are_independent(capsys):
    # The parser is built once per process; one call's flags must not leak into the next.
    assert main(["build", TORUS, "--special", "3,7", "--distance"]) == 0
    assert capsys.readouterr().out.startswith("n=6 k=2 d=2 dx=2 dz=2\n")
    assert main(["info", TORUS]) == 0
    assert capsys.readouterr().out == "V=2 E=2 F=4 W=8 genus=1\nspecial=3,7\n"
    assert main(["build", TORUS]) == 0
    assert capsys.readouterr().out.startswith("n=6 k=2\n")


def test_build_golden_stabilizer(tmp_path, capsys):
    out = tmp_path / "stab.txt"
    assert main(["build", TORUS, "--special", "3,7", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "n=6 k=2" in stdout
    text = out.read_text()
    assert "Hx\n2 6\n1 1 1 1 1 1\n1 1 1 1 1 1\n" in text
    assert "Hz\n4 6\n" in text


def test_build_with_basis_change_prints_noncanonical(tmp_path, capsys):
    out = tmp_path / "stab.txt"
    code = main(
        ["build", TORUS, "--special", "3,7", "--basis-change", TORUS_T, "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert "1 0 1 1 1 1\n1 0 1 1 1 1\n" in text


def test_build_distance_flag(capsys):
    assert main(["build", TORUS, "--distance"]) == 0
    assert "n=6 k=2 d=2 dx=2 dz=2" in capsys.readouterr().out


def test_build_distance_flag_without_logicals(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text('{"darts": 1, "sigma": [], "tau": []}')
    assert main(["build", str(path), "--distance"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "n=0 k=0 d=none"


def test_build_same_hyperedge_specials_exit_2(capsys):
    assert main(["build", TORUS, "--special", "1,2"]) == 2
    assert "same hyperedge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, special",
    [
        pytest.param("build", "3", id="build-flag"),
        pytest.param("verify", "7", id="verify-flag"),
        pytest.param("to-surface", "3", id="to-surface-flag"),
        pytest.param("info", [1], id="info-json"),
        pytest.param("verify", [7], id="verify-json"),
        pytest.param("build", [], id="build-json-empty"),
    ],
)
def test_partial_special_list_exits_2(tmp_path, capsys, command, special):
    # A listed special set must name a dart on every hyperedge: a missing
    # one is not filled in with the default.
    path, graph = TORUS, tmp_path / "graph.json"
    argv = [command, path] + (["--out-graph", str(graph)] if command == "to-surface" else [])
    if isinstance(special, list):
        data = json.loads((FIXTURES / "torus_hypermap.json").read_text())
        data["special"] = special
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(data))
        argv[1] = str(path)
    else:
        argv += ["--special", special]
    assert main(argv) == 2
    # A bad list in the file is an error of the file, which the line names.
    named = f"{path}: " if isinstance(special, list) else ""
    assert capsys.readouterr() == ("", f"error: {named}{len(special)} special darts for 2 hyperedges\n")
    assert not graph.exists()


def test_build_singular_basis_change_exit_2(tmp_path, capsys):
    bad = tmp_path / "T.txt"
    T = gf2.identity(6)
    T[:2, :2] = 1  # rows 1 and 2 are equal
    gf2.write_matrix(bad, T)
    assert main(["build", TORUS, "--basis-change", str(bad)]) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: matrix is singular at row 2\n")


def test_build_wrong_size_basis_change_names_the_file(tmp_path, capsys):
    bad = tmp_path / "T.txt"
    gf2.write_matrix(bad, gf2.identity(2))
    out = tmp_path / "out.txt"
    assert main(["build", TORUS, "--basis-change", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: basis change acts on 2 qubits, code has 6\n")
    assert not out.exists()


def test_build_deterministic_output(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        assert main(["build", TORUS, "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_to_surface_writes_graph(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    dot = tmp_path / "graph.dot"
    inter = tmp_path / "intermediate.dot"
    rc = main(
        [
            "to-surface",
            TORUS,
            "--out-graph",
            str(graph),
            "--dot",
            str(dot),
            "--intermediate-dot",
            str(inter),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "vertices=2 edges=6 faces=4" in out
    data = json.loads(graph.read_text())
    assert data["vertices"] == 2
    assert sorted(label for _, _, label in data["edges"]) == [1, 2, 4, 5, 6, 8]
    assert "label=" in dot.read_text()
    assert inter.read_text().count(" -- ") == 8


def test_to_surface_defaults_reported(tmp_path, capsys):
    # A file without a stored special set falls back to the defaults.
    stripped = tmp_path / "torus.json"
    data = json.loads((FIXTURES / "torus_hypermap.json").read_text())
    del data["special"]
    stripped.write_text(json.dumps(data))
    graph = tmp_path / "graph.json"
    assert main(["to-surface", str(stripped), "--out-graph", str(graph)]) == 0
    assert "special=1,5" in capsys.readouterr().out


def test_from_graph_round_trip(tmp_path, capsys):
    hmap = tmp_path / "hypermap.json"
    assert main(["from-graph", TORIC_2X2, "--out", str(hmap)]) == 0
    out = capsys.readouterr().out
    assert "V=4 E=8 F=4 W=16 genus=1" in out
    assert main(["verify", str(hmap)]) == 0


@pytest.mark.parametrize(
    "data, message",
    [
        pytest.param({"vertices": 0, "edges": [], "rotation": []}, "graph needs at least one vertex", id="no-vertex"),
        pytest.param(
            {"vertices": 2, "edges": [[1, 1]], "rotation": [[1, 2]]}, "1 rotation cycles for 2 vertices", id="cycles"
        ),
        pytest.param(
            {"vertices": 1, "edges": [[1, 3]], "rotation": [[1, 2]]}, "edge (1,3) endpoint out of range", id="endpoint"
        ),
    ],
)
def test_from_graph_bad_graph_exits_2_with_one_line(tmp_path, capsys, data, message):
    path, out = tmp_path / "graph.json", tmp_path / "out.json"
    path.write_text(json.dumps(data))
    assert main(["from-graph", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    assert not out.exists()


def test_verify_torus(capsys):
    assert main(["verify", TORUS]) == 0
    assert "equal=true" in capsys.readouterr().out


@pytest.mark.parametrize(
    "message, line",
    [
        pytest.param(
            "Unable to allocate 8.00 GiB for an array with shape (65536, 131072) and data type uint8",
            "error: Unable to allocate 8.00 GiB for an array with shape (65536, 131072) and data type uint8",
            id="numpy-message",
        ),
        pytest.param("", "error: out of memory", id="empty-message"),
    ],
)
def test_out_of_memory_is_one_line_and_exit_2(monkeypatch, capsys, message, line):
    # build fills the dense hx on its first read; that allocation fails here.
    def fail(rows, a, b):
        raise MemoryError(message) if message else MemoryError()

    monkeypatch.setattr(chain, "_toggle_columns", fail)
    assert main(["build", TORUS]) == 2
    assert capsys.readouterr() == ("", line + "\n")


def fill_fails(rows, a, b):
    raise MemoryError()


def test_distance_guard_acts_before_any_matrix(tmp_path, monkeypatch, capsys):
    # k comes from the components and the guard reads n, so toric 8x8
    # (n = 128) is refused without filling hx or hz.
    path = tmp_path / "toric8.json"
    save_hypermap(path, *graph_to_hypermap(toric_rotation_graph(8, 8)))
    monkeypatch.setattr(chain, "_toggle_columns", fill_fails)
    assert main(["build", str(path), "--distance"]) == 2
    assert capsys.readouterr() == ("", "error: 128 qubits exceed the n <= 24 brute-force guard\n")


TORUS_NONCANONICAL = (
    "Hx\n2 6\n1 0 1 1 1 1\n1 0 1 1 1 1\n"
    "Hz\n4 6\n1 0 0 1 1 1\n1 1 0 0 0 1\n0 1 1 1 0 0\n0 0 1 0 1 0\n"
)


def test_build_basis_change_never_fills_the_canonical_code(tmp_path, monkeypatch, capsys):
    # The gate loop starts from the canonical code's column arrays.
    out = tmp_path / "non.txt"
    monkeypatch.setattr(chain, "_toggle_columns", fill_fails)
    assert main(["build", TORUS, "--basis-change", TORUS_T, "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"n=6 k=2\nwrote={out}\n", "")
    assert out.read_text() == TORUS_NONCANONICAL


@pytest.mark.parametrize("length", [3, 4])
def test_build_prints_the_k_of_the_code_it_writes(tmp_path, capsys, length):
    # k is taken from the canonical code before the basis change and --reduce;
    # it must be the rank count of the block read back from the file.
    rng = random.Random(40 + length)
    hpath, tpath, out = tmp_path / "h.json", tmp_path / "T.txt", tmp_path / "out.txt"
    for trial in range(8):
        H = random_cycle_hypermap(rng, rng.randint(4, 16), length)
        save_hypermap(hpath, H)
        n = build_canonical(H).n
        gf2.write_matrix(tpath, random_invertible(rng, n) if trial % 2 else random_sparse_invertible(rng, n, 3 * n))
        argv = ["build", str(hpath), "--basis-change", str(tpath), "--out", str(out)]
        assert main(argv + ["--reduce"] * (trial // 2 % 2)) == 0
        k = int(capsys.readouterr().out.split()[1].removeprefix("k="))
        code = css.read_stabilizer(out)
        assert k == code.n - gf2.rank(code.hx) - gf2.rank(code.hz)


F = "f.json"
ARGV_SHAPES = [
    [],
    ["-h"],
    ["nope"],
    ["verify"],
    ["verify", F, "--bogus"],
    ["build", F, "--out"],
    ["build", "-h"],
    ["distance", "a", "b"],
    ["build", F, "--basis", "T.txt"],
    ["build", F, "--out=o", "--reduce"],
    ["verify", "--", F],
    ["--", "verify", F],
    ["build", F, "--he"],
]


@pytest.mark.parametrize("argv", ARGV_SHAPES, ids=lambda argv: " ".join(argv) or "empty")
def test_argv_dispatch_matches_full_parser(capsys, argv):
    # main parses argv with the named subcommand's parser; every outcome must
    # be the full parser's: exit code, both streams and the namespace.
    def outcome(parse):
        try:
            result = vars(parse(argv))
            result.pop("command", None)
        except SystemExit as exc:
            result = exc.code
        return result, capsys.readouterr()

    full = outcome(cli.build_parser().parse_args)
    assert outcome(main if isinstance(full[0], int) else cli._parse_args) == full


def test_decompose_identity(tmp_path, capsys):
    path = tmp_path / "T.txt"
    gf2.write_matrix(path, gf2.identity(4))
    assert main(["decompose", str(path)]) == 0
    assert "gates=0 bound=16" in capsys.readouterr().out


def test_decompose_single_gate(capsys):
    assert main(["decompose", TORUS_T]) == 0
    out = capsys.readouterr().out
    assert "CNOT 1 2" in out
    assert "gates=1 bound=36" in out


def test_decompose_singular_exit_2(tmp_path, capsys):
    path = tmp_path / "T.txt"
    gf2.write_matrix(path, np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=np.uint8))
    assert main(["decompose", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: matrix is singular at row 2\n")


@pytest.mark.parametrize(
    "argv, golden",
    [
        pytest.param(["decompose", DENSE24_T], "dense24_decompose.txt", id="decompose"),
        pytest.param(
            ["build", str(GOLDEN / "cycles24.json"), "--basis-change", DENSE24_T],
            "cycles24_basis_change.txt",
            id="build-basis-change",
        ),
    ],
)
def test_cnot_synthesis_matches_golden(capsys, argv, golden):
    # A dense 24x24 T with 13 zeros on its diagonal (290 gates) and a random
    # 36-dart hypermap of 3-cycles (n = 24, k = 8).  The goldens were written
    # before synthesis held the whole matrix as one int, so a change in gate
    # order or in output bytes fails here.
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("ascii") == (GOLDEN / golden).read_bytes()


def test_decompose_non_square_names_the_file(tmp_path, capsys):
    path = tmp_path / "T.txt"
    gf2.write_matrix(path, np.zeros((2, 3), dtype=np.uint8))
    assert main(["decompose", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: matrix is 2x3, not square\n")


def test_distance_command(tmp_path, capsys):
    stab = tmp_path / "stab.txt"
    assert main(["build", TORUS, "--out", str(stab)]) == 0
    capsys.readouterr()
    assert main(["distance", str(stab)]) == 0
    assert "d=2 dx=2 dz=2" in capsys.readouterr().out


def test_distance_noncanonical(tmp_path, capsys):
    stab = tmp_path / "stab.txt"
    assert main(["build", TORUS, "--basis-change", TORUS_T, "--out", str(stab)]) == 0
    capsys.readouterr()
    assert main(["distance", str(stab)]) == 0
    assert "d=1 dx=2 dz=1" in capsys.readouterr().out


def test_distance_guard_exit_2(tmp_path, capsys):
    stab = tmp_path / "big.txt"
    hx = np.zeros((1, 30), dtype=np.uint8)
    stab.write_text("Hx\n" + gf2.format_matrix(hx) + "Hz\n" + gf2.format_matrix(hx))
    assert main(["distance", str(stab)]) == 2
    assert "guard" in capsys.readouterr().err


def test_zero_qubit_stabilizer_file_round_trips(tmp_path, capsys):
    one_dart, stab = tmp_path / "one.json", tmp_path / "stab.txt"
    one_dart.write_text(json.dumps({"darts": 1, "sigma": [], "tau": []}))
    assert main(["build", str(one_dart), "--out", str(stab)]) == 0
    assert stab.read_text() == "Hx\n1 0\n\nHz\n1 0\n\n"
    capsys.readouterr()
    assert main(["compare", str(stab), str(stab)]) == 0
    assert capsys.readouterr() == ("equal=true\n", "")
    assert main(["distance", str(stab)]) == 2
    assert capsys.readouterr() == ("", "error: code has no logical operators (k = 0)\n")


# The canonical torus code (special darts 3, 7) against its basis change.
COMPARE_LINES = [
    "equal=false",
    "diff Hx hypermap-only-row: 1 1 1 1 1 1",
    "diff Hx hypermap-only-row: 1 1 1 1 1 1",
    "diff Hx surface-only-row: 1 0 1 1 1 1",
    "diff Hx surface-only-row: 1 0 1 1 1 1",
    "diff Hz hypermap-only-row: 0 1 0 0 0 1",
    "diff Hz hypermap-only-row: 1 1 1 1 0 0",
    "diff Hz surface-only-row: 1 1 0 0 0 1",
    "diff Hz surface-only-row: 0 1 1 1 0 0",
]


def test_compare_equal_and_unequal(tmp_path, capsys):
    canonical = tmp_path / "canonical.txt"
    noncanonical = tmp_path / "noncanonical.txt"
    reduced_file = tmp_path / "reduced.txt"
    assert main(["build", TORUS, "--out", str(canonical)]) == 0
    assert main(["build", TORUS, "--basis-change", TORUS_T, "--out", str(noncanonical)]) == 0
    assert main(["build", TORUS, "--reduce", "--out", str(reduced_file)]) == 0
    capsys.readouterr()
    assert main(["compare", str(canonical), str(reduced_file)]) == 0
    assert "equal=true" in capsys.readouterr().out
    assert main(["compare", str(canonical), str(noncanonical)]) == 1
    assert capsys.readouterr() == ("\n".join(COMPARE_LINES) + "\n", "")


def test_row_space_diff_eliminates_each_side_once(monkeypatch, capsys):
    a = build_canonical(*load_hypermap(TORUS))
    b = transform(a, gf2.read_matrix(TORUS_T))
    forward, calls = gf2._forward, []
    monkeypatch.setattr(gf2, "_forward", lambda rows: calls.append(rows) or forward(rows))
    cli._print_row_space_diff(a, b)
    assert capsys.readouterr().out.splitlines() == COMPARE_LINES[1:]
    assert len(calls) <= 4


def test_build_distance_eliminates_each_sector_once(monkeypatch, capsys):
    # k comes from the components; the oracle eliminates hx and hz once each
    # for its ranks and reducers, and the third elimination is one sector's
    # kernel basis.
    forward, rows = gf2._forward, []
    monkeypatch.setattr(gf2, "_forward", lambda packed: rows.append(len(packed)) or forward(packed))
    assert main(["build", TORUS, "--distance"]) == 0
    assert capsys.readouterr().out.startswith("n=6 k=2 d=2 dx=2 dz=2\n")
    assert rows == [2, 4, 6]


@pytest.mark.parametrize(
    "header",
    [pytest.param("9" * 5000 + " 3", id="5000-digits"), pytest.param("0 99999999999999999999999", id="past-intp")],
)
@pytest.mark.parametrize("command", ["decompose", "distance"])
def test_oversized_matrix_header_exits_2_with_one_line(tmp_path, capsys, command, header):
    # A count is bounded before int() and by numpy's largest dimension.
    path = tmp_path / "big.txt"
    path.write_text(f"{header}\n" if command == "decompose" else f"Hx\n{header}\nHz\n0 3\n")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: matrix dimensions must be at most {2**63 - 1}\n")
