"""Input files: every reader goes through ``_jsonfmt.read_text``.

It reads as ``open(path).read()`` does: to end of file, in the locale's
encoding with strict errors, with universal newlines.  The exit codes,
error lines and stdout below are literals taken from the package when it
read through ``pathlib.Path.read_text``, except that an error about a
file's contents now names the file first, as an ``OSError`` line does.
"""

import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from hypermap_codes import _jsonfmt, css, hypermap, surface
from hypermap_codes.cli import main
from util import FIXTURES, torus_hypermap

TORUS = str(FIXTURES / "torus_hypermap.json")
TORUS_T = str(FIXTURES / "torus_basis_change.txt")
TORIC_2X2 = str(FIXTURES / "toric_2x2_rotation.json")
SRC = Path(__file__).resolve().parent.parent / "src"
VERIFY_TORUS = "equal=true\nhypermap_code n=6 k=2\nsurface_code n=6 k=2\n"

# Each reading subcommand: its argv, with "{input}" for the file it reads;
# the file that stands for that input; and its stdout on that file.  The
# stabilizer block "{stab}" is the torus code's.
COMMANDS = {
    "verify": (["verify", "{input}"], TORUS, VERIFY_TORUS),
    "from-graph": (
        ["from-graph", "{input}", "--out", "{out}"],
        TORIC_2X2,
        "V=4 E=8 F=4 W=16 genus=1\nspecial=1,3,6,7,9,12,14,16\nwrote={out}\n",
    ),
    "decompose": (["decompose", "{input}"], TORUS_T, "CNOT 1 2\ngates=1 bound=36\n"),
    "distance": (["distance", "{input}"], "{stab}", "d=2 dx=2 dz=2\n"),
    "compare": (["compare", "{stab}", "{input}"], "{stab}", "equal=true\n"),
}

# The error for an empty input, which each format rejects in its own words.
EMPTY_ERRORS = {
    "verify": "Expecting value: line 1 column 1 (char 0)",
    "from-graph": "Expecting value: line 1 column 1 (char 0)",
    "decompose": "empty matrix text",
    "distance": "missing Hx section",
    "compare": "missing Hx section",
}


def _make_bad(case, path):
    if case == "directory":
        path.mkdir()
    elif case == "invalid-utf8":
        path.write_bytes(b'{"darts": 1\xff}\n')
    elif case == "empty":
        path.write_bytes(b"")


@pytest.fixture
def places(tmp_path):
    """The ``{stab}`` and ``{out}`` paths; ``{stab}`` holds the torus code's block."""
    stab = tmp_path / "stab.txt"
    css.write_stabilizer(stab, css.build_canonical(*torus_hypermap()))
    return {"stab": str(stab), "out": str(tmp_path / "out.json")}


def _run(command, path, places, capsys):
    argv, _, _ = COMMANDS[command]
    rc = main([word.format(input=path, **places) for word in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", ["missing", "directory", "invalid-utf8", "empty"])
def test_bad_input_file_exits_2_with_the_same_line(tmp_path, places, capsys, command, case):
    path = tmp_path / "input"
    _make_bad(case, path)
    expected = {
        "missing": f"error: [Errno 2] No such file or directory: '{path}'\n",
        "directory": f"error: [Errno 21] Is a directory: '{path}'\n",
        "invalid-utf8": f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte\n",
        "empty": f"error: {path}: {EMPTY_ERRORS[command]}\n",
    }[case]
    assert _run(command, str(path), places, capsys) == (2, "", expected)


def test_error_names_the_bad_file(tmp_path, places, capsys):
    # The first of compare's two files, and the basis change that build
    # reads besides its hypermap.
    bad = tmp_path / "bad"
    bad.write_bytes(b"")
    for argv, message in (
        (["compare", str(bad), places["stab"]], "missing Hx section"),
        (["build", TORUS, "--basis-change", str(bad)], "empty matrix text"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_line_ends_read_as_newlines(tmp_path, places, capsys, command, newline):
    _, source, out = COMMANDS[command]
    copy = tmp_path / "copy"
    copy.write_bytes(Path(source.format(**places)).read_bytes().replace(b"\n", newline))
    assert _run(command, str(copy), places, capsys) == (0, out.format(**places), "")


def _feed_fifo(path, data, piece=1000):
    """Start a thread that writes ``data`` to the FIFO at ``path`` in pieces of ``piece`` bytes."""

    def feed():
        with open(path, "wb", buffering=0) as fh:
            for start in range(0, len(data), piece):
                fh.write(data[start : start + piece])

    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    return thread


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_fifo_input_is_read_to_end_of_file(tmp_path, places, capsys, command):
    _, source, out = COMMANDS[command]
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    feeder = _feed_fifo(fifo, Path(source.format(**places)).read_bytes(), piece=7)
    assert _run(command, str(fifo), places, capsys) == (0, out.format(**places), "")
    feeder.join(timeout=30)


def test_fifo_past_the_pipe_buffer(tmp_path, capsys):
    # Toric 16x16: about 14 KiB of JSON, sent in pieces of 1000 bytes, and a
    # stabilizer block of about 512 KiB, eight times a pipe's 64 KiB.
    H, S = surface.graph_to_hypermap(surface.toric_rotation_graph(16, 16))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    feeder = _feed_fifo(fifo, _jsonfmt.compact_json(hypermap.hypermap_to_json(H, S)).encode())
    assert main(["verify", str(fifo)]) == 0
    feeder.join(timeout=30)
    assert capsys.readouterr() == ("equal=true\nhypermap_code n=512 k=2\nsurface_code n=512 k=2\n", "")
    text = css.format_stabilizer(css.build_canonical(H, S))
    assert len(text) > 8 * 65536
    feeder = _feed_fifo(fifo, text.encode(), piece=65536 + 17)
    assert _jsonfmt.read_text(fifo) == text
    feeder.join(timeout=30)


@pytest.mark.parametrize("stdin", ["file", "pipe"])
def test_dev_stdin_is_read_to_end_of_file(stdin):
    with open(TORUS, "rb") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "hypermap_codes", "verify", "/dev/stdin"],
            **({"stdin": fh} if stdin == "file" else {"input": fh.read()}),
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, VERIFY_TORUS.encode(), b"")


def test_read_text_matches_open(tmp_path):
    # Random mixes of line ends, multi-byte characters and stray bytes: the
    # same text as ``open(path).read()``, or the same decoding error.
    rng = random.Random(25)
    pieces = [b"a", b" ", b"\n", b"\r", b"\r\n", b"\n\r", "é".encode(), "€".encode(), b"\xff", b"\xc3"]
    path = tmp_path / "text"
    for _ in range(400):
        data = b"".join(rng.choices(pieces, k=rng.randint(0, 30)))
        path.write_bytes(data)
        try:
            with open(path) as fh:
                expected = fh.read()
        except UnicodeDecodeError as exc:
            with pytest.raises(UnicodeDecodeError) as info:
                _jsonfmt.read_text(path)
            assert str(info.value) == str(exc)
        else:
            assert _jsonfmt.read_text(path) == expected


def test_read_text_names_a_directory_given_as_a_path(tmp_path):
    with pytest.raises(IsADirectoryError) as info:
        _jsonfmt.read_text(tmp_path)
    assert (info.value.filename, str(info.value)) == (str(tmp_path), f"[Errno 21] Is a directory: '{tmp_path}'")
