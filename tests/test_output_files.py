"""Output files: every writer writes in place and cuts a longer regular file to length.

The CLI flushes its report before it writes a file, and a closed pipe on
stdout exits 141 with nothing on stderr.
"""

import io
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from hypermap_codes import _jsonfmt, css, gf2, hypermap, surface
from hypermap_codes._jsonfmt import compact_json
from hypermap_codes.cli import main
from util import FIXTURES, torus_hypermap

TORUS = str(FIXTURES / "torus_hypermap.json")
TORUS_T = str(FIXTURES / "torus_basis_change.txt")
TORIC_2X2 = str(FIXTURES / "toric_2x2_rotation.json")
SRC = Path(__file__).resolve().parent.parent / "src"
OLD_TAIL = b"x" * 3000


def _writers():
    H, S = torus_hypermap()
    code = css.build_canonical(H, S)
    G = surface.hypermap_to_surface(H, S)
    return {
        "write_stabilizer": (lambda p: css.write_stabilizer(p, code), css.format_stabilizer(code)),
        "write_matrix": (lambda p: gf2.write_matrix(p, code.hz), gf2.format_matrix(code.hz)),
        "save_hypermap": (
            lambda p: hypermap.save_hypermap(p, H, S),
            compact_json(hypermap.hypermap_to_json(H, S)),
        ),
        "save_surface_graph": (
            lambda p: surface.save_surface_graph(p, G),
            compact_json(surface.surface_graph_to_json(G)),
        ),
    }


WRITERS = sorted(_writers())

# Each writing subcommand, with the output file given last.
COMMANDS = {
    "build": ["build", TORUS, "--out"],
    "build-basis-change": ["build", TORUS, "--basis-change", TORUS_T, "--reduce", "--out"],
    "to-surface-graph": ["to-surface", TORUS, "--out-graph"],
    "to-surface-dot": ["to-surface", TORUS, "--out-graph", os.devnull, "--dot"],
    "to-surface-intermediate-dot": ["to-surface", TORUS, "--out-graph", os.devnull, "--intermediate-dot"],
    "from-graph": ["from-graph", TORIC_2X2, "--out"],
}


def _run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("name", WRITERS)
def test_writer_over_a_longer_file_leaves_exact_bytes(tmp_path, name):
    write, text = _writers()[name]
    path = tmp_path / "out"
    path.write_bytes(OLD_TAIL)
    path.chmod(0o640)
    before = path.stat()
    write(path)
    assert path.read_bytes() == text.encode()
    after = path.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


@pytest.mark.parametrize("name", WRITERS)
def test_writer_follows_a_symlink(tmp_path, name):
    write, text = _writers()[name]
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(OLD_TAIL)
    link.symlink_to(target.name)
    write(link)
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == text.encode()


@pytest.mark.parametrize("name", WRITERS)
def test_writer_creates_a_file_with_the_umask_applied(tmp_path, name):
    write, text = _writers()[name]
    path = tmp_path / "new"
    old = os.umask(0o027)
    try:
        write(path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("name", WRITERS)
def test_writer_to_dev_null(name):
    # /dev/null is seekable but cannot be truncated; it is left as it is.
    write, _ = _writers()[name]
    write(os.devnull)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_over_a_longer_file_matches_a_fresh_write(tmp_path, capsys, command):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    reused.write_bytes(OLD_TAIL)
    inode = reused.stat().st_ino
    rc, out, err = _run(COMMANDS[command] + [str(fresh)], capsys)
    assert (rc, err) == (0, "")
    assert _run(COMMANDS[command] + [str(reused)], capsys) == (0, out.replace(str(fresh), str(reused)), "")
    assert reused.read_bytes() == fresh.read_bytes()
    assert reused.stat().st_ino == inode


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize(
    "make, errno_text",
    [
        pytest.param(lambda p: p.mkdir(), "[Errno 21] Is a directory", id="directory"),
        pytest.param(lambda p: None, "[Errno 2] No such file or directory", id="missing-parent"),
    ],
)
def test_cli_unwritable_output_exits_2_with_one_line(tmp_path, capsys, command, make, errno_text):
    path = tmp_path / "out"
    make(path)
    if errno_text.startswith("[Errno 2]"):
        path = path / "x"
    rc, _, err = _run(COMMANDS[command] + [str(path)], capsys)
    assert rc == 2
    assert err == f"error: {errno_text}: '{path}'\n"


def test_rewrite_cuts_only_a_longer_file(tmp_path, monkeypatch):
    # A file of the text's length is left uncut: no ftruncate call.
    truncated = []
    ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, size: truncated.append(size) or ftruncate(fd, size))
    path = tmp_path / "out"
    for text, cuts in [("abcdef\n", 0), ("uvwxyz\n", 0), ("ab\n", 1), ("ab\n", 1), ("longer text\n", 1)]:
        _jsonfmt.write_text(path, text)
        assert (path.read_text(), len(truncated)) == (text, cuts)


def test_short_writes_are_finished(tmp_path, monkeypatch):
    # A write that takes only part of the bytes is followed by one for the rest.
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:3]))
    path = tmp_path / "out"
    path.write_bytes(OLD_TAIL)
    text = css.format_stabilizer(css.build_canonical(*torus_hypermap()))
    _jsonfmt.write_text(path, text)
    assert path.read_bytes() == text.encode()


def test_build_out_to_a_fifo(tmp_path, capsys):
    expected = css.format_stabilizer(css.build_canonical(*torus_hypermap()))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    rc, out, err = _run(["build", TORUS, "--out", str(fifo)], capsys)
    reader.join(timeout=30)
    assert (rc, out, err) == (0, f"n=6 k=2\nwrote={fifo}\n", "")
    assert received == [expected.encode()]


def test_build_out_to_dev_stdout_through_a_pipe():
    # Unbuffered, the report lines and the block reach the pipe in call order.
    expected = css.format_stabilizer(css.build_canonical(*torus_hypermap()))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    proc = subprocess.run(
        [sys.executable, "-m", "hypermap_codes", "build", TORUS, "--out", "/dev/stdout"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == f"n=6 k=2\n{expected}wrote=/dev/stdout\n".encode()


def _cli_env(unbuffered):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_build_out_to_dev_stdout_through_a_buffered_pipe():
    # Buffered, the report line is flushed before the block is written
    # through a second descriptor, so the pipe sees them in call order.
    expected = css.format_stabilizer(css.build_canonical(*torus_hypermap()))
    proc = subprocess.run(
        [sys.executable, "-m", "hypermap_codes", "build", TORUS, "--out", "/dev/stdout"],
        capture_output=True,
        env=_cli_env(unbuffered=False),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == f"n=6 k=2\n{expected}wrote=/dev/stdout\n".encode()


@pytest.fixture(scope="module")
def toric16(tmp_path_factory):
    """A toric 16x16 hypermap: its stabilizer block (about 512 KiB) overfills a pipe."""
    path = tmp_path_factory.mktemp("toric16") / "toric16.json"
    hypermap.save_hypermap(path, *surface.graph_to_hypermap(surface.toric_rotation_graph(16, 16)))
    return str(path)


def _read_then_close(argv, unbuffered, read=lambda stdout: stdout.readline()):
    """``(exit code, what ``read`` took from stdout, stderr)`` of the CLI; stdout is closed after ``read``.

    The default reads the first line, as ``head -n 1`` does.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "hypermap_codes", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(unbuffered),
    )
    head = read(proc.stdout)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    return proc.returncode, head, err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "source, out, codes",
    [
        # The torus block fits in the pipe, so whether the reader is gone
        # before the last write is a race: 0 or 141, never a traceback.
        pytest.param("torus", ["--out", "/dev/stdout"], (0, 141), id="torus-out-dev-stdout"),
        pytest.param("toric16", ["--out", "/dev/stdout"], (141,), id="toric16-out-dev-stdout"),
        pytest.param("toric16", [], (141,), id="toric16-stdout"),
    ],
)
def test_closed_stdout_pipe_exits_141_quietly(toric16, source, out, codes, unbuffered):
    path, first_line = (TORUS, b"n=6 k=2\n") if source == "torus" else (toric16, b"n=512 k=2\n")
    rc, line, err = _read_then_close(["build", path, *out], unbuffered)
    assert (line, err) == (first_line, b"")
    assert rc in codes


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_pipe_closed_after_a_few_bytes_exits_141(toric16, unbuffered):
    # As ``| head -c 20``: the reader takes the report line and the start of
    # the block.  Unbuffered, the write it cuts short is finished by a second
    # write, which finds the pipe closed.
    code = css.build_canonical(*hypermap.load_hypermap(toric16))
    expected = ("n=512 k=2\n" + css.format_stabilizer(code))[:20].encode()
    assert _read_then_close(["build", toric16], unbuffered, lambda stdout: stdout.read(20)) == (141, expected, b"")


def test_broken_pipe_exits_141_in_process(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["build", TORUS]) == 141
    assert capsys.readouterr().err == ""
