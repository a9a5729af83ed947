"""Command-line interface.

Exit codes: 0 on success, 1 when a semantically valid input fails a
verification (``compare`` of unequal stabilizers), 2 on malformed or
invalid input or an allocation that fails (``MemoryError``, one
``error:`` line, which names the input file when its contents are at
fault), 141 (128 + SIGPIPE, nothing on stderr) when the reader of a pipe
it writes to has gone, as after ``| head -n 1``.  Reports are
line-oriented ``key=value`` where machine-readable, flushed before each
output file is written, so ``--out /dev/stdout`` keeps their order.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import css, gf2, surface
from ._jsonfmt import write_text
from .distance import distance_split
from .hypermap import Hypermap, choose_special_darts, load_hypermap, save_hypermap


def _parse_dart_list(text: str) -> list[int]:
    """Comma-separated dart labels; each must be an ASCII digit string once stripped.

    A label's digits are bounded before ``int()``, which refuses more than
    :func:`sys.get_int_max_str_digits` (0 for no limit).
    """
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tok.isascii() and tok.isdigit() for tok in tokens if tok):
        raise ValueError(f"bad dart list {text!r}, expected comma-separated labels")
    if 0 < (limit := sys.get_int_max_str_digits()) < max(map(len, tokens)):
        raise ValueError(f"dart list holds a label of more than {limit} digits")
    return [int(tok) for tok in tokens if tok]


def _read(reader, path):
    """``reader(path)``; an error about the file's contents names ``path`` first.

    An ``OSError`` names the path itself and passes through as it is.
    """
    try:
        return reader(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_hypermap_and_special(path, special_flag) -> tuple[Hypermap, tuple[int, ...]]:
    H, special = _read(load_hypermap, path)
    if special_flag is not None:
        special = choose_special_darts(H, _parse_dart_list(special_flag))
    elif special is None:
        special = choose_special_darts(H)
    return H, special


def _format_darts(darts) -> str:
    return ",".join(map(str, darts))


def _save(write, path, *args) -> None:
    """Flush the report so far, write the output file with ``write(path, *args)``, report it."""
    sys.stdout.flush()
    write(path, *args)
    print(f"wrote={path}")


def _write_stdout(text: str) -> None:
    """Write all of ``text`` to stdout, or raise.

    Unbuffered (``python -u``, ``PYTHONUNBUFFERED``), the text layer of the
    process's stdout writes straight to the file and drops the count of a
    short write, which a pipe closed part-way returns: the rest of the text
    is lost with no error.  So on the process's own stdout the text layer
    is flushed and the encoded text written to the binary layer in a loop,
    whose next write to a closed pipe raises ``BrokenPipeError``.  Any
    other stdout (``contextlib.redirect_stdout``) is written as text.
    """
    out = sys.stdout
    if out is not sys.__stdout__:
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[out.buffer.write(data) :]


def _distance_fields(code: css.CssCode) -> str:
    dx, dz = distance_split(code)
    return f"d={min(dx, dz)} dx={dx} dz={dz}"


def cmd_info(args) -> int:
    H, special = _load_hypermap_and_special(args.hypermap, None)
    v, e, f, w = H.counts()
    print(f"V={v} E={e} F={f} W={w} genus={H.genus()}")
    print(f"special={_format_darts(special)}")
    return 0


def cmd_build(args) -> int:
    """``k`` is the canonical code's: CNOTs and ``--reduce`` keep both ranks."""
    H, special = _load_hypermap_and_special(args.hypermap, args.special)
    code = css.build_canonical(H, special)
    k = css.params(code).k
    if args.basis_change is not None:
        code = _read(lambda path: css.transform(code, gf2.read_matrix(path)), args.basis_change)
    if args.reduce:
        code = css.reduced(code)
    line = f"n={code.n} k={k}"
    if args.distance:
        line += " " + (_distance_fields(code) if k else "d=none")
    text = css.format_stabilizer(code)  # a failed allocation leaves stdout empty
    print(line)
    if args.out:
        _save(write_text, args.out, text)
    else:
        _write_stdout(text)
    return 0


def cmd_to_surface(args) -> int:
    H, special = _load_hypermap_and_special(args.hypermap, args.special)
    if args.special is None:
        print(f"special={_format_darts(special)}")
    G = surface.hypermap_to_surface(H, special)
    print(f"vertices={G.vertex_count} edges={G.labels.size} faces={G.face_count}")
    _save(surface.save_surface_graph, args.out_graph, G)
    if args.dot:
        _save(write_text, args.dot, surface.surface_graph_dot(G))
    if args.intermediate_dot:
        _save(write_text, args.intermediate_dot, surface.surface_graph_dot(surface.intermediate_surface(H)))
    return 0


def cmd_from_graph(args) -> int:
    G = _read(surface.load_rotation_graph, args.graph)
    H, special = surface.graph_to_hypermap(G)
    v, e, f, w = H.counts()
    print(f"V={v} E={e} F={f} W={w} genus={H.genus()}")
    print(f"special={_format_darts(special)}")
    _save(save_hypermap, args.out, H, special)
    return 0


def cmd_verify(args) -> int:
    H, special = _load_hypermap_and_special(args.hypermap, args.special)
    _, p = surface.verify_equivalence(H, special)
    print(f"equal=true\nhypermap_code n={p.n} k={p.k}\nsurface_code n={p.n} k={p.k}")
    return 0


def _print_row_space_diff(a: css.CssCode, b: css.CssCode) -> None:
    for sector, ma, mb in (("Hx", a.hx, b.hx), ("Hz", a.hz, b.hz)):
        for name, src, other in (("hypermap", ma, mb), ("surface", mb, ma)):
            for i in gf2.rows_outside(src, gf2.row_basis(other)):
                print(f"diff {sector} {name}-only-row: {' '.join(map(str, src[i]))}")


def cmd_decompose(args) -> int:
    circuit = _read(lambda path: css.cnot_circuit(gf2.read_matrix(path)), args.matrix)
    sys.stdout.write("".join(f"CNOT {c} {t}\n" for c, t in circuit.gates.tolist()))
    print(f"gates={len(circuit)} bound={circuit.n * circuit.n}")
    return 0


def cmd_distance(args) -> int:
    print(_distance_fields(_read(css.read_stabilizer, args.stabilizer)))
    return 0


def cmd_compare(args) -> int:
    a = _read(css.read_stabilizer, args.stabilizer_a)
    b = _read(css.read_stabilizer, args.stabilizer_b)
    equal = css.stabilizer_equal(a, b)
    print(f"equal={'true' if equal else 'false'}")
    if equal:
        return 0
    _print_row_space_diff(a, b)
    return 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="hypermap-codes",
        description="Hypermap-homology CSS codes and their surface-code equivalents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its own parser

    p = sub.add_parser("info", help="orbit counts, genus and default special darts")
    p.add_argument("hypermap", help="hypermap JSON file")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("build", help="build the stabilizer matrices of a hypermap code")
    p.add_argument("hypermap", help="hypermap JSON file")
    p.add_argument("--special", help="comma-separated special darts, one per hyperedge")
    p.add_argument("--basis-change", help="matrix file with an invertible basis change")
    p.add_argument("--reduce", action="store_true", help="drop dependent generator rows")
    p.add_argument("--distance", action="store_true", help="run the brute-force distance oracle")
    p.add_argument("--out", help="stabilizer output file (stdout when omitted)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("to-surface", help="convert a hypermap to its equivalent surface graph")
    p.add_argument("hypermap", help="hypermap JSON file")
    p.add_argument("--special", help="comma-separated special darts, one per hyperedge")
    p.add_argument("--out-graph", required=True, help="surface graph JSON output")
    p.add_argument("--dot", help="DOT output for the surface graph")
    p.add_argument(
        "--intermediate-dot",
        help="DOT output for the pre-merge graph (special edges still present)",
    )
    p.set_defaults(func=cmd_to_surface)

    p = sub.add_parser("from-graph", help="reinterpret an embedded graph as a hypermap")
    p.add_argument("graph", help="rotation graph JSON file")
    p.add_argument("--out", required=True, help="hypermap JSON output")
    p.set_defaults(func=cmd_from_graph)

    p = sub.add_parser(
        "verify",
        help="build and check the canonical code, which is the surface code of its graph",
    )
    p.add_argument("hypermap", help="hypermap JSON file")
    p.add_argument("--special", help="comma-separated special darts, one per hyperedge")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="CNOT circuit of an invertible matrix")
    p.add_argument("matrix", help="matrix file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("distance", help="brute-force distance of a stabilizer file")
    p.add_argument("stabilizer", help="stabilizer block file")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("compare", help="row-space equality of two stabilizer files")
    p.add_argument("stabilizer_a")
    p.add_argument("stabilizer_b")
    p.set_defaults(func=cmd_compare)

    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as the full parser would, by the parser of the subcommand it names.

    The full parser runs only for its own usage and error lines.
    """
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    args, rest = sub.parse_known_args(argv[1:]) if sub else (None, None)
    return parser.parse_args(argv) if args is None or rest else args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        if sys.stdout is sys.__stdout__:  # so that the flush at exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 141
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
