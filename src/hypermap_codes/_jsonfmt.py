"""File I/O for the formats: the one reader and the one writer, the JSON reader, compact JSON (one top-level key per line).

Both work on the descriptor (``os.read``, ``os.write``) with the encoding
of :func:`open`'s text mode (``locale.getpreferredencoding(False)``,
strict).  The reader turns ``\r\n`` and ``\r`` into ``\n`` as text mode
does; the writer writes ``\n`` as given.
"""

from __future__ import annotations

import errno
import json
import locale
import os
import stat
import sys


def read_text(path) -> str:
    """The text of the file at ``path``, as ``open(path).read()`` returns it.

    The first ``os.read`` asks for the size plus one byte; reads of 64 KiB go
    on until one returns nothing, so a pipe, a FIFO or ``/dev/stdin`` is read
    to its end.  A directory raises :class:`IsADirectoryError` naming ``path``.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        chunks = [os.read(fd, info.st_size + 1)]
        while chunks[-1]:
            chunks.append(os.read(fd, 1 << 16))
    finally:
        os.close(fd)
    data = chunks[0] if len(chunks) < 3 else b"".join(chunks)
    text = data.decode(locale.getpreferredencoding(False))
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_json(path):
    """The JSON value in the file at ``path``; nesting too deep to parse is a ``ValueError``.

    So is an integer longer than ``int()`` converts
    (:func:`sys.get_int_max_str_digits`), with a line that does not echo it.
    """
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # the one other: int() refused a number's digits
        raise ValueError(f"JSON holds an integer of more than {sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ValueError("JSON is nested too deeply") from None


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` in place, then cut a regular file that is longer.

    The file is opened without ``O_TRUNC``, created with mode ``0o666 &
    ~umask`` if missing, and written by ``os.write`` calls until all of the
    encoded text is written; ``\n`` is written as ``\n``.  On ext4 with ``auto_da_alloc``, truncating a
    non-empty file to size zero makes ``close()`` start writeback, which the
    next rewrite of the same file waits for; writing over the old bytes and
    truncating at the end position does not.  Only a regular file is
    truncated, and only when it is longer than the text: a rewrite of the
    same length makes no ``ftruncate`` call.  A pipe, a FIFO or a terminal
    cannot be truncated, and ``/dev/null`` is seekable but refuses
    ``ftruncate``.  A write that fails part-way leaves the new prefix
    followed by the old tail.
    """
    data = memoryview(text.encode(locale.getpreferredencoding(False)))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > written:
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def compact_json(data: dict) -> str:
    lines = ["{"]
    items = list(data.items())
    for idx, (key, value) in enumerate(items):
        comma = "," if idx < len(items) - 1 else ""
        lines.append(f'  "{key}": {json.dumps(value)}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"
