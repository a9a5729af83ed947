"""File I/O for the formats: the JSON reader, compact JSON (one top-level key per line), the one text writer."""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path


def read_json(path):
    """The JSON value in the file at ``path``; nesting too deep to parse is a ``ValueError``."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"JSON in {path} is nested too deeply") from None


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` in place, then cut a regular file that is longer.

    The file is opened without ``O_TRUNC``, created with mode ``0o666 &
    ~umask`` if missing, and written with :func:`open`'s default encoding
    and newline handling, as :meth:`pathlib.Path.write_text` does.  On ext4
    with ``auto_da_alloc``, truncating a non-empty file to size zero makes
    ``close()`` start writeback, which the next rewrite of the same file
    waits for; writing over the old bytes and truncating at the end
    position does not.  Only a regular file is truncated, and only when it
    is longer than the text: a rewrite of the same length makes no
    ``ftruncate`` call.  A pipe, a FIFO or a terminal cannot be truncated,
    and ``/dev/null`` is seekable but refuses ``ftruncate``.  A write that
    fails part-way leaves the new prefix followed by the old tail.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        fh.flush()
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size != fh.tell():
            fh.truncate()


def compact_json(data: dict) -> str:
    lines = ["{"]
    items = list(data.items())
    for idx, (key, value) in enumerate(items):
        comma = "," if idx < len(items) - 1 else ""
        lines.append(f'  "{key}": {json.dumps(value)}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"
