"""JSON for the file formats: one reader, and compact emission with one top-level key per line."""

from __future__ import annotations

import json
from pathlib import Path


def read_json(path):
    """The JSON value in the file at ``path``; nesting too deep to parse is a ``ValueError``."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"JSON in {path} is nested too deeply") from None


def compact_json(data: dict) -> str:
    lines = ["{"]
    items = list(data.items())
    for idx, (key, value) in enumerate(items):
        comma = "," if idx < len(items) - 1 else ""
        lines.append(f'  "{key}": {json.dumps(value)}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"
