"""Mutated hypermap JSON through ``info`` and ``verify``.

Starting from valid files, labels are swapped for huge, negative, boolean,
float, string or nested values, keys are dropped, labels are duplicated and
cycles nested or extended.  Whatever the input, the CLI must exit 0 (valid)
or 2 (bad input, one stderr line): never 1, which means a failed
verification, and never an exception.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypermap_codes import graph_to_hypermap, hypermap_to_json, toric_rotation_graph  # noqa: E402
from hypermap_codes.cli import main  # noqa: E402
from util import FIXTURES  # noqa: E402

VALID = [
    json.loads((FIXTURES / "torus_hypermap.json").read_text()),
    hypermap_to_json(*graph_to_hypermap(toric_rotation_graph(2, 3))),
    {"darts": 1, "sigma": [], "tau": []},
]
KEYS = ["darts", "sigma", "tau", "special"]

BAD_VALUES = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -5, 2**63, 2**64, 10**30, True, False, None, 1.0, 2.5, "3", "", [], [[1]]]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-3, 12), max_size=3),
)


def _lists(node):
    """Every list inside ``node`` (itself included), depth first."""
    found = []
    if isinstance(node, list):
        found.append(node)
        for item in node:
            found += _lists(item)
    elif isinstance(node, dict):
        for value in node.values():
            found += _lists(value)
    return found


@st.composite
def mutated_hypermaps(draw):
    # Drawn values are copied, so that no list is shared between examples
    # or appended into itself.
    def bad():
        return copy.deepcopy(draw(BAD_VALUES))

    data = copy.deepcopy(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["label", "duplicate", "nest", "append", "drop", "value"]))
        lists = [lst for lst in _lists(data) if lst]
        if kind in ("label", "duplicate", "nest") and lists:
            target = draw(st.sampled_from(lists))
            i = draw(st.integers(0, len(target) - 1))
            if kind == "label":
                target[i] = bad()
            elif kind == "duplicate":
                target[i] = copy.deepcopy(target[draw(st.integers(0, len(target) - 1))])
            else:
                target[i] = [target[i]]
        elif kind == "append" and _lists(data):
            draw(st.sampled_from(_lists(data))).append(draw(st.integers(1, 12)) if draw(st.booleans()) else bad())
        elif kind == "drop" and isinstance(data, dict) and data:
            data.pop(draw(st.sampled_from(sorted(data))))
        elif kind == "value" and isinstance(data, dict):
            data[draw(st.sampled_from(KEYS))] = bad()
    if draw(st.integers(0, 19)) == 7:  # now and then, a document that is not an object
        data = [data]
    return data


@settings(max_examples=300, deadline=None)
@given(mutated_hypermaps(), st.sampled_from(["info", "verify"]))
def test_mutated_hypermap_json_exits_0_or_2(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hypermap.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, str(path)])
    assert rc in (0, 2)
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ") and out.getvalue() == ""
