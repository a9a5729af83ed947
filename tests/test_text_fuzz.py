"""Mutated matrix and stabilizer text against the scalar token parser.

Starting from the text ``format_matrix`` and ``format_stabilizer`` write,
characters are inserted or replaced: separators that ``str.split`` or
``str.splitlines`` treat differently (tab, CR, CRLF, vertical tab, form
feed, the information separators, NEL, the Unicode line separator, NBSP),
bad entries (``2``, an Arabic-Indic digit, ``10``), runs of 20 nines or
zeros (a header count past the int64 bound, or padded with zeros) and
section headers.
``gf2.parse_matrix`` and ``css.parse_stabilizer`` must give what
``reference_parse_matrix`` and ``reference_parse_stabilizer`` give: the same
matrices, or a ``ValueError`` with the same text.  Unmutated text takes the
one-pass reader of the written layout, mutated text mostly the token parser,
so the two readers are checked against each other too.
"""

import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypermap_codes import css, gf2  # noqa: E402
from util import random_css_code, reference_parse_matrix, reference_parse_stabilizer  # noqa: E402

PIECES = [
    " ", "\t", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028", "\u00a0",
    "2", "\u0661", "10", "Hx\n", "Hz\n", "9" * 20, "0" * 20,
]  # fmt: skip

SETTINGS = settings(max_examples=400, deadline=None)


@st.composite
def matrix_texts(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return gf2.format_matrix(rng.integers(0, 2, (rows, cols), dtype=np.uint8))


@st.composite
def stabilizer_texts(draw):
    code = random_css_code(random.Random(draw(st.integers(0, 2**32 - 1))), max_darts=10)
    return css.format_stabilizer(code)


@st.composite
def mutated(draw, texts):
    """A text of ``texts`` with 0-3 pieces inserted or written over one character."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(PIECES))
        end = at + draw(st.integers(0, 1))  # 0: insert, 1: replace the character at ``at``
        text = text[:at] + piece + text[end:]
    return text


def outcome(parse, text):
    """``("ok", value)`` or ``("error", message)`` of ``parse(text)``."""
    try:
        return "ok", parse(text)
    except ValueError as exc:
        return "error", str(exc)


def assert_same_matrix(got, expected):
    assert got.dtype == expected.dtype == np.uint8
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@SETTINGS
@given(mutated(matrix_texts()))
def test_parse_matrix_matches_token_reference(text):
    got, expected = outcome(gf2.parse_matrix, text), outcome(reference_parse_matrix, text)
    assert got[0] == expected[0], (got, expected)
    if got[0] == "ok":
        assert_same_matrix(got[1], expected[1])
    else:
        assert got[1] == expected[1]


@SETTINGS
@given(mutated(stabilizer_texts()))
def test_parse_stabilizer_matches_line_reference(text):
    got, expected = outcome(css.parse_stabilizer, text), outcome(reference_parse_stabilizer, text)
    assert got[0] == expected[0], (got, expected)
    if got[0] == "ok":
        assert_same_matrix(got[1].hx, expected[1].hx)
        assert_same_matrix(got[1].hz, expected[1].hz)
    else:
        assert got[1] == expected[1]
