"""The one-pass cycle reader of ``Permutation.from_cycles`` and ``Hypermap.from_cycles``.

Labels are mostly valid, mixed with 0, negative labels, ``n + 1``, labels
past int64, numpy integers, and repeats within and across cycles.  Each
reader must give the image of the plain-Python reference in ``util``, or
raise the same exception type with the same message.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypermap_codes import Hypermap, Permutation  # noqa: E402
from util import reference_from_cycles, reference_hypermap_from_cycles  # noqa: E402


@st.composite
def cycle_lists(draw, n):
    """Disjoint cycles over ``1..n``, some dropped, with up to two labels replaced.

    A replacement is a bad label or any label of ``1..n``, as a Python or a
    numpy int, so it may repeat a label within or across cycles; the labels
    may also all be numpy ints.
    """
    order = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    cycles = [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n]) if draw(st.integers(0, 3))]
    if draw(st.booleans()):
        cycles = [list(map(np.int64, cycle)) for cycle in cycles]
    bad = [0, -1, -(2**70), n + 1, 2**63, 2**64, 10**30, np.int64(0), np.int64(n + 1), np.uint64(2**63)]
    for _ in range(draw(st.integers(0, 2))):
        slots = [(i, j) for i, cycle in enumerate(cycles) for j in range(len(cycle))]
        if not slots:
            break
        i, j = draw(st.sampled_from(slots))
        cycles[i][j] = draw(st.sampled_from([*bad, *order, *map(np.int64, order)]))
    return cycles


def _outcome(build):
    try:
        return build()
    except Exception as error:  # the readers must agree on any error
        return type(error), str(error)


@st.composite
def permutation_inputs(draw):
    n = draw(st.integers(1, 8))
    return draw(cycle_lists(n)), n


@st.composite
def hypermap_inputs(draw):
    n = draw(st.integers(1, 8))
    return n, draw(cycle_lists(n)), draw(cycle_lists(n))


@settings(max_examples=300, deadline=None)
@given(permutation_inputs())
def test_permutation_from_cycles_matches_reference(args):
    cycles, n = args
    got = _outcome(lambda: Permutation.from_cycles(cycles, n).image)
    assert got == _outcome(lambda: reference_from_cycles(cycles, n))


@settings(max_examples=300, deadline=None)
@given(hypermap_inputs())
def test_hypermap_from_cycles_matches_reference(args):
    def images():
        H = Hypermap.from_cycles(*args)
        return H.sigma.image, H.tau.image

    assert _outcome(images) == _outcome(lambda: reference_hypermap_from_cycles(*args))
