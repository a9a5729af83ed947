"""Properties of CNOT synthesis on invertible matrices of size 1-40.

``T`` is drawn as a product of up to ``n^2`` random elementary column
additions, with its columns then permuted half of the time, so that zero
diagonal entries need repairs.  For each ``T``, the factors of
:func:`gf2.decompose_elementary` multiply to ``T``, their reversed product
is ``invert(T)``, there are at most ``n^2`` of them, and the CNOT circuit
applied to a random canonical code of length ``n`` gives the code that the
boundary-change route builds.
"""

import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypermap_codes import Hypermap, NotConnectedError, Permutation, build_canonical, gf2  # noqa: E402
from hypermap_codes.css import code_from_boundary_change, transform  # noqa: E402
from util import random_permutation, random_special_darts  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def invertible_matrices(draw):
    n = draw(st.integers(1, 40))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    T = gf2.identity(n)
    for _ in range(draw(st.integers(0, n * n)) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        T[:, j] ^= T[:, i]  # right-multiplied by the factor f_ij
    if draw(st.booleans()):
        T = T[:, rng.sample(range(n), n)]
    return T


def random_code_hypermap(rng, n):
    """A random connected hypermap with 1-3 hyperedges and ``n`` more darts than hyperedges."""
    while True:
        hyperedges = rng.randint(1, min(3, n + 1))
        darts = n + hyperedges
        labels = list(range(1, darts + 1))
        rng.shuffle(labels)
        cuts = [0, *sorted(rng.sample(range(1, darts), hyperedges - 1)), darts]
        tau = Permutation.from_cycles([labels[a:b] for a, b in zip(cuts, cuts[1:])], darts)
        try:
            return Hypermap(random_permutation(rng, darts), tau)
        except NotConnectedError:
            continue


@SETTINGS
@given(invertible_matrices())
def test_factors_multiply_to_t_and_reversed_to_its_inverse(T):
    n = T.shape[0]
    factors = gf2.decompose_elementary(T)
    assert factors.shape == (len(factors), 2)
    assert len(factors) <= n * n
    assert np.array_equal(gf2.multiply_factors(factors, n), T)
    assert np.array_equal(gf2.multiply_factors(factors[::-1], n), gf2.invert(T))


@SETTINGS
@given(invertible_matrices(), st.integers(0, 2**32 - 1))
def test_transform_equals_boundary_change_route(T, seed):
    rng = random.Random(seed)
    H = random_code_hypermap(rng, T.shape[0])
    S = random_special_darts(rng, H)
    code = build_canonical(H, S)
    assert code.n == T.shape[0]
    via_gates = transform(code, T)
    via_boundary = code_from_boundary_change(H, S, T)
    assert np.array_equal(via_gates.hx, via_boundary.hx)
    assert np.array_equal(via_gates.hz, via_boundary.hz)
