"""Property tests of `build_complex` against the frozen set-based closure in
`complex_reference`.  Needs hypothesis; without it the module is skipped."""

import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cechlift.nerve import build_complex
from complex_reference import closure

# 513^7 > 2^63: a key packing the 7 vertices of a facet base n would overflow.
WIDE_VERTICES = (513, 600)


@st.composite
def facet_lists(draw):
    """Facets of 1-7 vertices covering vertices 0..n-1, each in shuffled
    order and given as a tuple, a list or an int64 array, with duplicate
    facets and facets that are faces of others.  Either n <= 40, or
    n >= 513 with 7-vertex facets."""
    if draw(st.booleans()):
        n, widest = draw(st.integers(*WIDE_VERTICES)), 7
    else:
        n = draw(st.integers(1, 40))
        widest = draw(st.integers(1, min(7, n)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    order = rng.sample(range(n), n)
    facets = [order[i : i + widest] for i in range(0, n, widest)]
    for _ in range(draw(st.integers(0, 30))):
        facets.append(rng.sample(range(n), rng.randint(1, widest)))
    for _ in range(draw(st.integers(0, 10))):
        f = rng.choice(facets)
        facets.append(list(f) if rng.random() < 0.5 else rng.sample(f, rng.randint(1, len(f))))
    rng.shuffle(facets)
    forms = (tuple, list, lambda f: np.array(f, dtype=np.int64))
    return [rng.choice(forms)(rng.sample(f, len(f))) for f in facets]


@settings(max_examples=150, deadline=None)
@given(facet_lists())
def test_build_complex_matches_the_set_based_closure(facets):
    vertex_count, simplices, maximal, index = closure(facets)
    x = build_complex(facets)
    assert x.vertex_count == vertex_count
    assert dict(x.simplices) == simplices
    assert x.facets == maximal
    for simps in simplices.values():
        assert all(type(v) is int for v in simps[0])
        assert [x.index_of(s) for s in simps] == [index[s] for s in simps]
