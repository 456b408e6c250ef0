"""Property tests of GF(2) elimination on row bitsets against the frozen
dense references.  Needs hypothesis; without it the module is skipped."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cechlift.linalg import factor_mod_p, rref_mod_p, solve_mod_p
from gfp_reference import rref_mod_p_reference, solve_mod_p_reference
from oracles import gf2_rank


@st.composite
def systems(draw):
    """A matrix with entries of any sign, a vector x0, a random b and an
    optional number of pivot columns (possibly past the last column)."""
    rows = draw(st.integers(0, 9))
    cols = draw(st.integers(0, 9))
    entries = st.integers(0, 1) if draw(st.booleans()) else st.integers(-(2**40), 2**40)
    a = np.array(draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)), dtype=np.int64)
    x0 = np.array(draw(st.lists(st.integers(0, 1), min_size=cols, max_size=cols)), dtype=np.int64)
    b = np.array(draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows)), dtype=np.int64)
    pivot_cols = draw(st.none() | st.integers(0, cols + 2))
    return a.reshape(rows, cols), x0, b, pivot_cols


def _bits(m):
    return [int("".join(str(int(v) % 2) for v in reversed(row)) or "0", 2) for row in m]


@settings(max_examples=300, deadline=None)
@given(systems())
def test_gf2_rref_pivots_and_witnesses_match_references(system):
    a, x0, b, pivot_cols = system
    got, pivots = rref_mod_p(a, 2, pivot_cols=pivot_cols)
    k = a.shape[1] if pivot_cols is None else min(pivot_cols, a.shape[1])
    want, want_pivots = rref_mod_p_reference(a[:, :k], 2)
    assert pivots == want_pivots
    assert np.array_equal(got[:, :k], want)
    if pivot_cols is None:
        assert np.array_equal(got, rref_mod_p_reference(a, 2)[0])
    # The whole result is `a` times an invertible matrix: same row space.
    assert gf2_rank(_bits(got)) == gf2_rank(_bits(a)) == gf2_rank(_bits(got) + _bits(a))

    factor = factor_mod_p(a, 2)
    consistent = (a @ x0) % 2
    for rhs in (consistent, b):
        ref = solve_mod_p_reference(a, rhs, 2)
        for x in (solve_mod_p(factor, rhs, 2), solve_mod_p(a, rhs, 2)):
            assert (x is None) == (ref is None)
            assert x is None or x.tolist() == ref.tolist()
    assert solve_mod_p(factor, consistent, 2) is not None
    assert factor.pivots == tuple(rref_mod_p_reference(a, 2)[1])
