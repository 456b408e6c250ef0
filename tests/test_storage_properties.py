"""Property tests of how cochains, cocycles and lifts store their values.

Each stores its values once, as a read-only int64 array; `values` is a
tuple view of Python ints.  Needs hypothesis; without it the module is
skipped.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cechlift.coefgroup import AbelianGroup
from cechlift.cochain import Cochain
from cechlift.fingroup import builtin_extension, cyclic_group
from cechlift.nerve import BUILTIN_COMPLEXES, builtin_complex
from cechlift.obstruct import BundleCocycle, random_cocycle
from cechlift.whitney import hyperbolic_obstruction

# Prime, composite and the largest supported factor.
FACTORS = (2, 3, 4, 6, 2**31 - 1)

complexes = st.sampled_from(BUILTIN_COMPLEXES).map(builtin_complex)
groups = st.lists(st.sampled_from(FACTORS), max_size=3).map(lambda fs: AbelianGroup(tuple(fs)))


def rows(draw, group, n):
    return tuple(tuple(draw(st.integers(0, m - 1)) for m in group.factors) for _ in range(n))


@settings(max_examples=60, deadline=None)
@given(st.data(), complexes, st.integers(0, 2), groups)
def test_cochain_storage_and_arithmetic(data, x, degree, group):
    n = x.dim_count(degree)
    a, b = rows(data.draw, group, n), rows(data.draw, group, n)
    f = Cochain(x, degree, group, a)
    again = Cochain(x, degree, group, np.array(a, dtype=np.int64).reshape(n, group.rank))
    assert again == f and hash(again) == hash(f)
    assert f.values == a
    assert all(type(v) is int for row in f.values for v in row)
    assert Cochain(x, degree, group, f.values) == f
    assert not f.array.flags.writeable and f.array.dtype == np.int64
    g = Cochain(x, degree, group, b)
    assert (f + g).values == tuple(group.add(u, v) for u, v in zip(a, b))
    assert (f - g).values == tuple(group.sub(u, v) for u, v in zip(a, b))
    assert (-f).values == tuple(group.neg(u) for u in a)


@settings(max_examples=30, deadline=None)
@given(st.data(), complexes, st.integers(1, 8), st.integers(0, 2**16))
def test_cocycle_and_lift_views_match_their_tables(data, x, order, seed):
    values = tuple(data.draw(st.integers(0, order - 1)) for _ in x.edges())
    s = BundleCocycle(x, cyclic_group(order), values)
    assert s.values == values == tuple(s.table.tolist())
    assert BundleCocycle(x, cyclic_group(order), np.array(values)).values == values
    ext = builtin_extension("z4_over_z2")
    lift = hyperbolic_obstruction(random_cocycle(x, ext.base, seed), ext).lift
    assert lift.values == tuple(lift.table.tolist())
    assert lift.cocycle.values == tuple(lift.cocycle.table.tolist())
    assert all(type(v) is int for v in lift.values)
