"""Property tests of the gather-built groups against the frozen loop-based
constructions in group_reference.py.

Direct products of cyclic groups, Q8, D8 and the Klein group up to order
256, quotients by random central subgroups, and product and fused
extensions must match the reference in table, identity, inverses, names,
maps, fibers, kernel lookup and canonical section.  Corrupted tables,
subgroups, projections and embeddings must fail with the reference's error
type, witness and message.  Needs hypothesis; without it the module is
skipped.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from cechlift.coefgroup import AbelianGroup, fusion_hom_mod2
from cechlift.fingroup import (
    BUILTIN_EXTENSIONS,
    _direct_product,
    builtin_extension,
    cyclic_group,
    dihedral_group_8,
    klein_four_group,
    make_extension,
    make_group,
    quaternion_group,
    quotient_by_central,
)
from cechlift.whitney import fused_extension, product_extension
from group_reference import (
    direct_product_reference,
    fused_maps_reference,
    make_extension_reference,
    make_group_reference,
    product_extension_maps_reference,
    quotient_by_central_reference,
)

Z4, Q8, D8 = cyclic_group(4), quaternion_group(), dihedral_group_8()


def relabelled(group, perm):
    """The same group with element a renamed perm[a]."""
    perm = np.asarray(perm)
    table = np.empty_like(group.table)
    table[np.ix_(perm, perm)] = perm[group.table]
    names = [None] * group.order
    for a, name in enumerate(group.names):
        names[perm[a]] = name
    return make_group(table, names=names)


# The relabelled groups have their identity elsewhere than at 0.
FACTORS = [cyclic_group(n) for n in range(1, 9)] + [
    Q8, D8, klein_four_group(), relabelled(cyclic_group(3), [2, 0, 1]), relabelled(Q8, [5, 0, 7, 1, 6, 2, 4, 3]),
]


@st.composite
def products(draw, cap=256, max_factors=4):
    """One to max_factors factor groups whose orders multiply to at most cap."""
    groups = [draw(st.sampled_from([g for g in FACTORS if g.order <= cap]))]
    while len(groups) < max_factors and draw(st.booleans()):
        room = cap // math.prod(g.order for g in groups)
        fits = [g for g in FACTORS if g.order <= room]
        if not fits:
            break
        groups.append(draw(st.sampled_from(fits)))
    return groups


def build_product(groups):
    """direct_product's build without its bounded cache, so that these
    tests neither reuse earlier products nor evict ones later tests made."""
    return _direct_product.__wrapped__(tuple(groups))


def assert_same_group(group, ref):
    assert group.order == ref.order
    assert np.array_equal(group.table, ref.table)
    assert group.identity == ref.identity
    assert group.inverse == ref.inverse
    assert group.names == ref.names


@settings(max_examples=40, deadline=None)
@given(products())
@example([Z4, Z4, Z4, Z4])
@example([Q8, D8, Z4])
def test_direct_product_matches_reference(groups):
    prod, injections, projections = build_product(groups)
    ref, ref_injections, ref_projections = direct_product_reference(groups)
    assert_same_group(prod, ref)
    assert tuple(h.map for h in injections) == ref_injections
    assert tuple(h.map for h in projections) == ref_projections
    assert all(h.domain is g and h.codomain is prod for h, g in zip(injections, groups))


def generated_subgroup(group, gens):
    """Closure of {identity} under right multiplication by gens."""
    sub, todo = {group.identity}, [group.identity]
    while todo:
        a = todo.pop()
        for s in gens:
            b = group.mul(a, s)
            if b not in sub:
                sub.add(b)
                todo.append(b)
    return sorted(sub)


@settings(max_examples=40, deadline=None)
@given(products(cap=128, max_factors=3), st.data())
@example([Z4, Z4, Z4], None)
def test_quotient_by_random_central_subgroup_matches_reference(groups, data):
    group, _, _ = build_product(groups)
    center = group.center()
    gens = [center[-1]] if data is None else data.draw(st.lists(st.sampled_from(center), max_size=3))
    sub = generated_subgroup(group, gens)
    quotient, proj = quotient_by_central(group, sub)
    ref, ref_coset = quotient_by_central_reference(group, sub)
    assert_same_group(quotient, ref)
    assert proj.map == ref_coset
    assert proj.domain is group and proj.codomain is quotient


def assert_matches_extension_reference(ext):
    ref = make_extension_reference(ext.total, ext.base, ext.projection.map, ext.kernel, ext.embed)
    assert tuple(ext.fiber(b) for b in range(ext.base.order)) == ref.fibers
    assert ext.fiber(-1) == ref.fibers[-1]
    with pytest.raises(IndexError):
        ext.fiber(ext.base.order)
    for x in range(-1, ext.total.order + 1):
        if x in ref.kernel_of:
            assert ext.kernel_element_of(x) == ref.kernel_of[x]
        else:
            with pytest.raises(ValueError, match=f"element {x} is not in the embedded kernel"):
                ext.kernel_element_of(x)
    assert ext._canonical_section.map == ref.canonical_section


extension_lists = st.lists(st.sampled_from(BUILTIN_EXTENSIONS), min_size=1, max_size=3).filter(
    lambda names: math.prod(builtin_extension(n).total.order for n in names) <= 256
)


@settings(max_examples=30, deadline=None)
@given(extension_lists)
def test_product_and_fused_extensions_match_reference(names):
    exts = [builtin_extension(n) for n in names]
    for ext in exts:
        assert_matches_extension_reference(ext)
    product, section = product_extension(exts)
    assert (product.projection.map, product.embed) == product_extension_maps_reference(exts)
    assert_matches_extension_reference(product)
    assert section.map == product._canonical_section.map
    fusion = fusion_hom_mod2(len(exts))
    fe = fused_extension(exts, fusion)
    quotient, coset, projection, embed = fused_maps_reference(fe.product, fusion)
    assert_same_group(fe.fused.total, quotient)
    assert fe.coset_map.map == coset
    assert (fe.fused.projection.map, fe.fused.embed) == (projection, embed)
    assert fe.section.map == tuple(coset[x] for x in fe.product_section.map)
    assert_matches_extension_reference(fe.fused)


# ------------------------------------------------------------- error paths ----


class Failure(NamedTuple):
    error: type
    message: str
    witness: object


def outcome(build, *args):
    """The result of build(*args), or the Failure it raised."""
    try:
        return build(*args)
    except Exception as exc:
        return Failure(type(exc), str(exc), getattr(exc, "witness", None))


def assert_same_outcome(got, want, assert_same_result):
    """Both failed alike, or neither failed and assert_same_result(got, want) holds."""
    if isinstance(want, Failure):
        assert got == want
    else:
        assert not isinstance(got, Failure), got
        assert_same_result(got, want)


def assert_same_quotient(got, want):
    assert_same_group(got[0], want[0])
    assert got[1].map == want[1]


def monoid_tables():
    """Associative tables that are not groups: multiplication mod n (no
    inverse for 0) and the left-zero semigroup (no identity)."""
    yield from ([[(a * b) % n for b in range(n)] for a in range(n)] for n in (2, 3, 4, 6))
    yield [[a for _ in range(3)] for a in range(3)]


@settings(max_examples=60, deadline=None)
@given(products(cap=64, max_factors=3), st.data())
def test_corrupted_tables_fail_as_the_reference_does(groups, data):
    group, _, _ = build_product(groups)
    table = np.array(group.table)
    n = group.order
    kind = data.draw(st.sampled_from(["set", "swap", "range", "rows"]))
    a, b, c, d = (data.draw(st.integers(0, n - 1)) for _ in range(4))
    if kind == "set":
        table[a, b] = c
    elif kind == "swap":
        table[a, b], table[c, d] = table[c, d], table[a, b]
    elif kind == "range":
        table[a, b] = data.draw(st.sampled_from([-1, n]))
    else:
        table[[a, c]] = table[[c, a]]
    assert_same_outcome(outcome(make_group, table), outcome(make_group_reference, table), assert_same_group)


NON_GROUP_TABLES = list(monoid_tables()) + [
    [[0, 1], [0, 1]],  # right-zero semigroup: no identity
    [[1, 0], [0, 0]],  # not associative
    [[0, 1, 2], [1, 0, 2], [2, 2, 2]],  # Z2 with a zero adjoined: 2 has no inverse
    [[0, 0, 1]],  # not square
    [],
]


@pytest.mark.parametrize("table", NON_GROUP_TABLES)
def test_non_group_tables_fail_as_the_reference_does(table):
    want = outcome(make_group_reference, table)
    assert isinstance(want, Failure)
    assert outcome(make_group, table) == want


@settings(max_examples=60, deadline=None)
@given(products(cap=64, max_factors=3), st.data())
def test_bad_subgroups_fail_as_the_reference_does(groups, data):
    group, _, _ = build_product(groups)
    sub = data.draw(st.lists(st.integers(0, group.order - 1), max_size=6))
    if data.draw(st.booleans()):
        sub.append(group.identity)
    got = outcome(quotient_by_central, group, sub)
    want = outcome(quotient_by_central_reference, group, sub)
    assert_same_outcome(got, want, assert_same_quotient)


def test_non_central_subgroup_fails_as_the_reference_does():
    for group, sub in ((D8, [0, 4]), (Q8, [0, 1, 2, 3]), (build_product([Z4, D8])[0], [0, 5])):
        want = outcome(quotient_by_central_reference, group, sub)
        assert isinstance(want, Failure) and want.error.__name__ == "NotCentralError"
        assert outcome(quotient_by_central, group, sub) == want


def extension_cases():
    """Valid (total, base, projection, kernel, embed) tuples to corrupt."""
    for name in BUILTIN_EXTENSIONS:
        e = builtin_extension(name)
        yield e.total, e.base, e.projection.map, e.kernel, e.embed
    for names in (("z4_over_z2", "q8_over_v4"), ("split_z2", "d8_over_v4"), ("z4_over_z2", "z4_over_z2")):
        e, _ = product_extension([builtin_extension(n) for n in names])
        yield e.total, e.base, e.projection.map, e.kernel, e.embed
    # Z8 -> Z2 with kernel Z4 embedded as 0, 2, 4, 6.
    yield cyclic_group(8), cyclic_group(2), [a % 2 for a in range(8)], AbelianGroup((4,)), [0, 2, 4, 6]


EXTENSION_CASES = list(extension_cases())


def assert_same_extension_outcome(args):
    got = outcome(make_extension, *args)
    want = outcome(make_extension_reference, *args)
    assert_same_outcome(got, want, lambda ext, _: assert_matches_extension_reference(ext))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(EXTENSION_CASES), st.data())
def test_corrupted_extensions_fail_as_the_reference_does(case, data):
    total, base, projection, kernel, embed = case
    projection, embed = list(projection), list(embed)
    kind = data.draw(st.sampled_from(["projection", "embed", "permute", "drop", "kernel"]))
    if kind == "projection":
        i = data.draw(st.integers(0, total.order - 1))
        projection[i] = data.draw(st.integers(-1, base.order))
    elif kind == "embed":
        i = data.draw(st.integers(0, len(embed) - 1))
        embed[i] = data.draw(st.integers(0, total.order - 1))
    elif kind == "permute":
        embed = data.draw(st.permutations(embed))
    elif kind == "drop":
        embed = embed[:-1]
    else:
        kernel = data.draw(st.sampled_from([AbelianGroup(f) for f in ((2,), (4,), (2, 2), (3,))]))
        embed = embed[: kernel.order] + [total.identity] * (kernel.order - len(embed))
    assert_same_extension_outcome((total, base, projection, kernel, embed))


@pytest.mark.parametrize("case", [
    # D8 and Q8 over Z2 with kernel Z4: the rotations, and <i>; neither central.
    (D8, cyclic_group(2), [0, 0, 0, 0, 1, 1, 1, 1], AbelianGroup((4,)), [0, 1, 2, 3]),
    (Q8, cyclic_group(2), [0, 0, 0, 0, 1, 1, 1, 1], AbelianGroup((4,)), [0, 2, 1, 3]),
    # Z8 over Z2 with kernel Z4 embedded out of order: not a homomorphism.
    (cyclic_group(8), cyclic_group(2), [a % 2 for a in range(8)], AbelianGroup((4,)), [0, 4, 2, 6]),
    # Kernel Z2 x Z2 on a cyclic fiber, and the zero sent elsewhere.
    (cyclic_group(8), cyclic_group(2), [a % 2 for a in range(8)], AbelianGroup((2, 2)), [0, 2, 4, 6]),
    (cyclic_group(8), cyclic_group(2), [a % 2 for a in range(8)], AbelianGroup((4,)), [2, 0, 4, 6]),
    # An embedding that fails first at two different kernel elements.
    (D8, cyclic_group(1), [0] * 8, AbelianGroup((2, 2, 2)), [0, 2, 1, 3, 4, 5, 6, 7]),
    # A projection that misses base elements 1 to 3, and one that is not a homomorphism.
    (cyclic_group(4), klein_four_group(), [0, 0, 0, 0], AbelianGroup((4,)), [0, 1, 2, 3]),
    (cyclic_group(4), cyclic_group(2), [0, 1, 1, 0], AbelianGroup((2,)), [0, 3]),
])
def test_named_extension_failures_match_the_reference(case):
    assert isinstance(outcome(make_extension_reference, *case), Failure)
    assert_same_extension_outcome(case)
