"""Finite groups, central extensions, sections, and quotients."""

import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from cechlift.coefgroup import AbelianGroup, Z2
from cechlift.errors import (
    CapExceededError,
    KernelMismatchError,
    NotAGroupError,
    NotCentralError,
    NotSubgroupError,
    NotSurjectiveError,
)
from cechlift.fingroup import (
    BUILTIN_EXTENSIONS,
    Section,
    abelian_structure,
    builtin_extension,
    canonical_section,
    cyclic_group,
    dihedral_group_8,
    direct_product,
    find_splitting,
    klein_four_group,
    make_extension,
    make_group,
    pack_tuple,
    quaternion_group,
    quotient_by_central,
    random_section,
    read_extension,
    read_group,
    same_extension,
    same_group,
    unpack_tuple,
    write_extension,
    write_group,
)

Z3 = AbelianGroup((3,))


def s3_group():
    """Symmetric group on three letters, built from permutation tuples."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    idx = {p: i for i, p in enumerate(perms)}
    table = [
        [idx[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms
    ]
    parity = [0, 1, 1, 0, 0, 1]
    return make_group(table), parity, perms


def test_cyclic_group():
    g = cyclic_group(6)
    assert g.order == 6
    assert g.identity == 0
    assert g.is_abelian()
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4
    assert g.element_order(2) == 3
    assert [g.element_order(a) for a in g.elements()] == [1, 6, 3, 2, 3, 6]


def test_quaternion_group():
    q8 = quaternion_group()
    assert q8.order == 8
    assert not q8.is_abelian()
    assert sorted(q8.name_of(a) for a in q8.center()) == ["-1", "1"]
    profile = Counter(q8.element_order(a) for a in q8.elements())
    assert profile == {1: 1, 2: 1, 4: 6}
    i = q8.names.index("i")
    j = q8.names.index("j")
    k = q8.names.index("k")
    assert q8.mul(i, j) == k
    assert q8.mul(j, i) == q8.names.index("-k")
    assert q8.mul(i, i) == q8.names.index("-1")


def test_dihedral_group():
    d8 = dihedral_group_8()
    assert d8.order == 8
    assert not d8.is_abelian()
    assert sorted(d8.name_of(a) for a in d8.center()) == ["e", "r2"]
    profile = Counter(d8.element_order(a) for a in d8.elements())
    assert profile == {1: 1, 2: 5, 4: 2}
    r = d8.names.index("r")
    s = d8.names.index("s")
    assert d8.mul(s, d8.mul(r, s)) == d8.inv(r)


def test_klein_four_group():
    v4 = klein_four_group()
    assert v4.order == 4
    assert v4.is_abelian()
    assert all(v4.mul(a, a) == v4.identity for a in v4.elements())


def test_inverse_identity_laws():
    for g in (cyclic_group(7), quaternion_group(), dihedral_group_8()):
        for a in g.elements():
            assert g.mul(a, g.inv(a)) == g.identity
            assert g.mul(g.identity, a) == a
            assert g.mul(a, g.identity) == a


def test_make_group_rejects_non_groups():
    with pytest.raises(NotAGroupError):
        make_group([[0, 1], [1, 0], [0, 1]])
    with pytest.raises(NotAGroupError):
        make_group([[0, 5], [1, 0]])
    with pytest.raises(NotAGroupError):
        make_group([[0, 1], [0, 0]])
    magma = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]
    with pytest.raises(NotAGroupError) as info:
        make_group(magma)
    a, b, c = info.value.witness
    lhs = magma[magma[a][b]][c]
    rhs = magma[a][magma[b][c]]
    assert lhs != rhs


def test_make_group_order_cap():
    n = 300
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    with pytest.raises(ValueError):
        make_group(table)


def test_direct_product():
    c2, c3 = cyclic_group(2), cyclic_group(3)
    prod, injections, projections = direct_product([c2, c3])
    assert prod.order == 6
    assert prod.is_abelian()
    for a in c2.elements():
        assert projections[0](injections[0](a)) == a
        assert projections[1](injections[0](a)) == c3.identity
    x = injections[0](1)
    y = injections[1](2)
    assert prod.mul(x, y) == prod.mul(y, x)
    with pytest.raises(ValueError):
        direct_product([quaternion_group()] * 3)


def test_pack_unpack_round_trip():
    orders = (2, 3, 4)
    for idx in range(24):
        t = unpack_tuple(orders, idx)
        assert pack_tuple(orders, t) == idx
    assert pack_tuple(orders, (0, 0, 0)) == 0


def test_abelian_structure():
    group, to_tuple, from_tuple = abelian_structure(cyclic_group(6))
    assert group.factors == (6,)
    v4 = klein_four_group()
    group, to_tuple, from_tuple = abelian_structure(v4)
    assert group.factors == (2, 2)
    prod, _, _ = direct_product([cyclic_group(4), cyclic_group(2)])
    group, to_tuple, from_tuple = abelian_structure(prod)
    assert group.factors == (2, 4)
    for a in prod.elements():
        for b in prod.elements():
            assert from_tuple[group.add(to_tuple[a], to_tuple[b])] == prod.mul(a, b)
    with pytest.raises(ValueError):
        abelian_structure(quaternion_group())


def test_builtin_extensions_verify():
    for name in BUILTIN_EXTENSIONS:
        ext = builtin_extension(name)
        assert ext.kernel.factors == (2,)
        for a in ext.total.elements():
            k = ext.embed_element((1,))
            assert ext.total.mul(a, k) == ext.total.mul(k, a)
    with pytest.raises(ValueError):
        builtin_extension("nosuch")


def test_splitting_search_is_exhaustive():
    split = find_splitting(builtin_extension("split_z2"))
    assert split is not None
    ext = split.extension
    for a in ext.base.elements():
        for b in ext.base.elements():
            assert split(ext.base.mul(a, b)) == ext.total.mul(split(a), split(b))
    for name in ("z4_over_z2", "q8_over_v4", "d8_over_v4"):
        assert find_splitting(builtin_extension(name)) is None


def test_make_extension_error_paths():
    s3, parity, _ = s3_group()
    c2 = cyclic_group(2)
    with pytest.raises(NotSurjectiveError):
        make_extension(cyclic_group(4), c2, [0, 0, 0, 0], Z2, [0, 2])
    with pytest.raises(KernelMismatchError):
        make_extension(s3, c2, parity, Z2, [0, 1])
    with pytest.raises(NotCentralError):
        make_extension(s3, c2, parity, Z3, [0, 3, 4])
    with pytest.raises(ValueError):
        make_extension(cyclic_group(4), c2, [0, 1, 1, 0], Z2, [0, 2])


def test_extension_fiber_bookkeeping():
    ext = builtin_extension("z4_over_z2")
    assert set(ext.fiber(0)) == {0, 2}
    assert set(ext.fiber(1)) == {1, 3}
    assert ext.embed_element((0,)) == 0
    assert ext.embed_element((1,)) == 2
    assert ext.kernel_element_of(2) == (1,)
    with pytest.raises(ValueError):
        ext.kernel_element_of(1)


def test_sections():
    ext = builtin_extension("q8_over_v4")
    sec = canonical_section(ext)
    assert sec.is_normalized()
    for b in ext.base.elements():
        assert ext.projection(sec(b)) == b
    rng = random.Random(0)
    for _ in range(10):
        s = random_section(ext, rng)
        assert s.is_normalized()
        for b in ext.base.elements():
            assert ext.projection(s(b)) == b
    seen_unnormalized = False
    for _ in range(40):
        s = random_section(ext, rng, normalized=False)
        seen_unnormalized = seen_unnormalized or not s.is_normalized()
    assert seen_unnormalized
    with pytest.raises(ValueError):
        Section(ext, (1,) * ext.base.order)


def test_section_rejects_out_of_range_values():
    # -4 would alias 0 under negative indexing, which lies over 0.
    ext = builtin_extension("z4_over_z2")
    for bad in ((-4, 1), (0, -1), (4, 1), (0, 5), (0, 2**70)):
        with pytest.raises(ValueError, match="out of range"):
            Section(ext, bad)
    assert Section(ext, (2, 3)).map == (2, 3)


def test_section_table_is_built_once_and_read_only():
    ext = builtin_extension("q8_over_v4")
    sec = random_section(ext, random.Random(1), normalized=False)
    table = sec.table
    assert table is sec.table
    assert not table.flags.writeable
    assert table.tolist() == list(sec.map)
    assert canonical_section(ext) is canonical_section(ext)


def test_quotient_by_central():
    z4z4, injections, _ = direct_product([cyclic_group(4), cyclic_group(4)])
    diag = sorted({z4z4.identity, z4z4.mul(injections[0](2), injections[1](2))})
    q, proj = quotient_by_central(z4z4, diag)
    assert q.order == 8
    assert q.is_abelian()
    profile = Counter(q.element_order(a) for a in q.elements())
    assert profile == {1: 1, 2: 3, 4: 4}
    structure, _, _ = abelian_structure(q)
    assert structure.factors == (2, 4)
    for a in z4z4.elements():
        for b in z4z4.elements():
            assert proj(z4z4.mul(a, b)) == q.mul(proj(a), proj(b))


def test_quotient_by_trivial_subgroup_is_identity():
    d8 = dihedral_group_8()
    q, proj = quotient_by_central(d8, [d8.identity])
    assert np.array_equal(q.table, d8.table)
    assert list(proj.map) == list(d8.elements())


def test_quotient_rejects_bad_subgroups():
    d8 = dihedral_group_8()
    s = d8.names.index("s")
    with pytest.raises(NotSubgroupError):
        quotient_by_central(d8, [d8.identity, d8.names.index("r")])
    with pytest.raises(NotCentralError):
        quotient_by_central(d8, [d8.identity, s])
    with pytest.raises(NotSubgroupError):
        quotient_by_central(d8, [s])


def test_same_group_and_same_extension():
    c4 = cyclic_group(4)
    rebuilt = make_group([[c4.mul(a, b) for b in c4.elements()] for a in c4.elements()])
    assert same_group(c4, rebuilt)
    assert not same_group(c4, klein_four_group())
    z4 = builtin_extension("z4_over_z2")
    copy = make_extension(cyclic_group(4), cyclic_group(2), [0, 1, 0, 1], Z2, [0, 2])
    assert same_extension(z4, copy)
    assert not same_extension(z4, builtin_extension("split_z2"))


def test_group_file_round_trip(tmp_path):
    q8 = quaternion_group()
    path = tmp_path / "q8.grp"
    write_group(path, q8)
    back = read_group(path)
    assert same_group(q8, back)
    assert back.names == q8.names
    text = path.read_text()
    for extra in ("1 1", "garbage here", "names: " + " ".join(q8.names)):
        path.write_text(text + extra + "\n")
        with pytest.raises(ValueError, match=f"unexpected trailing line '{extra}'"):
            read_group(path)


def test_group_file_tamper_detection(tmp_path):
    path = tmp_path / "bad.grp"
    write_group(path, cyclic_group(3))
    lines = path.read_text().splitlines()
    lines[1] = "0 1 9"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NotAGroupError):
        read_group(path)


def test_extension_file_round_trip(tmp_path):
    ext = builtin_extension("d8_over_v4")
    path = tmp_path / "d8.ext"
    write_extension(path, ext)
    back = read_extension(path)
    assert same_extension(ext, back)
    text = path.read_text()
    for line in text.splitlines()[3:]:  # the projection and embed lines
        path.write_text(text + line + "\n")
        with pytest.raises(ValueError, match=f"repeated {line.split()[0]} line '{line}'"):
            read_extension(path)


def test_extension_file_tamper_detection(tmp_path):
    ext = builtin_extension("z4_over_z2")
    path = tmp_path / "z4.ext"
    write_extension(path, ext)
    text = path.read_text()
    tampered = text.replace("projection 0 1 0 1", "projection 0 0 0 1")
    assert tampered != text
    path.write_text(tampered)
    with pytest.raises(Exception):
        read_extension(path)
    # A second projection line that would repair the first is rejected too.
    path.write_text(tampered + "projection 0 1 0 1\n")
    with pytest.raises(ValueError, match="repeated projection line"):
        read_extension(path)
