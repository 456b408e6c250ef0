"""Finite abelian coefficient groups and homomorphisms."""

import random

import numpy as np
import pytest

from cechlift.coefgroup import (
    MAX_CYCLIC_ORDER,
    AbelianGroup,
    AbelianHom,
    Z2,
    direct_sum,
    fusion_hom_mod2,
    identity_hom,
    parse_group,
)


def test_basic_group_data():
    g = AbelianGroup((2, 4))
    assert g.order == 8
    assert g.rank == 2
    assert g.zero() == (0, 0)
    elems = list(g.elements())
    assert len(elems) == 8
    assert len(set(elems)) == 8
    for i, a in enumerate(elems):
        assert g.element_index(a) == i


def test_trivial_group():
    t = AbelianGroup(())
    assert t.order == 1
    assert t.rank == 0
    assert list(t.elements()) == [()]
    assert t.add((), ()) == ()


def test_arithmetic_mod_factors():
    g = AbelianGroup((3, 5))
    rng = random.Random(0)
    for _ in range(100):
        a = (rng.randrange(3), rng.randrange(5))
        b = (rng.randrange(3), rng.randrange(5))
        assert g.add(a, b) == ((a[0] + b[0]) % 3, (a[1] + b[1]) % 5)
        assert g.add(a, g.neg(a)) == g.zero()
        assert g.sub(a, b) == g.add(a, g.neg(b))
        k = rng.randrange(-7, 8)
        assert g.scale(k, a) == ((k * a[0]) % 3, (k * a[1]) % 5)


def test_element_validation():
    g = AbelianGroup((2, 4))
    with pytest.raises(ValueError):
        g.check((2, 0))
    with pytest.raises(ValueError):
        g.check((0,))
    with pytest.raises(ValueError):
        g.check((0, -1))
    with pytest.raises(ValueError):
        AbelianGroup((2, 1))


@pytest.mark.parametrize("bad", (1.7, 1.0, np.float64(1.0), "3", None, [1]))
def test_check_rejects_entries_that_are_not_integers(bad):
    # A float used to be rounded and a string parsed: check((1.7,)) gave (1,).
    for g in (Z2, AbelianGroup((4,)), AbelianGroup((2, 4))):
        a = (0,) * (g.rank - 1) + (bad,)
        with pytest.raises(ValueError) as err:
            g.check(a)
        assert str(err.value) == f"element {a!r} is not a residue tuple for factors {g.factors}"
    with pytest.raises(ValueError, match="is not a residue tuple"):
        Z2.check(1)


def test_check_accepts_ints_bools_and_numpy_integers():
    g = AbelianGroup((2, 4))
    for a in ((1, 3), (True, 3), (np.int64(1), np.uint8(3)), (np.True_, np.int32(3)), np.array([1, 3])):
        out = g.check(a)
        assert out == (1, 3)
        assert all(type(x) is int for x in out)


def test_hom_rejects_images_that_are_not_integers():
    z4 = AbelianGroup((4,))
    for images in (((2.0,),), (("2",),), ((np.float64(2.0),),), ((None,),)):
        with pytest.raises(ValueError) as err:
            AbelianHom(Z2, z4, images)
        assert str(err.value) == f"element {images[0]!r} is not a residue tuple for factors (4,)"
    assert AbelianHom(Z2, z4, ((np.int64(2),),)).images == ((np.int64(2),),)


def test_moduli_and_image_matrix_are_built_once_and_read_only():
    g = AbelianGroup((2, 4, 3))
    assert g.moduli is g.moduli
    assert g.moduli.dtype == np.int64 and g.moduli.tolist() == [2, 4, 3]
    assert not g.moduli.flags.writeable
    assert AbelianGroup(()).moduli.shape == (0,)
    dom, _, _ = direct_sum([AbelianGroup((4,)), AbelianGroup((4,))])
    hom = AbelianHom(dom, AbelianGroup((4, 2)), ((1, 1), (3, 0)))
    assert hom.image_matrix is hom.image_matrix
    assert hom.image_matrix.tolist() == [[1, 1], [3, 0]]
    assert not hom.image_matrix.flags.writeable
    # The cached arrays are not fields: equality and hashing ignore them.
    again = AbelianGroup((2, 4, 3))
    assert again == g and hash(again) == hash(g)


def test_parse_group():
    assert parse_group("Z2").factors == (2,)
    assert parse_group("Z2xZ4").factors == (2, 4)
    assert parse_group("Z12").factors == (12,)
    assert parse_group("Z1").factors == ()
    assert parse_group(" Z3 x Z3 ").factors == (3, 3)
    for bad in ("", "Z", "Z0", "X2", "z2", "Z2x", "Z2+Z4"):
        with pytest.raises(ValueError):
            parse_group(bad)


def test_cyclic_factors_are_capped():
    assert MAX_CYCLIC_ORDER == 2**31 - 1
    assert AbelianGroup((2, MAX_CYCLIC_ORDER)).order == 2 * MAX_CYCLIC_ORDER
    for n in (2**31, 4294967311, 2305843009213693951):
        with pytest.raises(ValueError, match=r"2\^31"):
            AbelianGroup((2, n))
        with pytest.raises(ValueError, match=r"2\^31"):
            parse_group(f"Z{n}")


def test_format_round_trip():
    for factors in ((), (2,), (2, 4), (3, 3, 9)):
        g = AbelianGroup(factors)
        assert parse_group(g.format()).factors == factors


def test_hom_validation_and_application():
    z4 = AbelianGroup((4,))
    reduce_mod2 = AbelianHom(z4, Z2, ((1,),))
    assert reduce_mod2((3,)) == (1,)
    assert reduce_mod2((2,)) == (0,)
    assert reduce_mod2.is_surjective()
    assert reduce_mod2.kernel_elements() == [(0,), (2,)]
    with pytest.raises(ValueError):
        AbelianHom(Z2, z4, ((1,),))
    doubling = AbelianHom(Z2, z4, ((2,),))
    assert doubling((1,)) == (2,)
    assert not doubling.is_surjective()
    with pytest.raises(ValueError):
        AbelianHom(z4, Z2, ((1,), (1,)))


def test_hom_composition():
    z4 = AbelianGroup((4,))
    reduce_mod2 = AbelianHom(z4, Z2, ((1,),))
    doubling = AbelianHom(Z2, z4, ((2,),))
    zero_map = reduce_mod2.compose(doubling)
    assert all(zero_map(a) == (0,) for a in Z2.elements())
    with pytest.raises(ValueError):
        doubling.compose(doubling)


def test_identity_hom():
    g = AbelianGroup((2, 6))
    ident = identity_hom(g)
    for a in g.elements():
        assert ident(a) == a


def test_direct_sum_structure():
    g1 = AbelianGroup((2,))
    g2 = AbelianGroup((4, 3))
    total, injections, projections = direct_sum([g1, g2])
    assert total.factors == (2, 4, 3)
    for i, g in enumerate((g1, g2)):
        for a in g.elements():
            assert projections[i](injections[i](a)) == a
    for a in g1.elements():
        assert projections[1](injections[0](a)) == g2.zero()
    rng = random.Random(1)
    for _ in range(20):
        x = tuple(rng.randrange(n) for n in total.factors)
        rebuilt = total.zero()
        for inj, proj in zip(injections, projections):
            rebuilt = total.add(rebuilt, inj(proj(x)))
        assert rebuilt == x


def test_fusion_hom_mod2():
    mu = fusion_hom_mod2(2)
    assert mu.domain.factors == (2, 2)
    assert mu.codomain == Z2
    assert mu.is_surjective()
    assert mu((1, 0)) == (1,)
    assert mu((1, 1)) == (0,)
    assert sorted(mu.kernel_elements()) == [(0, 0), (1, 1)]


def test_fusion_hom_mod2_is_built_once_until_the_cache_is_emptied():
    mu = fusion_hom_mod2(2)
    assert fusion_hom_mod2(2) is mu
    assert fusion_hom_mod2(3) is not mu
    fusion_hom_mod2.cache_clear()
    fresh = fusion_hom_mod2(2)
    assert fresh is not mu and fresh == mu
    assert fusion_hom_mod2(2) is fresh
    with pytest.raises(ValueError, match="at least one summand"):
        fusion_hom_mod2(0)
    mu3 = fusion_hom_mod2(3)
    assert mu3((1, 1, 1)) == (1,)
    assert len(mu3.kernel_elements()) == 4
    with pytest.raises(ValueError):
        fusion_hom_mod2(0)
