"""Whitney sums: fused extensions, additivity, and doubled cocycles."""

import random

import pytest

from cechlift.coefgroup import AbelianGroup, AbelianHom, direct_sum, fusion_hom_mod2
from cechlift import whitney
from cechlift.cochain import Cochain
from cechlift.errors import BaseMismatchError, InternalCheckError
from cechlift.fingroup import (
    BUILTIN_EXTENSIONS,
    abelian_structure,
    builtin_extension,
    canonical_section,
    cyclic_group,
    find_splitting,
    make_extension,
    pack_tuple,
    random_section,
    unpack_tuple,
)
from cechlift.nerve import BUILTIN_COMPLEXES, builtin_complex
from cechlift.obstruct import (
    identity_cocycle,
    mobius_cocycle,
    obstruction_class,
    obstruction_cocycle,
    random_cocycle,
)
from cechlift.whitney import (
    additivity_check,
    fused_extension,
    hyperbolic_obstruction,
    hyperbolic_structure_count,
    product_cocycle,
    product_extension,
    whitney_obstruction,
    z2_h1_order_from_ranks,
)
from oracles import cohomology_dim_gf2
from subdivision import LABELS, complex_by_label

H1_Z2_ORDERS = {"circle": 2, "sphere2": 1, "torus7": 4, "rp2_6": 2, "klein": 4}


def z4_kernel_extension():
    """Z8 over Z2 with kernel Z4 embedded as the even residues."""
    return make_extension(
        cyclic_group(8),
        cyclic_group(2),
        [x % 2 for x in range(8)],
        AbelianGroup((4,)),
        [0, 2, 4, 6],
    )


def test_product_cocycle_packs_componentwise():
    x = builtin_complex("torus7")
    z4 = builtin_extension("z4_over_z2")
    q8 = builtin_extension("q8_over_v4")
    s1 = random_cocycle(x, z4.base, 0)
    s2 = random_cocycle(x, q8.base, 1)
    prod = product_cocycle((s1, s2))
    assert prod.group.order == z4.base.order * q8.base.order
    orders = [z4.base.order, q8.base.order]
    for i, v in enumerate(prod.values):
        assert v == pack_tuple(orders, [s1.values[i], s2.values[i]])
        assert unpack_tuple(orders, v) == (s1.values[i], s2.values[i])


def test_product_cocycle_rejects_mixed_bases():
    z4 = builtin_extension("z4_over_z2")
    s1 = identity_cocycle(builtin_complex("circle"), z4.base)
    s2 = identity_cocycle(builtin_complex("torus7"), z4.base)
    with pytest.raises(BaseMismatchError):
        product_cocycle((s1, s2))
    with pytest.raises(ValueError):
        product_cocycle(())


def test_product_extension_obstruction_is_the_concatenation():
    x = builtin_complex("rp2_6")
    z4 = builtin_extension("z4_over_z2")
    q8 = builtin_extension("q8_over_v4")
    s1 = mobius_cocycle()
    s2 = random_cocycle(x, q8.base, 5)
    prod_ext, prod_sec = product_extension((z4, q8))
    q = obstruction_cocycle(product_cocycle((s1, s2)), prod_ext, prod_sec)
    q1 = obstruction_cocycle(s1, z4)
    q2 = obstruction_cocycle(s2, q8)
    for i in range(len(x.triangles())):
        assert q.values[i] == q1.values[i] + q2.values[i]


def test_fused_z4_pair_is_the_abelian_group_of_order_eight():
    z4 = builtin_extension("z4_over_z2")
    fe = fused_extension((z4, z4), fusion_hom_mod2(2))
    assert fe.fused.total.order == 8
    assert fe.fused.base.order == 4
    assert fe.kernel.factors == (2,)
    assert fe.fused.total.is_abelian()
    assert abelian_structure(fe.fused.total)[0].factors == (2, 4)
    # Doubling trivializes cocycle obstructions, but the fused extension
    # itself still does not split: its involutions cover only half the base,
    # so no fiberwise homomorphic section can exist.
    total, base = fe.fused.total, fe.fused.base
    involution_images = {
        fe.fused.projection(x)
        for x in total.elements()
        if total.mul(x, x) == total.identity
    }
    assert len(involution_images) == base.order // 2
    assert find_splitting(fe.fused) is None


def test_fused_mixed_pair_has_order_sixteen():
    z4 = builtin_extension("z4_over_z2")
    q8 = builtin_extension("q8_over_v4")
    fe = fused_extension((z4, q8), fusion_hom_mod2(2))
    assert fe.product.total.order == 32
    assert fe.fused.total.order == 16
    assert fe.fused.base.order == 8
    assert not fe.fused.total.is_abelian()


def test_canonical_sections_give_the_cached_default_fused_extension():
    z4 = builtin_extension("z4_over_z2")
    q8 = builtin_extension("q8_over_v4")
    mu = fusion_hom_mod2(2)
    for exts in ((z4, z4), (z4, q8)):
        default = fused_extension(exts, mu)
        assert fused_extension(exts, mu, [canonical_section(e) for e in exts]) is default
    rng = random.Random(3)
    sections = [random_section(z4, rng), random_section(z4, rng)]
    while all(s.map == canonical_section(z4).map for s in sections):
        sections = [random_section(z4, rng), random_section(z4, rng)]
    assert fused_extension((z4, z4), mu, sections) is not fused_extension((z4, z4), mu)


def test_fusion_domain_and_surjectivity_are_checked():
    e4 = z4_kernel_extension()
    with pytest.raises(ValueError):
        fused_extension((e4, e4), fusion_hom_mod2(2))
    z4 = builtin_extension("z4_over_z2")
    zero = AbelianHom(direct_sum([z4.kernel, z4.kernel])[0], AbelianGroup((2,)), ((0,), (0,)))
    with pytest.raises(ValueError):
        fused_extension((z4, z4), zero)


def test_single_summand_fusion_reproduces_the_plain_verdict():
    x = builtin_complex("rp2_6")
    for ename in ("z4_over_z2", "split_z2"):
        ext = builtin_extension(ename)
        for s in (mobius_cocycle(), identity_cocycle(x, ext.base)):
            plain = obstruction_class(s, ext)
            fused = whitney_obstruction((s,), (ext,), fusion_hom_mod2(1))
            assert fused.trivial == plain.trivial


def test_whitney_verdict_is_summand_order_independent():
    x = builtin_complex("torus7")
    z4 = builtin_extension("z4_over_z2")
    q8 = builtin_extension("q8_over_v4")
    mu = fusion_hom_mod2(2)
    for seed in range(8):
        s1 = random_cocycle(x, z4.base, seed)
        s2 = random_cocycle(x, q8.base, seed + 100)
        left = whitney_obstruction((s1, s2), (z4, q8), mu)
        right = whitney_obstruction((s2, s1), (q8, z4), mu)
        assert left.trivial == right.trivial


def test_whitney_requires_matching_counts():
    z4 = builtin_extension("z4_over_z2")
    s = mobius_cocycle()
    with pytest.raises(ValueError):
        whitney_obstruction((s,), (z4, z4), fusion_hom_mod2(2))


def test_three_summand_additivity():
    x = builtin_complex("rp2_6")
    z4 = builtin_extension("z4_over_z2")
    d8 = builtin_extension("d8_over_v4")
    mu = fusion_hom_mod2(3)
    s1 = mobius_cocycle()
    s2 = random_cocycle(x, z4.base, 9)
    s3 = random_cocycle(x, d8.base, 2)
    report = additivity_check((s1, s2, s3), (z4, z4, d8), mu)
    assert report.cochain_equal
    assert report.class_equal
    assert report.mismatched_triangles == ()


def test_additivity_is_exact_with_the_induced_section():
    rng = random.Random(13)
    z4 = builtin_extension("z4_over_z2")
    q8 = builtin_extension("q8_over_v4")
    mu = fusion_hom_mod2(2)
    for cname in BUILTIN_COMPLEXES:
        x = builtin_complex(cname)
        for seed in range(5):
            s1 = random_cocycle(x, z4.base, seed)
            s2 = random_cocycle(x, q8.base, seed + 50)
            secs = [random_section(z4, rng), random_section(q8, rng)]
            report = additivity_check((s1, s2), (z4, q8), mu, sections=secs)
            assert report.cochain_equal
            assert report.class_equal


def test_additivity_survives_an_unrelated_fused_section():
    rng = random.Random(99)
    x = builtin_complex("rp2_6")
    z4 = builtin_extension("z4_over_z2")
    mu = fusion_hom_mod2(2)
    fe = fused_extension((z4, z4), mu)
    saw_mismatch = False
    for seed in range(20):
        s1 = random_cocycle(x, z4.base, seed)
        s2 = random_cocycle(x, z4.base, seed + 31)
        stray = random_section(fe.fused, rng, normalized=rng.random() < 0.5)
        report = additivity_check((s1, s2), (z4, z4), mu, fused_section=stray)
        assert report.class_equal
        assert report.cochain_equal == (report.mismatched_triangles == ())
        if not report.cochain_equal:
            saw_mismatch = True
            for tri in report.mismatched_triangles:
                assert tri in x.triangles()
    assert saw_mismatch


def test_additivity_with_a_non_mod2_fusion():
    e4 = z4_kernel_extension()
    dom, _, _ = direct_sum([e4.kernel, e4.kernel])
    mu4 = AbelianHom(dom, AbelianGroup((4,)), ((1,), (1,)))
    s = mobius_cocycle()
    report = additivity_check((s, s), (e4, e4), mu4)
    assert report.cochain_equal
    assert report.class_equal
    result = whitney_obstruction((s, s), (e4, e4), mu4)
    assert result.trivial == (result.lift is not None)


def test_doubling_kills_the_obstruction_everywhere():
    for cname in BUILTIN_COMPLEXES:
        x = builtin_complex(cname)
        for ename in BUILTIN_EXTENSIONS:
            ext = builtin_extension(ename)
            for seed in range(3):
                s = random_cocycle(x, ext.base, seed)
                result = hyperbolic_obstruction(s, ext)
                assert result.cochain.is_zero()
                assert result.trivial
                assert result.lift is not None


def test_doubling_the_obstructed_mobius_cocycle():
    result = hyperbolic_obstruction(mobius_cocycle(), builtin_extension("z4_over_z2"))
    assert result.trivial
    assert result.lift is not None


def test_doubling_rejects_larger_kernels():
    s = identity_cocycle(builtin_complex("circle"), cyclic_group(2))
    with pytest.raises(ValueError):
        hyperbolic_obstruction(s, z4_kernel_extension())
    with pytest.raises(ValueError):
        hyperbolic_structure_count(s, z4_kernel_extension())


def test_doubled_structure_counts_match_h1():
    for cname, expected in H1_Z2_ORDERS.items():
        x = builtin_complex(cname)
        for ename in ("z4_over_z2", "q8_over_v4"):
            ext = builtin_extension(ename)
            s = random_cocycle(x, ext.base, 4)
            assert hyperbolic_structure_count(s, ext) == expected


@pytest.mark.parametrize("label", LABELS)
def test_doubled_structure_count_against_gf2_oracle(label):
    x = complex_by_label(label)
    ext = builtin_extension("z4_over_z2")
    expected = 2 ** cohomology_dim_gf2(x, 1)
    assert z2_h1_order_from_ranks(x) == expected
    assert hyperbolic_structure_count(identity_cocycle(x, ext.base), ext) == expected


def test_doubled_structure_count_check_can_fail(monkeypatch):
    import cechlift.whitney

    ext = builtin_extension("z4_over_z2")
    s = identity_cocycle(builtin_complex("torus7"), ext.base)
    monkeypatch.setattr(cechlift.whitney, "count_inequivalent_lifts", lambda *args: 8)
    with pytest.raises(InternalCheckError):
        hyperbolic_structure_count(s, ext)


def test_component_sections_must_match_their_extensions():
    z4 = builtin_extension("z4_over_z2")
    q8 = builtin_extension("q8_over_v4")
    s = mobius_cocycle()
    secs = [canonical_section(q8), canonical_section(z4)]
    with pytest.raises(ValueError):
        whitney_obstruction((s, s), (z4, z4), fusion_hom_mod2(2), sections=secs)


def test_summed_obstruction_is_exact_for_factors_near_two_to_the_31(monkeypatch):
    # Kernels of extensions small enough to verify are small, so the
    # component cochains here are stand-ins valued near 2^31, and so are the
    # fusion's images: a triangle's products overflow int64 unless they are
    # split into limbs.
    p = 2**31 - 1
    pieces = [AbelianGroup((p, p)), AbelianGroup((p,))]
    domain, _, _ = direct_sum(pieces)
    rng = random.Random(31)
    near = lambda: p - 1 - rng.randrange(64)
    fusion = AbelianHom(domain, AbelianGroup((p, p)), tuple((near(), near()) for _ in range(3)))
    x = builtin_complex("torus7")
    parts = [
        Cochain(x, 2, g, tuple(tuple(near() for _ in g.factors) for _ in x.triangles()))
        for g in pieces
    ]
    s1, s2 = identity_cocycle(x, cyclic_group(2)), identity_cocycle(x, cyclic_group(2))
    monkeypatch.setattr(whitney, "obstruction_cocycle", lambda s, ext, section: parts[s is s2])
    summed = whitney._summed_obstruction((s1, s2), (None, None), fusion, (None, None))
    assert summed.group == fusion.codomain
    assert summed.values == tuple(fusion(a + b) for a, b in zip(parts[0].values, parts[1].values))


def test_warm_verdicts_build_no_group_or_extension(monkeypatch):
    import cechlift.fingroup

    z4, q8 = builtin_extension("z4_over_z2"), builtin_extension("q8_over_v4")
    exts, mu = (z4, q8), fusion_hom_mod2(2)
    default = fused_extension(exts, mu)
    x = builtin_complex("torus7")
    pairs = [(random_cocycle(x, z4.base, seed), random_cocycle(x, q8.base, seed)) for seed in range(3)]
    hyperbolic_obstruction(pairs[0][0], z4)

    calls = {"make_group": 0, "make_extension": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cechlift.fingroup, "make_group", counting("make_group", cechlift.fingroup.make_group))
    for module in (cechlift.fingroup, whitney):
        monkeypatch.setattr(module, "make_extension", counting("make_extension", module.make_extension))

    rng = random.Random(5)
    for s1, s2 in pairs:
        hyperbolic_obstruction(s1, z4)
        whitney_obstruction((s1, s2), exts, mu)
        secs = [random_section(e, rng, normalized=False) for e in exts]
        whitney_obstruction((s1, s2), exts, mu, sections=secs)
        additivity_check((s1, s2), exts, mu, sections=secs)
        additivity_check((s1, s2), exts, mu, fused_section=random_section(default.fused, rng))
        other = fused_extension(exts, mu, secs)
    assert calls == {"make_group": 0, "make_extension": 0}
    assert other.fused is default.fused and other.product is default.product
    assert other.coset_map is default.coset_map

    s = pairs[1][0]
    assert product_cocycle((s, s)).group is fused_extension((z4, z4), mu).fused.base
    assert canonical_section(z4) is canonical_section(z4)
