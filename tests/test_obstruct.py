"""Obstruction cochains, classes, lifts, and the brute-force oracle."""

import random

import pytest

from cechlift.cochain import Cochain, classes_equal, enumerate_classes, is_cocycle
from cechlift.coefgroup import Z2
from cechlift.errors import CapExceededError, KernelViolationError
from cechlift.fingroup import (
    BUILTIN_EXTENSIONS,
    GroupHom,
    Section,
    builtin_extension,
    canonical_section,
    cyclic_group,
    quaternion_group,
    random_section,
)
from cechlift.nerve import BUILTIN_COMPLEXES, builtin_complex
from cechlift.obstruct import (
    BundleCocycle,
    Lift,
    brute_force_lift,
    construct_lift,
    count_inequivalent_lifts,
    identity_cocycle,
    mobius_cocycle,
    obstruction_class,
    obstruction_cocycle,
    pushforward_class,
    random_cocycle,
    read_cocycle,
    validate_cocycle,
    write_cocycle,
)
from oracles import all_lifts

MOBIUS_EDGES = {(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)}


def test_identity_cocycle_lifts_everywhere():
    for cname in BUILTIN_COMPLEXES:
        x = builtin_complex(cname)
        for ename in BUILTIN_EXTENSIONS:
            ext = builtin_extension(ename)
            s = identity_cocycle(x, ext.base)
            result = obstruction_class(s, ext)
            assert result.cochain.is_zero()
            assert result.trivial
            assert result.lift is not None


def test_mobius_cocycle_shape():
    s = mobius_cocycle()
    ok, bad = validate_cocycle(s)
    assert ok and bad is None
    flipped = {e for e, v in zip(s.base.edges(), s.values) if v == 1}
    assert flipped == MOBIUS_EDGES


def test_mobius_is_obstructed_and_brute_force_agrees():
    s = mobius_cocycle()
    ext = builtin_extension("z4_over_z2")
    result = obstruction_class(s, ext)
    assert not result.trivial
    assert result.lift is None
    assert not result.cochain.is_zero()
    assert construct_lift(s, ext) is None
    assert brute_force_lift(s, ext) is None


def test_mobius_lifts_through_the_split_extension():
    s = mobius_cocycle()
    ext = builtin_extension("split_z2")
    result = obstruction_class(s, ext)
    assert result.trivial
    assert result.lift is not None


def test_random_cocycles_are_valid_and_deterministic():
    for cname in BUILTIN_COMPLEXES:
        x = builtin_complex(cname)
        for ename in ("z4_over_z2", "q8_over_v4"):
            ext = builtin_extension(ename)
            for seed in range(10):
                s = random_cocycle(x, ext.base, seed)
                ok, _ = validate_cocycle(s)
                assert ok
                again = random_cocycle(x, ext.base, seed)
                assert again.values == s.values
    x = builtin_complex("torus7")
    base = builtin_extension("z4_over_z2").base
    distinct = {random_cocycle(x, base, seed).values for seed in range(20)}
    assert len(distinct) > 10


def test_random_cocycles_reach_every_class():
    x = builtin_complex("torus7")
    c2 = cyclic_group(2)
    ident = GroupHom(c2, c2, (0, 1))
    targets = enumerate_classes(x, 1, Z2)
    hits = set()
    for seed in range(100):
        s = random_cocycle(x, c2, seed)
        cls = pushforward_class(s, ident)
        for i, t in enumerate(targets):
            if cls.same_class_as(t):
                hits.add(i)
                break
    assert hits == {0, 1, 2, 3}


def test_obstruction_verdict_matches_brute_force_and_lift():
    rng_seeds = range(15)
    for cname in ("circle", "sphere2", "rp2_6"):
        x = builtin_complex(cname)
        for ename in BUILTIN_EXTENSIONS:
            ext = builtin_extension(ename)
            for seed in rng_seeds:
                s = random_cocycle(x, ext.base, seed)
                result = obstruction_class(s, ext)
                brute = brute_force_lift(s, ext)
                assert (brute is not None) == result.trivial
                assert (result.lift is not None) == result.trivial


def test_obstruction_class_is_section_independent():
    s = mobius_cocycle()
    ext = builtin_extension("z4_over_z2")
    rng = random.Random(4)
    q0 = obstruction_cocycle(s, ext)
    for _ in range(10):
        sec = random_section(ext, rng, normalized=rng.random() < 0.5)
        q1 = obstruction_cocycle(s, ext, sec)
        assert is_cocycle(q1)
        assert classes_equal(q0, q1)


def test_corrupted_section_is_caught():
    s = mobius_cocycle()
    ext = builtin_extension("z4_over_z2")
    sec = canonical_section(ext)
    broken = Section(ext, sec.map)
    object.__setattr__(broken, "map", (1, 1))
    with pytest.raises(KernelViolationError):
        obstruction_cocycle(s, ext, broken)


def test_section_from_wrong_extension_is_rejected():
    s = mobius_cocycle()
    z4 = builtin_extension("z4_over_z2")
    other = canonical_section(builtin_extension("q8_over_v4"))
    with pytest.raises(ValueError):
        obstruction_cocycle(s, z4, other)


def test_lift_validation():
    x = builtin_complex("circle")
    ext = builtin_extension("z4_over_z2")
    s = random_cocycle(x, ext.base, 1)
    lift = construct_lift(s, ext)
    assert lift is not None
    with pytest.raises(ValueError):
        Lift(s, ext, lift.values[:-1])
    wrong_fiber = tuple(
        (v + 1) % 4 if i == 0 else v for i, v in enumerate(lift.values)
    )
    with pytest.raises(ValueError):
        Lift(s, ext, wrong_fiber)


@pytest.mark.parametrize("name", BUILTIN_EXTENSIONS)
def test_lift_rejects_out_of_range_values(name):
    # v - order would alias v under negative indexing; v + order used to
    # raise IndexError instead of ValueError.
    x = builtin_complex("torus7")
    ext = builtin_extension(name)
    s = identity_cocycle(x, ext.base)
    lift = construct_lift(s, ext)
    order = ext.total.order
    for i in (0, len(lift.values) - 1):
        for shift in (-order, order, 2**70):
            values = list(lift.values)
            values[i] += shift
            with pytest.raises(ValueError, match="out of range"):
                Lift(s, ext, tuple(values))


def test_brute_force_is_deterministic_and_valid():
    x = builtin_complex("circle")
    ext = builtin_extension("z4_over_z2")
    for seed in range(5):
        s = random_cocycle(x, ext.base, seed)
        first = brute_force_lift(s, ext)
        second = brute_force_lift(s, ext)
        assert first is not None and second is not None
        assert first.values == second.values
        assert first.values in {tuple(v) for v in all_lifts(s, ext)}


def test_brute_force_cap():
    klein = builtin_complex("klein")
    ext = builtin_extension("z4_over_z2")
    s = identity_cocycle(klein, ext.base)
    with pytest.raises(CapExceededError):
        brute_force_lift(s, ext)
    circle = builtin_complex("circle")
    s2 = identity_cocycle(circle, ext.base)
    with pytest.raises(CapExceededError):
        brute_force_lift(s2, ext, cap=4)


def test_count_inequivalent_lifts():
    torus = builtin_complex("torus7")
    split = builtin_extension("split_z2")
    s = identity_cocycle(torus, split.base)
    assert count_inequivalent_lifts(s, split) == 4
    assert count_inequivalent_lifts(mobius_cocycle(), builtin_extension("z4_over_z2")) is None


def test_pushforward_class():
    c2 = cyclic_group(2)
    ident = GroupHom(c2, c2, (0, 1))
    mob = pushforward_class(mobius_cocycle(), ident)
    assert not mob.is_trivial()
    flat = pushforward_class(identity_cocycle(builtin_complex("rp2_6"), c2), ident)
    assert flat.is_trivial()
    v4 = builtin_extension("q8_over_v4").base
    into_q8 = GroupHom(c2, quaternion_group(), (0, quaternion_group().names.index("-1")))
    with pytest.raises(ValueError):
        pushforward_class(mobius_cocycle(), into_q8)
    with pytest.raises(ValueError):
        pushforward_class(identity_cocycle(builtin_complex("circle"), v4), ident)


def test_cocycle_validation_catches_broken_triangles():
    x = builtin_complex("sphere2")
    c2 = cyclic_group(2)
    values = tuple(1 if i == 0 else 0 for i in range(len(x.edges())))
    s = BundleCocycle(x, c2, values)
    ok, bad = validate_cocycle(s)
    assert not ok
    a, b, l = bad
    assert c2.mul(s.value(a, b), s.value(b, l)) != s.value(a, l)


def test_cocycle_file_round_trip_with_builtin_refs(tmp_path):
    x = builtin_complex("rp2_6")
    ext = builtin_extension("z4_over_z2")
    s = random_cocycle(x, ext.base, 7)
    path = tmp_path / "s.bcoc"
    write_cocycle(path, s, complex_ref="builtin:rp2_6")
    back = read_cocycle(path)
    assert back.values == s.values
    assert back.base.vertex_count == x.vertex_count


def test_cocycle_file_round_trip_with_sibling_files(tmp_path):
    x = builtin_complex("torus7")
    ext = builtin_extension("q8_over_v4")
    s = random_cocycle(x, ext.base, 3)
    path = tmp_path / "s.bcoc"
    write_cocycle(path, s)
    back = read_cocycle(path)
    assert back.values == s.values
    explicit = read_cocycle(path, complex_=x, group=ext.base)
    assert explicit.values == s.values


def test_cocycle_file_rejects_bad_content(tmp_path):
    x = builtin_complex("circle")
    c2 = cyclic_group(2)
    s = identity_cocycle(x, c2)
    path = tmp_path / "s.bcoc"
    write_cocycle(path, s)
    text = path.read_text()
    path.write_text(text + "0 9 1\n")
    with pytest.raises(ValueError):
        read_cocycle(path)
    lines = [ln for ln in text.splitlines() if not ln.startswith("0 1")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_cocycle(path)
    # A second line for one edge, in either orientation, agreeing or not.
    for again in ("0 1 1", "0 1 0", "1 0 0", "1 0 1"):
        path.write_text(text + again + "\n")
        with pytest.raises(ValueError, match=r"edge \(0, 1\) a second time"):
            read_cocycle(path)


def test_cocycle_file_reversed_line_carries_the_inverse(tmp_path):
    x = builtin_complex("circle")
    c3 = cyclic_group(3)
    s = BundleCocycle(x, c3, (1, 2, 1))
    path = tmp_path / "s.bcoc"
    write_cocycle(path, s)
    text = path.read_text()
    assert "\n0 1 1\n" in text
    # The oriented edge (1, 0) carries the inverse of s(0, 1).
    path.write_text(text.replace("\n0 1 1\n", "\n1 0 2\n"))
    back = read_cocycle(path)
    assert back.values == s.values
    assert (back.value(0, 1), back.value(1, 0)) == (1, 2)
    path.write_text(text.replace("\n0 1 1\n", "\n1 0 1\n"))
    back = read_cocycle(path)
    assert (back.value(1, 0), back.value(0, 1)) == (1, 2)
