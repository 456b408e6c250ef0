"""Whole-array group arithmetic against per-element loops written here.

The library computes obstruction cochains, corrected lifts and the
triangle checks as numpy gathers over Cayley tables.  The loops below do
the same one element at a time with raw table lookups, and the tests
compare values, first failing triangles and error messages.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from cechlift.coefgroup import AbelianGroup, AbelianHom, Z2, fusion_hom_mod2
from cechlift.cochain import Cochain, coboundary, is_coboundary
from cechlift.errors import KernelViolationError
from cechlift.fingroup import (
    BUILTIN_EXTENSIONS,
    Section,
    builtin_extension,
    canonical_section,
    cyclic_group,
    make_extension,
    random_section,
)
from cechlift.obstruct import (
    BundleCocycle,
    Lift,
    identity_cocycle,
    obstruction_class,
    obstruction_cocycle,
    random_cocycle,
    validate_cocycle,
)
from cechlift.whitney import additivity_check, fused_extension, hyperbolic_obstruction, product_cocycle
from subdivision import complex_by_label

LABELS = (
    "circle", "sphere2", "torus7", "rp2_6", "klein",
    "sd1(circle)", "sd1(rp2_6)", "sd1(torus7)", "sd1(klein)", "sd2(rp2_6)",
)


def z8_over_z2():
    """Z8 -> Z2 by reduction mod 2; the kernel Z4 is the even residues."""
    return make_extension(
        cyclic_group(8), cyclic_group(2), [x % 2 for x in range(8)], AbelianGroup((4,)), [0, 2, 4, 6]
    )


EXTENSIONS = (*BUILTIN_EXTENSIONS, "z8_over_z2")


def extension(name):
    return z8_over_z2() if name == "z8_over_z2" else builtin_extension(name)


# ------------------------------------------------------ per-element loops ----


def edge_value(s, a, b):
    return s.values[s.base.index_of((a, b))]


def raw_defect_element(s, ext, section, a, b, l):
    """sigma(s_bl) * sigma(s_al)^-1 * sigma(s_ab) in the total group."""
    t, inv, sigma = ext.total.table, ext.total.inverse, section.map
    return int(t[t[sigma[edge_value(s, b, l)], inv[sigma[edge_value(s, a, l)]]], sigma[edge_value(s, a, b)]])


def raw_defect(s, ext, section):
    """Per-triangle defect as kernel tuples, or (triangle, image) of the
    first triangle whose defect leaves the kernel."""
    kernel = list(ext.kernel.elements())
    out = []
    for a, b, l in s.base.triangles():
        x = raw_defect_element(s, ext, section, a, b, l)
        image = ext.projection.map[x]
        if image != ext.base.identity:
            return (a, b, l), image
        out.append(kernel[ext.embed.index(x)])
    return tuple(out)


def raw_lift(s, ext, section, correction):
    """sigma(s_ab) * embed(-c_ab) edge by edge."""
    kernel = list(ext.kernel.elements())
    out = []
    for (a, b), c in zip(s.base.edges(), correction.values):
        neg = tuple((-x) % n for x, n in zip(c, ext.kernel.factors))
        out.append(int(ext.total.table[section.map[edge_value(s, a, b)], ext.embed[kernel.index(neg)]]))
    return tuple(out)


def raw_failing_triangle(base, group, values):
    for a, b, l in base.triangles():
        v = lambda x, y: values[base.index_of((x, y))]
        if group.table[v(a, b), v(b, l)] != v(a, l):
            return (a, b, l)
    return None


def sections(ext, rng):
    """The canonical section and two random ones that need not fix the identity."""
    return [canonical_section(ext)] + [random_section(ext, rng, normalized=False) for _ in range(2)]


# ------------------------------------------------------------------ tests ----


@pytest.mark.parametrize("label", LABELS)
def test_defects_and_lifts_match_loops(label):
    x = complex_by_label(label)
    rng = random.Random(label)
    for name in EXTENSIONS:
        ext = extension(name)
        for seed in range(2):
            s = random_cocycle(x, ext.base, rng.randrange(1 << 30))
            for section in sections(ext, rng):
                result = obstruction_class(s, ext, section)
                assert result.cochain.values == raw_defect(s, ext, section)
                assert validate_cocycle(s) == (True, None)
                witness = is_coboundary(result.cochain)
                assert result.trivial == (witness is not None)
                if witness is not None:
                    assert result.lift.values == raw_lift(s, ext, section, witness)
                    assert result.lift.failing_triangle() is None


@pytest.mark.parametrize("label", LABELS)
def test_first_failing_triangle_matches_loop(label):
    x = complex_by_label(label)
    rng = random.Random(label + "/broken")
    for name in EXTENSIONS:
        ext = extension(name)
        s = random_cocycle(x, ext.base, rng.randrange(1 << 30))
        for _ in range(3):
            values = list(s.values)
            for i in rng.sample(range(len(values)), min(2, len(values))):
                values[i] = rng.randrange(ext.base.order)
            broken = BundleCocycle(x, ext.base, tuple(values))
            bad = raw_failing_triangle(x, ext.base, broken.values)
            assert validate_cocycle(broken) == (bad is None, bad)
            section = random_section(ext, rng, normalized=False)
            want = raw_defect(broken, ext, section)
            if bad is None:
                assert obstruction_cocycle(broken, ext, section).values == want
                continue
            # The base groups are abelian, so the defect leaves the kernel
            # exactly where the triangle condition fails.
            (a, b, l), image = want
            assert (a, b, l) == bad
            with pytest.raises(KernelViolationError) as err:
                obstruction_cocycle(broken, ext, section)
            assert str(err.value) == (
                f"defect over triangle ({a}, {b}, {l}) projects to {image}, "
                "not the identity; inputs are corrupted"
            )


@pytest.mark.parametrize("label", ("torus7", "klein", "sd1(rp2_6)"))
def test_lift_with_one_corrupted_edge_names_the_first_failure(label):
    x = complex_by_label(label)
    rng = random.Random(label + "/lift")
    for name in EXTENSIONS:
        ext = extension(name)
        lift = obstruction_class(random_cocycle(x, ext.base, 5), ext).lift
        if lift is None:
            continue
        for _ in range(5):
            i = rng.randrange(len(lift.values))
            a, b = x.edges()[i]
            v = lift.values[i]
            # Same fiber, other kernel twist: only triangles can fail.
            twist = ext.embed[rng.randrange(1, ext.kernel.order)]
            values = list(lift.values)
            values[i] = int(ext.total.table[v, twist])
            bad = raw_failing_triangle(x, ext.total, values)
            assert bad is not None
            with pytest.raises(ValueError) as err:
                Lift(lift.cocycle, ext, tuple(values))
            assert str(err.value) == f"lifted triangle condition fails at {bad}"
            # Another fiber: the edge itself fails first.
            values[i] = next(y for y in range(ext.total.order) if ext.projection(y) != ext.projection(v))
            with pytest.raises(ValueError) as err:
                Lift(lift.cocycle, ext, tuple(values))
            assert str(err.value) == f"lift value over edge ({a}, {b}) projects to the wrong element"


def test_values_are_stored_once_as_arrays(monkeypatch):
    """Cold and warm verdicts build no tuple of values: every Cochain,
    BundleCocycle and Lift keeps only its array until `values` is read."""
    built = []
    for cls in (Cochain, BundleCocycle, Lift):
        def record(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(cls, "__init__", record)
    x = complex_by_label("sd1(torus7)")
    z4, z8 = builtin_extension("z4_over_z2"), z8_over_z2()
    add4 = AbelianHom(AbelianGroup((4, 4)), AbelianGroup((4,)), ((1,), (1,)))
    rng = random.Random(12)
    for _ in range(2):
        s4 = random_cocycle(x, z4.base, 3)
        s8 = random_cocycle(x, z8.base, 4)
        obstruction_class(s4, z4)
        obstruction_class(s8, z8)
        hyperbolic_obstruction(s4, z4)
        additivity_check((s4, s4), (z4, z4), fusion_hom_mod2(2))
        additivity_check((s8, s8), (z8, z8), add4)
        for group in (Z2, AbelianGroup((4,))):
            rows = [tuple(rng.randrange(m) for m in group.factors) for _ in range(x.dim_count(1))]
            assert is_coboundary(coboundary(Cochain(x, 1, group, rows))) is not None
    assert {type(obj) for obj in built} == {Cochain, BundleCocycle, Lift}
    for obj in built:
        assert "values" not in vars(obj)
    for obj in built:
        if isinstance(obj, Cochain):
            assert obj.values == tuple(map(tuple, obj.array.tolist()))
        else:
            assert obj.values == tuple(obj.table.tolist())
        assert "values" in vars(obj)


# ------------------------------------------------- failing checks' offenders ----
#
# Every check on the success path tests its whole array with one reduction
# and locates the offender only when it fails; these compare that offender,
# and the message naming it, with a loop.


@pytest.mark.parametrize("label", ("torus7", "klein", "sd1(rp2_6)"))
def test_defect_outside_the_embedded_kernel_names_the_first_one(label):
    # A sound extension cannot have a defect over the identity that is not
    # in the kernel, so the kernel lookup of a copy loses some entries.
    x = complex_by_label(label)
    rng = random.Random(label + "/kernel")
    for name in EXTENSIONS:
        ext = extension(name)
        s = random_cocycle(x, ext.base, rng.randrange(1 << 30))
        section = random_section(ext, rng, normalized=False)
        defects = [raw_defect_element(s, ext, section, *t) for t in x.triangles()]
        for _ in range(3):
            lost = set(rng.sample(sorted(set(defects)), rng.randrange(1, len(set(defects)) + 1)))
            broken = replace(ext)
            table = ext.kernel_index_table.copy()
            table[sorted(lost)] = -1
            broken.__dict__["kernel_index_table"] = table
            want = next(d for d in defects if d in lost)
            with pytest.raises(ValueError) as err:
                obstruction_cocycle(s, broken, Section(broken, section.map))
            assert str(err.value) == f"element {want} is not in the embedded kernel"


@pytest.mark.parametrize("name", EXTENSIONS)
def test_section_off_its_fibers_names_the_first_base_element(name):
    ext = extension(name)
    rng = random.Random(name + "/section")
    for _ in range(10):
        section = list(random_section(ext, rng, normalized=False).map)
        for b in rng.sample(range(ext.base.order), rng.randrange(1, ext.base.order + 1)):
            section[b] = rng.choice([y for y in range(ext.total.order) if ext.projection(y) != b])
        first = next(b for b in range(ext.base.order) if ext.projection(section[b]) != b)
        with pytest.raises(ValueError) as err:
            Section(ext, tuple(section))
        assert str(err.value) == f"section value {section[first]} over {first} is not in the fiber"


@pytest.mark.parametrize("label", ("rp2_6", "torus7", "sd1(klein)"))
def test_additivity_mismatches_match_a_loop(label):
    x = complex_by_label(label)
    rng = random.Random(label + "/additivity")
    mu = fusion_hom_mod2(2)
    seen = set()
    for names in (("z4_over_z2", "z4_over_z2"), ("z4_over_z2", "q8_over_v4"), ("split_z2", "d8_over_v4")):
        exts = tuple(builtin_extension(n) for n in names)
        for k in range(6):
            cocycles = tuple(random_cocycle(x, e.base, rng.randrange(1 << 30)) for e in exts)
            sections = [random_section(e, rng, normalized=False) for e in exts]
            fe = fused_extension(exts, mu, sections)
            # Odd rounds take a stray fused section, even ones the induced one.
            stray = random_section(fe.fused, rng, normalized=rng.random() < 0.5) if k % 2 else None
            report = additivity_check(cocycles, exts, mu, sections=sections, fused_section=stray)
            parts = [raw_defect(s, e, sect) for s, e, sect in zip(cocycles, exts, sections)]
            summed = tuple(mu(p + q) for p, q in zip(*parts))
            fused = raw_defect(product_cocycle(cocycles), fe.fused, stray or fe.section)
            want = tuple(t for t, f, g in zip(x.triangles(), fused, summed) if f != g)
            assert report.summed_cochain.values == summed
            assert report.fused_cochain.values == fused
            assert report.mismatched_triangles == want
            assert report.cochain_equal == (want == ())
            seen.add(want == ())
    assert seen == {True, False}


NOT_INTEGERS = (0.5, 2.0, "1", None, np.float64(1.0))


@pytest.mark.parametrize("bad", NOT_INTEGERS)
def test_elements_that_are_not_integers_are_rejected(bad):
    # astype(np.int64) used to truncate them: [0.5] * n built the identity
    # cocycle, and a string raised numpy's UFuncTypeError.
    x = complex_by_label("torus7")
    edges = x.edges()
    ext = builtin_extension("z4_over_z2")
    with pytest.raises(ValueError) as err:
        BundleCocycle(x, ext.base, [bad] * len(edges))
    assert str(err.value) == f"edge value {bad} is out of range"
    lift = obstruction_class(identity_cocycle(x, ext.base), ext).lift
    for i in (0, 5, len(edges) - 1):
        values = list(lift.values)
        values[i] = bad
        with pytest.raises(ValueError) as err:
            Lift(lift.cocycle, ext, values)
        assert str(err.value) == f"lift value {bad} over edge {edges[i]} is out of range"
    for b in range(ext.base.order):
        section = list(canonical_section(ext).map)
        section[b] = bad
        with pytest.raises(ValueError) as err:
            Section(ext, tuple(section))
        assert str(err.value) == f"section value {bad} over {b} is out of range"


def test_first_bad_element_is_named_whatever_its_kind():
    x = complex_by_label("torus7")
    edges = x.edges()
    ext = builtin_extension("q8_over_v4")
    lift = obstruction_class(identity_cocycle(x, ext.base), ext).lift
    order = ext.total.order
    rng = random.Random(5)
    kinds = (*NOT_INTEGERS, -1, order, 2**70, np.uint64(2**63), np.int64(-order))
    for _ in range(40):
        values = list(lift.values)
        spots = sorted(rng.sample(range(len(edges)), 3))
        for i in spots:
            values[i] = rng.choice(kinds)
        first = spots[0]
        for form in (values, tuple(values)):
            with pytest.raises(ValueError) as err:
                Lift(lift.cocycle, ext, form)
            assert str(err.value) == f"lift value {values[first]} over edge {edges[first]} is out of range"
    # Whole arrays: a float array names its first entry, a uint64 array its
    # first entry at or past 2^63 (which would wrap to a negative int64).
    with pytest.raises(ValueError) as err:
        Lift(lift.cocycle, ext, np.asarray(lift.values, dtype=np.float64))
    assert str(err.value) == f"lift value {float(lift.values[0])} over edge {edges[0]} is out of range"
    wide = np.asarray(lift.values, dtype=np.uint64)
    wide[[4, 9]] = 2**63, 2**64 - 1
    with pytest.raises(ValueError) as err:
        Lift(lift.cocycle, ext, wide)
    assert str(err.value) == f"lift value {2**63} over edge {edges[4]} is out of range"
    assert Lift(lift.cocycle, ext, np.asarray(lift.values, dtype=np.uint64)).values == lift.values


def test_bools_are_elements():
    x = complex_by_label("torus7")
    n = len(x.edges())
    z2 = cyclic_group(2)
    for values in ([False] * n, np.zeros(n, dtype=bool), [np.False_] * n):
        s = BundleCocycle(x, z2, values)
        assert s.values == (0,) * n and s.table.dtype == np.int64
    ext = builtin_extension("z4_over_z2")
    assert Section(ext, (False, True)).table.tolist() == [0, 1]
    with pytest.raises(ValueError, match="edge value True is out of range"):
        BundleCocycle(x, cyclic_group(1), [False] * 3 + [True] * (n - 3))
