"""Cochains, coboundaries, and cohomology against exhaustive oracles."""

import random
from itertools import product

import numpy as np
import pytest

from cechlift import cochain
from cechlift.coefgroup import AbelianGroup, Z2
from cechlift.cochain import (
    Cochain,
    _coboundary_factor,
    classes_equal,
    coboundary,
    coboundary_matrix,
    cohomology,
    enumerate_classes,
    is_coboundary,
    is_cocycle,
    read_cochain,
    write_cochain,
    zero_cochain,
)
from cechlift.errors import CapExceededError
from cechlift.linalg import GfpSpan
from cechlift.nerve import BUILTIN_COMPLEXES, build_complex, builtin_complex, simplices_of_dim
from cechlift.obstruct import mobius_cocycle
from gfp_reference import solve_mod_p_reference
from oracles import cohomology_dim_gf2, cohomology_dim_mod_p, gf2_span
from subdivision import LABELS, complex_by_label

Z4 = AbelianGroup((4,))
Z6 = AbelianGroup((6,))
P31 = 2**31 - 1
Z_P31 = AbelianGroup((P31,))

GF2_DIMS = {
    "circle": (1, 1, 0),
    "sphere2": (1, 0, 1),
    "torus7": (1, 2, 1),
    "rp2_6": (1, 1, 1),
    "klein": (1, 2, 1),
}


def _random_cochain(rng, x, degree, group):
    values = tuple(
        tuple(rng.randrange(n) for n in group.factors) for _ in range(x.dim_count(degree))
    )
    return Cochain(x, degree, group, values)


def test_cochain_validation():
    x = builtin_complex("circle")
    with pytest.raises(ValueError):
        Cochain(x, 1, Z2, ((0,), (1,)))
    with pytest.raises(ValueError):
        Cochain(x, 1, Z2, ((0,), (2,), (0,)))


def test_cochain_rejects_bad_values_with_the_group_check_message():
    x = builtin_complex("circle")
    g = AbelianGroup((2, 4))
    for values in ((0, 1, 0), ((0, 1), (1, 1), (1,)), ((0, 1), (1, 1, 0), (1, 0))):
        with pytest.raises(ValueError):
            Cochain(x, 1, g, values)
    for bad in ((2, 0), (0, 4), (-1, 0), (0, 2**70)):
        values = ((0, 1), bad, (1, 9))
        with pytest.raises(ValueError) as err:
            Cochain(x, 1, g, values)
        assert str(err.value) == f"element {bad} out of range for factors (2, 4)"
    with pytest.raises(ValueError):
        Cochain(x, 1, g, np.array([[0, 1], [1, 4], [0, 0]]))


def _first_bad_row(rows, factors):
    for row in rows:
        if any(not 0 <= int(v) < n for v, n in zip(row, factors)):
            return tuple(int(v) for v in row)
    return None


@pytest.mark.parametrize("dtype", (np.int64, np.int32, np.int8, np.uint64, np.uint8))
def test_array_range_test_names_the_first_bad_row(dtype):
    # One unsigned comparison tests every entry; a rejected array raises
    # AbelianGroup.check's message for its first bad row, as a loop would.
    x = builtin_complex("torus7")
    g = AbelianGroup((2, 4))
    n = x.dim_count(1)
    rng = random.Random(str(dtype))
    info = np.iinfo(dtype)
    bad_values = [v for v in (-1, -4, 2, 4, 2**31 - 1, 2**63, 2**64 - 1, info.min, info.max)
                  if info.min <= v <= info.max and v not in (0, 1)]
    for _ in range(20):
        rows = np.array([[rng.randrange(2), rng.randrange(4)] for _ in range(n)], dtype=dtype)
        assert Cochain(x, 1, g, rows).array.tolist() == rows.astype(np.int64).tolist()
        for _ in range(rng.randrange(1, 3)):
            rows[rng.randrange(n), rng.randrange(2)] = rng.choice(bad_values)
        want = _first_bad_row(rows.tolist(), g.factors)
        if want is None:  # a wrapped-in value that happens to fit, e.g. 2 in the Z4 column
            continue
        with pytest.raises(ValueError) as err:
            Cochain(x, 1, g, rows)
        assert str(err.value) == f"element {want} out of range for factors (2, 4)"


def test_array_range_test_edge_values():
    x = builtin_complex("circle")
    g = AbelianGroup((2, 4))
    top = AbelianGroup((P31,))
    # The largest residue of the largest factor passes, one more does not.
    assert Cochain(x, 1, top, np.full((3, 1), P31 - 1)).array[0, 0] == P31 - 1
    with pytest.raises(ValueError, match=f"element \\({P31},\\) out of range"):
        Cochain(x, 1, top, np.full((3, 1), P31))
    # uint64 entries at and past 2^63 view as negative int64; both are rejected.
    for big in (2**63, 2**63 + 1, 2**64 - 1):
        rows = np.array([[0, 1], [1, 3], [1, big]], dtype=np.uint64)
        with pytest.raises(ValueError) as err:
            Cochain(x, 1, g, rows)
        assert str(err.value) == f"element (1, {big}) out of range for factors (2, 4)"
    rows = np.array([[0, 1], [-1, 0], [0, -2]], dtype=np.int64)
    with pytest.raises(ValueError) as err:
        Cochain(x, 1, g, rows)
    assert str(err.value) == "element (-1, 0) out of range for factors (2, 4)"
    # Bools are integers 0 and 1.
    flags = np.array([[True, False], [False, True], [True, True]])
    assert Cochain(x, 1, g, flags).array.tolist() == [[1, 0], [0, 1], [1, 1]]
    assert Cochain(x, 1, g, flags).array.dtype == np.int64


@pytest.mark.parametrize("bad", (0.5, 2.0, np.float64(1.0), "1", None))
def test_cochain_rejects_values_that_are_not_integers(bad):
    x = builtin_complex("circle")
    g = AbelianGroup((2, 4))
    values = ((0, 1), (1, bad), (1, 3))
    with pytest.raises(ValueError) as err:
        Cochain(x, 1, g, values)
    assert str(err.value) == f"element {(1, bad)!r} is not a residue tuple for factors (2, 4)"
    with pytest.raises(ValueError, match="is not a residue tuple"):
        Cochain(x, 1, g, np.array([[0, 1], [1, 1], [1, 3]], dtype=np.float64))


def test_cochain_from_an_array_equals_the_tuple_one():
    x = builtin_complex("torus7")
    g = AbelianGroup((2, 4))
    f = _random_cochain(random.Random(3), x, 1, g)
    again = Cochain(x, 1, g, np.array(f.values, dtype=np.int64))
    assert again == f and hash(again) == hash(f)
    assert again.values == f.values
    assert all(type(v) is int for row in again.values for v in row)
    assert not again.array.flags.writeable
    empty = Cochain(x, 1, AbelianGroup(()), ((),) * x.dim_count(1))
    assert empty.values == ((),) * x.dim_count(1) and empty.array.shape == (x.dim_count(1), 0)


def test_cochain_arithmetic():
    x = builtin_complex("torus7")
    g = AbelianGroup((2, 4))
    rng = random.Random(0)
    for _ in range(25):
        f = _random_cochain(rng, x, 1, g)
        h = _random_cochain(rng, x, 1, g)
        assert (f + h) - h == f
        assert (f + (-f)).is_zero()
        assert zero_cochain(x, 1, g).is_zero()
        total = f + h
        for v, fv, hv in zip(total.values, f.values, h.values):
            assert v == g.add(fv, hv)


def test_cochain_mixing_rejected():
    a = builtin_complex("circle")
    b = builtin_complex("sphere2")
    f = zero_cochain(a, 1, Z2)
    with pytest.raises(ValueError):
        f + zero_cochain(b, 1, Z2)
    with pytest.raises(ValueError):
        f + zero_cochain(a, 0, Z2)
    with pytest.raises(ValueError):
        f + zero_cochain(a, 1, Z4)


@pytest.mark.parametrize("name", BUILTIN_COMPLEXES)
def test_coboundary_matrix_shapes(name):
    x = builtin_complex(name)
    for p in range(3):
        mat = coboundary_matrix(x, p)
        assert mat.shape == (x.dim_count(p + 1), x.dim_count(p))


@pytest.mark.parametrize("label", (*LABELS, "mixed"))
def test_coboundary_matrix_matches_the_per_entry_build(label):
    # The matrix is built with one scatter; this is the per-entry loop it
    # replaced, face j of each simplex at sign (-1)^j.  "mixed" has facets
    # of every dimension 0..3, and the degrees run past the top one.
    if label == "mixed":
        x = build_complex([(0, 1, 2, 3), (3, 4, 5), (5, 6), (7,), (1, 2)])
    else:
        x = complex_by_label(label)
    for p in range(-1, x.dimension + 2):
        rows, cols = simplices_of_dim(x, p + 1), simplices_of_dim(x, p)
        want = np.zeros((len(rows), len(cols)), dtype=np.int64)
        if cols:
            for i, s in enumerate(rows):
                for j in range(len(s)):
                    want[i, x.index_of(s[:j] + s[j + 1 :])] = (-1) ** j
        got = coboundary_matrix(x, p)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", BUILTIN_COMPLEXES)
def test_coboundary_squares_to_zero(name):
    x = builtin_complex(name)
    rng = random.Random(1)
    for _ in range(10):
        f = _random_cochain(rng, x, 0, Z6)
        assert coboundary(coboundary(f)).is_zero()


@pytest.mark.parametrize("name", BUILTIN_COMPLEXES)
def test_coboundary_matrix_is_read_only(name):
    x = builtin_complex(name)
    rng = random.Random(5)
    f = coboundary(_random_cochain(rng, x, 0, Z2))
    witness = is_coboundary(f)
    for p in range(3):
        mat = coboundary_matrix(x, p)
        assert not mat.flags.writeable
        if mat.size:
            with pytest.raises(ValueError):
                mat[0, 0] = 5
    assert is_coboundary(f) == witness
    assert coboundary(witness) == f


def test_degree_zero_cocycles_are_constants():
    x = builtin_complex("circle")
    constant = Cochain(x, 0, Z2, ((1,), (1,), (1,)))
    assert is_cocycle(constant)
    bumped = Cochain(x, 0, Z2, ((1,), (0,), (0,)))
    assert not is_cocycle(bumped)


def test_is_coboundary_exhaustive_on_circle_degree_one():
    x = builtin_complex("circle")
    cob_set = set()
    for assign in product((0, 1), repeat=3):
        f = Cochain(x, 0, Z2, tuple((v,) for v in assign))
        cob_set.add(coboundary(f).values)
    assert len(cob_set) == 4
    for combo in product((0, 1), repeat=3):
        f = Cochain(x, 1, Z2, tuple((v,) for v in combo))
        witness = is_coboundary(f)
        assert (witness is not None) == (f.values in cob_set)
        if witness is not None:
            assert coboundary(witness).values == f.values


def test_is_coboundary_exhaustive_on_rp2_degree_two():
    x = builtin_complex("rp2_6")
    n_tri = x.dim_count(2)
    mat = coboundary_matrix(x, 1)
    generators = []
    for j in range(x.dim_count(1)):
        bits = 0
        for i in range(n_tri):
            if int(mat[i, j]) % 2:
                bits |= 1 << i
        generators.append(bits)
    image = gf2_span(generators)
    assert len(image) == 512
    for mask in range(1 << n_tri):
        values = tuple(((mask >> i) & 1,) for i in range(n_tri))
        f = Cochain(x, 2, Z2, values)
        witness = is_coboundary(f)
        assert (witness is not None) == (mask in image)
        if witness is not None:
            assert coboundary(witness).values == f.values


def _reference_witness(f, m):
    b = [v[0] for v in f.values]
    x = solve_mod_p_reference(coboundary_matrix(f.base, f.degree - 1), b, m)
    return None if x is None else [int(t) for t in x]


def test_is_coboundary_exact_with_the_largest_prime_coefficients():
    # Values near 2^31 make every product in T b large, so an int64
    # overflow there would show as a witness that differs or fails.
    x = builtin_complex("torus7")
    rng = random.Random(17)
    for degree in (1, 2):
        f = coboundary(_random_cochain(rng, x, degree - 1, Z_P31))
        witness = is_coboundary(f)
        assert witness is not None
        assert coboundary(witness) == f
        assert [v[0] for v in witness.values] == _reference_witness(f, P31)
    # H^2(torus; Z_p) = Z_p, and one triangle carrying 1 generates it.
    f = Cochain(x, 2, Z_P31, ((1,),) + ((0,),) * (x.dim_count(2) - 1))
    assert is_coboundary(f) is None
    assert _reference_witness(f, P31) is None


@pytest.mark.parametrize("group", (Z2, AbelianGroup((3,)), Z4, AbelianGroup((2, 4))), ids=lambda g: g.format())
def test_cold_and_warm_witnesses_agree(group):
    x = complex_by_label("sd1(rp2_6)")
    rng = random.Random(23)
    f = coboundary(_random_cochain(rng, x, 1, group))
    _coboundary_factor.cache_clear()
    cold = is_coboundary(f)
    assert cold is not None and coboundary(cold) == f
    assert [is_coboundary(f) for _ in range(3)] == [cold] * 3
    if group.factors[0] == 2:
        assert [v[0] for v in cold.values] == _reference_witness(f, 2)


def test_mobius_edge_vector_is_a_nonbounding_cocycle():
    x = builtin_complex("rp2_6")
    s = mobius_cocycle()
    f = Cochain(x, 1, Z2, tuple((v,) for v in s.values))
    assert is_cocycle(f)
    assert is_coboundary(f) is None
    cob_set = set()
    for assign in product((0, 1), repeat=x.vertex_count):
        g = Cochain(x, 0, Z2, tuple((v,) for v in assign))
        cob_set.add(coboundary(g).values)
    assert len(cob_set) == 32
    assert f.values not in cob_set


@pytest.mark.parametrize("name", BUILTIN_COMPLEXES)
def test_gf2_dimensions_match_oracle(name):
    x = builtin_complex(name)
    for p in range(3):
        space = cohomology(x, p, Z2)
        assert space.dimension == cohomology_dim_gf2(x, p) == GF2_DIMS[name][p]
        assert space.invariant_factors == (2,) * space.dimension


def test_mod_four_invariant_factors_separate_the_surfaces():
    assert cohomology(builtin_complex("torus7"), 1, Z4).invariant_factors == (4, 4)
    assert cohomology(builtin_complex("klein"), 1, Z4).invariant_factors == (2, 4)
    assert cohomology(builtin_complex("rp2_6"), 1, Z4).invariant_factors == (2,)


def test_composite_coefficients_against_per_prime_oracle():
    torus = builtin_complex("torus7")
    klein = builtin_complex("klein")
    assert cohomology_dim_mod_p(torus, 1, 2) == 2
    assert cohomology_dim_mod_p(torus, 1, 3) == 2
    assert cohomology(torus, 1, Z6).invariant_factors == (6, 6)
    assert cohomology_dim_mod_p(klein, 1, 2) == 2
    assert cohomology_dim_mod_p(klein, 1, 3) == 1
    space = cohomology(klein, 1, Z6)
    assert space.invariant_factors == (2, 6)
    assert space.order == 4 * 3


@pytest.mark.parametrize("name", BUILTIN_COMPLEXES)
def test_degree_zero_and_out_of_range(name):
    x = builtin_complex(name)
    for m in (2, 4, 6):
        coeffs = AbelianGroup((m,))
        assert cohomology(x, 0, coeffs).invariant_factors == (m,)
    assert cohomology(x, 3, Z2).invariant_factors == ()
    assert cohomology(x, 9, Z2).invariant_factors == ()
    with pytest.raises(ValueError):
        cohomology(x, -1, Z2)


def test_basis_representatives():
    x = builtin_complex("torus7")
    space = cohomology(x, 1, Z2)
    assert len(space.basis) == 2
    for rep in space.basis:
        assert is_cocycle(rep)
        assert is_coboundary(rep) is None
    combined = space.basis[0] + space.basis[1]
    assert is_coboundary(combined) is None


def test_a_cold_top_degree_basis_inserts_only_its_classes(monkeypatch):
    # With no solve before it, the basis still works in the quotient by the
    # image of delta^1: one insert per class, not one per edge.
    x = build_complex(complex_by_label("sd1(torus7)").facets)
    inserts = []
    true_insert = GfpSpan.insert

    def counted(self, vec):
        inserts.append(vec)
        return true_insert(self, vec)

    monkeypatch.setattr(GfpSpan, "insert", counted)
    space = cohomology(x, 2, Z2)
    assert space.dimension == 1
    assert len(inserts) == space.dimension


def test_enumerate_classes():
    circle = builtin_complex("circle")
    classes = enumerate_classes(circle, 1, Z2)
    assert len(classes) == 2
    assert classes[0].representative.is_zero()
    assert classes[0].is_trivial()
    assert not classes[1].is_trivial()
    assert not classes[0].same_class_as(classes[1])
    torus = builtin_complex("torus7")
    assert len(enumerate_classes(torus, 1, Z2)) == 4
    with pytest.raises(CapExceededError):
        enumerate_classes(torus, 1, Z2, cap=3)
    with pytest.raises(ValueError):
        enumerate_classes(torus, 1, Z6)


def test_classes_equal_up_to_coboundary():
    x = builtin_complex("torus7")
    rng = random.Random(2)
    base = cohomology(x, 1, Z4).basis
    assert base is None
    f = zero_cochain(x, 1, Z4)
    for _ in range(20):
        g = _random_cochain(rng, x, 0, Z4)
        shifted = f + coboundary(g)
        assert classes_equal(f, shifted)
    one_edge = tuple(((1,) if i == 0 else (0,)) for i in range(x.dim_count(1)))
    bad = Cochain(x, 1, Z2, one_edge)
    assert not is_cocycle(bad)
    with pytest.raises(ValueError):
        classes_equal(bad, zero_cochain(x, 1, Z2))


def test_classes_equal_on_equal_cochains_needs_no_solve(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return is_coboundary(f)

    monkeypatch.setattr(cochain, "is_coboundary", counted)
    x = builtin_complex("rp2_6")
    rng = random.Random(7)
    for group in (Z2, Z4, AbelianGroup((2, 4))):
        f = coboundary(_random_cochain(rng, x, 1, group))
        assert classes_equal(f, f)
        assert classes_equal(f, Cochain(x, 2, group, f.array.copy()))
        assert calls == []
        # A coboundary is in the zero class; unless it is zero, that takes a solve.
        assert classes_equal(f, zero_cochain(x, 2, group))
        assert len(calls) == (0 if f.is_zero() else 1)
        calls.clear()
    # Equal arrays are no excuse to skip the checks.
    one_edge = Cochain(x, 1, Z2, tuple(((1,) if i == 0 else (0,)) for i in range(x.dim_count(1))))
    with pytest.raises(ValueError, match="first argument is not a cocycle"):
        classes_equal(one_edge, one_edge)
    z2 = zero_cochain(x, 1, Z2)
    with pytest.raises(ValueError, match="cochain degree or coefficients mismatch"):
        classes_equal(z2, Cochain(x, 1, Z4, z2.array))
    with pytest.raises(ValueError, match="cochain degree or coefficients mismatch"):
        classes_equal(zero_cochain(x, 0, Z2), zero_cochain(x, 1, Z2))
    with pytest.raises(ValueError, match="cochains live on different complexes"):
        classes_equal(zero_cochain(builtin_complex("sphere2"), 1, Z2), z2)
    assert calls == []


def test_cochain_file_round_trip(tmp_path):
    x = builtin_complex("rp2_6")
    rng = random.Random(3)
    f = _random_cochain(rng, x, 1, AbelianGroup((2, 4)))
    path = tmp_path / "f.coch"
    write_cochain(path, f)
    g = read_cochain(path, x)
    assert g.values == f.values
    assert g.degree == 1
    assert g.group == f.group
    text = path.read_text()
    for again in ("0 1  0 0", "0 1  " + " ".join(map(str, f.values[0]))):
        path.write_text(text + again + "\n")
        with pytest.raises(ValueError, match=f"simplex \\(0, 1\\) a second time, in line '{again}'"):
            read_cochain(path, x)


def test_cochain_file_digest_guard(tmp_path):
    x = builtin_complex("circle")
    f = zero_cochain(x, 1, Z2)
    path = tmp_path / "f.coch"
    write_cochain(path, f)
    with pytest.raises(ValueError):
        read_cochain(path, builtin_complex("sphere2"))
