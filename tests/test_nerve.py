"""Simplicial complex construction, canonical ordering, and the builtins."""

import random

import pytest

from cechlift.coefgroup import Z2
from cechlift.cochain import Cochain, coboundary, is_coboundary
from cechlift.nerve import (
    BUILTIN_COMPLEXES,
    SimplicialComplex,
    build_complex,
    builtin_complex,
    complex_digest,
    euler_characteristic,
    read_complex,
    simplices_of_dim,
    write_complex,
)
from subdivision import LABELS, complex_by_label

COUNTS = {
    "circle": (3, 3, 0),
    "sphere2": (4, 6, 4),
    "torus7": (7, 21, 14),
    "rp2_6": (6, 15, 10),
    "klein": (9, 27, 18),
}
EULER = {"circle": 0, "sphere2": 2, "torus7": 0, "rp2_6": 1, "klein": 0}
SURFACES = ("sphere2", "torus7", "rp2_6", "klein")


@pytest.mark.parametrize("name", BUILTIN_COMPLEXES)
def test_builtin_counts(name):
    x = builtin_complex(name)
    nv, ne, nt = COUNTS[name]
    assert x.vertex_count == nv
    assert x.dim_count(0) == nv
    assert x.dim_count(1) == ne
    assert x.dim_count(2) == nt
    assert len(x.edges()) == ne
    assert len(x.triangles()) == nt


@pytest.mark.parametrize("name", BUILTIN_COMPLEXES)
def test_euler_characteristic(name):
    x = builtin_complex(name)
    assert euler_characteristic(x) == EULER[name]
    alternating = sum((-1) ** p * x.dim_count(p) for p in range(x.dimension + 1))
    assert alternating == EULER[name]


@pytest.mark.parametrize("name", BUILTIN_COMPLEXES)
def test_face_closure_and_ordering(name):
    x = builtin_complex(name)
    for p in range(x.dimension + 1):
        sims = simplices_of_dim(x, p)
        assert list(sims) == sorted(sims)
        for s in sims:
            assert list(s) == sorted(s)
            if p > 0:
                for j in range(len(s)):
                    assert s[:j] + s[j + 1 :] in x


@pytest.mark.parametrize("name", SURFACES)
def test_closed_surface_edge_incidence(name):
    x = builtin_complex(name)
    for a, b in x.edges():
        hits = [t for t in x.triangles() if a in t and b in t]
        assert len(hits) == 2, f"edge ({a}, {b}) lies in {len(hits)} triangles"


def test_circle_vertex_incidence():
    x = builtin_complex("circle")
    for v in range(x.vertex_count):
        assert sum(1 for e in x.edges() if v in e) == 2


def test_out_of_range_degrees():
    x = builtin_complex("sphere2")
    assert simplices_of_dim(x, 3) == ()
    assert simplices_of_dim(x, 7) == ()
    assert x.dim_count(5) == 0


def test_build_complex_rejects_bad_input():
    with pytest.raises(ValueError):
        build_complex([()])
    with pytest.raises(ValueError):
        build_complex([(0, 0, 1)])
    with pytest.raises(ValueError):
        build_complex([(-1, 2)])
    with pytest.raises(ValueError):
        build_complex([(0, 2)])
    with pytest.raises(ValueError):
        build_complex([])


def test_build_complex_normalizes_vertex_order():
    x = build_complex([(2, 0, 1)])
    assert x.triangles() == ((0, 1, 2),)
    assert x.edges() == ((0, 1), (0, 2), (1, 2))


def _facets_by_pairwise_rule(x):
    # The direct rule: a simplex is maximal when no simplex one dimension
    # up contains it.
    top = set()
    for p, simps in x.simplices.items():
        for s in simps:
            if not any(set(s) < set(t) for t in x.simplices.get(p + 1, ())):
                top.add(s)
    return tuple(sorted(top, key=lambda s: (len(s), s)))


@pytest.mark.parametrize("label", (*LABELS, "sd2(rp2_6)", "sd2(torus7)"))
def test_facets_match_the_pairwise_rule(label):
    x = complex_by_label(label)
    assert x.facets == _facets_by_pairwise_rule(x)


def test_facets_of_a_mixed_dimension_complex():
    # A tetrahedron, a triangle and a dangling edge hanging off it, an
    # isolated vertex, and a listed simplex that is not maximal.
    x = build_complex([(0, 1, 2, 3), (3, 4, 5), (5, 6), (7,), (1, 2)])
    expected = ((7,), (5, 6), (3, 4, 5), (0, 1, 2, 3))
    assert x.facets == expected
    assert x.facets == _facets_by_pairwise_rule(x)
    assert build_complex(expected).simplices == x.simplices


def test_simplices_are_read_only():
    x = build_complex(builtin_complex("torus7").facets)
    rng = random.Random(3)
    g = Cochain(x, 1, Z2, tuple((rng.randrange(2),) for _ in range(x.dim_count(1))))
    f = coboundary(g)
    witness = is_coboundary(f)
    with pytest.raises(TypeError):
        x.simplices[1] = ()
    with pytest.raises(TypeError):
        del x.simplices[2]
    assert x.dim_count(1) == 21 and x.dim_count(2) == 14
    assert is_coboundary(f) == witness
    assert coboundary(witness) == f


def test_complex_keeps_its_own_copy_of_the_simplex_table():
    table = {0: ((0,), (1,)), 1: ((0, 1),)}
    x = SimplicialComplex(vertex_count=2, simplices=table, facets=((0, 1),))
    table[1] = ()
    assert x.edges() == ((0, 1),)


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin_complex("dodecahedron")


def test_digests_distinct_and_stable():
    digests = {name: complex_digest(builtin_complex(name)) for name in BUILTIN_COMPLEXES}
    assert len(set(digests.values())) == len(BUILTIN_COMPLEXES)
    rebuilt = build_complex(builtin_complex("torus7").facets)
    assert complex_digest(rebuilt) == digests["torus7"]


@pytest.mark.parametrize("name", BUILTIN_COMPLEXES)
def test_file_round_trip(name, tmp_path):
    x = builtin_complex(name)
    path = tmp_path / f"{name}.cplx"
    write_complex(path, x)
    y = read_complex(path)
    assert complex_digest(y) == complex_digest(x)
    assert y.simplices == x.simplices


def test_read_complex_tolerates_comments(tmp_path):
    path = tmp_path / "c.cplx"
    path.write_text("# a hollow triangle\n\n0 1\n1 2\n0 2\n")
    x = read_complex(path)
    assert complex_digest(x) == complex_digest(builtin_complex("circle"))


def test_read_complex_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cplx"
    path.write_text("0 one 2\n")
    with pytest.raises(ValueError):
        read_complex(path)
