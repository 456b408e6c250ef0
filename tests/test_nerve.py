"""Simplicial complex construction, canonical ordering, and the builtins."""

import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cechlift
from cechlift import nerve
from cechlift.coefgroup import Z2
from cechlift.errors import CapExceededError
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


@pytest.mark.parametrize("bad", (1.5, 2.0, "1", np.float64(2.0), None))
def test_build_complex_rejects_a_vertex_that_is_not_an_integer(bad):
    # int() once truncated these to a vertex: (0, 1.5, 2) built (0, 1, 2).
    with pytest.raises(ValueError, match=r"is not an integer.*a float is not rounded") as info:
        build_complex([(0, 1, 3), (0, bad, 2)])
    assert f"of simplex {(0, bad, 2)}" in str(info.value)


def test_build_complex_takes_numpy_integer_vertices():
    x = build_complex([np.array([2, 0, 1], dtype=np.uint8), (np.int64(3), 2)])
    assert x.facets == ((2, 3), (0, 1, 2))
    assert all(type(v) is int for simps in x.simplices.values() for s in simps for v in s)


def test_the_first_bad_facet_is_named():
    # Facets are checked in blocks of one size; the message still names
    # the first bad facet in input order.
    with pytest.raises(ValueError, match=r"negative vertex in \(0, -1\)"):
        build_complex([(0, 1, 2), (0, -1), (1.5, 0, 1), ()])
    with pytest.raises(ValueError, match="empty simplex"):
        build_complex([(0, 1, 2), (), (0, -1)])


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


MIXED = [(0, 1, 2, 3), (3, 4, 5), (5, 6), (7,), (1, 2)]


@pytest.mark.parametrize("label", (*LABELS, "mixed"))
def test_face_tables_name_each_face(label):
    x = build_complex(MIXED) if label == "mixed" else complex_by_label(label)
    for p in range(1, x.dimension + 3):
        table = x.face_index(p)
        assert table.dtype == np.int64 and not table.flags.writeable
        assert table.shape == (x.dim_count(p), p + 1)
        want = [[x.index_of(s[:j] + s[j + 1 :]) for j in range(p + 1)] for s in simplices_of_dim(x, p)]
        assert table.tolist() == want
        if table.size:
            with pytest.raises(ValueError):
                table[0, 0] = 0
    with pytest.raises(ValueError):
        x.face_index(0)


@pytest.mark.parametrize("label", (*LABELS, "mixed"))
def test_triangle_edges_match_the_per_triangle_lookup(label):
    x = build_complex(MIXED) if label == "mixed" else complex_by_label(label)
    want = [[x.index_of((a, b)), x.index_of((b, l)), x.index_of((a, l))] for a, b, l in x.triangles()]
    got = x.triangle_edges
    assert got.dtype == np.int64 and not got.flags.writeable and got.shape == (len(want), 3)
    assert got.tolist() == want


def test_a_complex_given_by_its_simplices_must_be_its_canonical_closure():
    good = {0: ((0,), (1,), (2,)), 1: ((0, 1), (0, 2), (1, 2)), 2: ((0, 1, 2),)}
    x = SimplicialComplex(vertex_count=3, simplices=good, facets=((0, 1, 2),))
    assert x.triangle_edges.tolist() == [[0, 2, 1]]
    for bad, vertex_count in (
        ({**good, 1: ((0, 1), (0, 2))}, 3),  # an edge of the triangle missing
        ({**good, 1: ((0, 2), (0, 1), (1, 2))}, 3),  # not in canonical order
        (good, 4),  # vertex 3 missing
    ):
        with pytest.raises(ValueError, match="face-closed"):
            SimplicialComplex(vertex_count=vertex_count, simplices=bad, facets=((0, 1, 2),))


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


# --------------------------------------------------- input too big to build ----


def _cli_under_a_gigabyte(tmp_path, line):
    """`cechlift cohomology` on a one-line .cplx file, in a child process
    whose address space is capped at 1 GiB, so an input that makes the
    build run away fails the test instead of exhausting the machine."""
    path = tmp_path / "one.cplx"
    path.write_text(line + "\n")
    src = str(Path(cechlift.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "cechlift.cli", "cohomology", "--complex", str(path), "-p", "1", "-k", "Z2"],
        capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120,
    )


def test_a_huge_vertex_index_exits_2(tmp_path):
    # The gap check listed every missing index, 10^20 of them here.
    proc = _cli_under_a_gigabyte(tmp_path, "0 1 99999999999999999999")
    assert proc.returncode == 2, proc.stderr
    assert "contiguous from 0" in proc.stderr and "the first 2" in proc.stderr


def test_a_facet_with_too_many_faces_exits_3(tmp_path):
    # 2^26 - 1 faces, refused before any is listed.
    proc = _cli_under_a_gigabyte(tmp_path, " ".join(map(str, range(26))))
    assert proc.returncode == 3, proc.stderr
    assert "CapExceededError" in proc.stderr and str(2**26 - 1) in proc.stderr


def test_vertex_gaps_are_named_by_the_first_and_the_count():
    with pytest.raises(ValueError, match=r"2 of 0\.\.4 missing, the first 1"):
        build_complex([(0, 2), (2, 4)])
    with pytest.raises(ValueError, match=f"{10**20 - 2} of 0\\.\\.{10**20} missing, the first 2"):
        build_complex([(0, 1, 10**20)])


def test_face_closure_is_capped(monkeypatch):
    with pytest.raises(CapExceededError):
        build_complex([range(23)])
    # Each torus7 facet has 7 faces, below this cap; the closure of all 14
    # passes it once enough facets are in.
    monkeypatch.setattr(nerve, "MAX_SIMPLICES", 10)
    with pytest.raises(CapExceededError):
        builtin_complex.__wrapped__("torus7")


def test_the_cap_counts_distinct_faces(monkeypatch):
    monkeypatch.setattr(nerve, "MAX_SIMPLICES", 1000)
    # 400 distinct triangles on 402 vertices: 1,603 simplices.
    with pytest.raises(CapExceededError):
        build_complex([(0, 1, k) for k in range(2, 402)])
    # 70,000 faces listed but 7 distinct: the cap is checked after
    # duplicates are removed.
    x = build_complex([(2, 0, 1)] * 10_000)
    assert dict(x.simplices) == {0: ((0,), (1,), (2,)), 1: ((0, 1), (0, 2), (1, 2)), 2: ((0, 1, 2),)}
    assert x.facets == ((0, 1, 2),)


def test_the_cap_leaves_room_for_the_nerves_in_use():
    for name in BUILTIN_COMPLEXES:
        assert builtin_complex.__wrapped__(name).simplices == builtin_complex(name).simplices
    x = complex_by_label("sd3(torus7)")
    assert [x.dim_count(p) for p in range(3)] == [1512, 4536, 3024]
    assert sum(map(len, x.simplices.values())) < nerve.MAX_SIMPLICES
