"""Finite simplicial complexes standing in for nerves of good covers.

A simplex is a strictly increasing tuple of vertex indices.  A complex
stores, per dimension, the lexicographically sorted tuple of its simplices;
that ordering is the canonical one and fixes matrix column indexing
everywhere else in the package.

`build_complex` works on int64 arrays of vertex rows.  It lists the faces
of the facets by column selection, a bounded chunk of facets at a time, and
puts each dimension in canonical order by sorting one integer key per row:
the index of the row's face without its last vertex, times the vertex
count, plus that vertex.  Beside the tuples, a complex holds one face table
per degree p >= 1 (`SimplicialComplex.face_index`): entry (i, j) is the
index of p-simplex i's face without vertex j.  Coboundary matrices, the
triangle-edge rows and the facet list are read off these tables.

Builtin catalog
---------------
circle   hollow triangle, 3 vertices / 3 edges
sphere2  boundary of the tetrahedron, 4 vertices / 6 edges / 4 triangles
torus7   7-vertex triangulated torus on the complete graph K7; facets are
         the orbits of {0,1,3} and {0,2,3} under v -> v+1 (mod 7)
rp2_6    6-vertex projective plane, the antipodal quotient of the
         icosahedron: the cone over the pentagon (1,2,3,4,5) at vertex 0
         plus the five pentagram triangles {i, i+1, i+3} (indices mod 5,
         shifted into 1..5)
klein    9-vertex Klein bottle from a 3x3 grid square, columns glued
         straight, rows glued with a flip; facet list spelled out below
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import CapExceededError, InternalCheckError

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "build_complex",
    "simplices_of_dim",
    "euler_characteristic",
    "builtin_complex",
    "BUILTIN_COMPLEXES",
    "complex_digest",
    "read_complex",
    "write_complex",
    "MAX_SIMPLICES",
]

Simplex = tuple[int, ...]

# The most simplices a face closure may hold: 2^22, about 77 times the
# 54,432 of sd^4(torus7).  A facet of k vertices has 2^k - 1 faces, so one
# facet of 26 vertices alone asks for 2^26 - 1.
MAX_SIMPLICES = 2**22


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Face-closed finite simplicial complex with canonical per-dimension ordering.

    `simplices` is a read-only view: coboundary matrices, their
    factorizations and cohomology are cached per complex, so the complex
    must not change after it is built.  The face tables (`face_index`) come
    from `build_complex`; a complex made here from its simplices is checked
    to list the face closure of vertices 0..vertex_count-1 in canonical
    order (ValueError otherwise).
    """

    vertex_count: int
    simplices: Mapping[int, tuple[Simplex, ...]]
    facets: tuple[Simplex, ...]
    _index: dict[Simplex, int] = field(repr=False, default_factory=dict)
    _faces: Optional[dict[int, np.ndarray]] = field(repr=False, default=None)

    def __post_init__(self):
        for simps in self.simplices.values():
            self._index.update(zip(simps, range(len(simps))))
        object.__setattr__(self, "simplices", MappingProxyType(dict(self.simplices)))
        if self._faces is None:
            object.__setattr__(self, "_faces", _checked_face_tables(self.simplices, self.vertex_count))

    @property
    def dimension(self) -> int:
        return max(self.simplices) if self.simplices else -1

    def dim_count(self, p: int) -> int:
        return len(self.simplices.get(p, ()))

    def index_of(self, simplex: Simplex) -> int:
        """Position of the simplex in the canonical ordering of its dimension."""
        try:
            return self._index[simplex]
        except KeyError:
            raise KeyError(f"simplex {simplex} is not in the complex") from None

    def __contains__(self, simplex: Simplex) -> bool:
        return tuple(simplex) in self._index

    def edges(self) -> tuple[Simplex, ...]:
        return self.simplices.get(1, ())

    def triangles(self) -> tuple[Simplex, ...]:
        return self.simplices.get(2, ())

    def face_index(self, p: int) -> np.ndarray:
        """Read-only (#p-simplices x (p+1)) int64 table whose entry (i, j) is
        the index of p-simplex i's face without its vertex j; p >= 1."""
        if p < 1:
            raise ValueError(f"face tables start at degree 1, got {p}")
        table = self._faces.get(p)
        if table is None:
            table = np.zeros((0, p + 1), dtype=np.int64)
            table.setflags(write=False)
        return table

    @cached_property
    def triangle_edges(self) -> np.ndarray:
        """Edge rows (ab, bl, al) of each sorted triangle (a, b, l), as a
        read-only T x 3 int64 array in canonical triangle order."""
        rows = self.face_index(2)[:, [2, 0, 1]]
        rows.setflags(write=False)
        return rows


def build_complex(maximal: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Close the given simplices under faces and put everything in canonical order.

    Vertex lists may arrive in any order but repeated vertices are rejected,
    as are a vertex that is not an int or numpy integer and a vertex range
    with gaps (ValueError).  A closure of more than `MAX_SIMPLICES`
    simplices raises CapExceededError: before any face is listed when one
    facet's 2^k - 1 faces alone pass it, otherwise once the running closure
    does.
    """
    raws = list(maximal)
    if not raws:
        raise ValueError("a complex needs at least one simplex")
    try:
        sizes = list(map(len, raws))
    except TypeError:  # a facet given as an iterator
        raws = [r if hasattr(r, "__len__") else tuple(r) for r in raws]
        sizes = list(map(len, raws))

    # One row-sorted array per facet size; the per-facet loop runs only to
    # name the first bad facet.
    widths = sorted(set(sizes))
    blocks, clean = [], True
    for k in widths:
        group = raws if len(widths) == 1 else [r for r, size in zip(raws, sizes) if size == k]
        rows = _vertex_rows(group) if k else None
        if rows is None:
            clean = False
            continue
        rows.sort(axis=1)
        clean &= not ((rows[:, 0] < 0).any() or (rows[:, 1:] == rows[:, :-1]).any())
        blocks.append(rows)
    if not clean:
        for raw in raws:
            _check_facet(raw)
        raise InternalCheckError("a facet failed the array checks but passed the per-facet ones")

    vertex_count = max(int(b[:, -1].max()) for b in blocks) + 1
    if vertex_count > sum(b.size for b in blocks) or not _all_used(blocks, vertex_count):
        vertices = set().union(*(b.ravel().tolist() for b in blocks))
        # The smallest index not used lies in 0..len(vertices).
        first = next(v for v in range(len(vertices) + 1) if v not in vertices)
        raise ValueError(
            f"vertex indices must be contiguous from 0; {vertex_count - len(vertices)} "
            f"of 0..{vertex_count - 1} missing, the first {first}"
        )

    widest = widths[-1]
    if 2**widest - 1 > MAX_SIMPLICES:
        raise CapExceededError(2**widest - 1, MAX_SIMPLICES, f"face closure of a {widest}-vertex facet", "simplices")
    if vertex_count > MAX_SIMPLICES:
        raise CapExceededError(vertex_count, MAX_SIMPLICES, "face closure", "simplices")

    # rows[p]: the distinct p-simplices so far as sorted vertex rows, in
    # canonical order; keys[p]: their sort keys (see _key).  The facets go
    # in chunks that list at most MAX_SIMPLICES faces, so no more are ever
    # listed before duplicates are removed; each chunk is merged in one
    # dimension at a time, and the rows are read back from the keys.
    n = vertex_count
    rows = [np.arange(n, dtype=np.int64).reshape(n, 1)] + [np.empty((0, p + 1), np.int64) for p in range(1, widest)]
    keys: list = [None] * widest
    for chunk in _chunks([b.astype(np.int64, copy=False) for b in blocks], MAX_SIMPLICES):
        for p in range(1, widest):
            listed = [rows[p]]
            for b in chunk:
                if b.shape[1] > p:
                    listed.append(b[:, list(combinations(range(b.shape[1]), p + 1))].reshape(-1, p + 1))
            key = np.sort(_key(np.concatenate(listed), keys, n))
            del listed
            distinct = np.ones(len(key), dtype=bool)
            distinct[1:] = key[1:] != key[:-1]
            keys[p] = key = key[distinct]
            rows[p] = np.column_stack((rows[p - 1][key // n], key % n))
            del key, distinct
        total = sum(map(len, rows))
        if total > MAX_SIMPLICES:
            raise CapExceededError(total, MAX_SIMPLICES, "face closure", "simplices")

    tables = {}
    for p in range(1, widest):
        tables[p] = _face_table(rows[p], keys, tables.get(p - 1), n)
    del keys
    simplices = {p: tuple(map(tuple, r.tolist())) for p, r in enumerate(rows)}
    # A simplex lies in a bigger one exactly when it is a codimension-1
    # face of some simplex of the closure.
    facets = []
    for p, r in enumerate(rows):
        maximal_rows = np.ones(len(r), dtype=bool)
        if p + 1 in tables:
            maximal_rows[tables[p + 1]] = False
        facets.extend(map(simplices[p].__getitem__, np.flatnonzero(maximal_rows).tolist()))
    return SimplicialComplex(vertex_count=n, simplices=simplices, facets=tuple(facets), _faces=tables)


def _vertex_rows(facets: list) -> Optional[np.ndarray]:
    """Facets of one size as a 2-d integer array, or None when a vertex is
    not an int or numpy integer.  Vertices past int64 come back as exact
    Python ints in an object array."""
    try:
        rows = np.array(facets)
    except (ValueError, TypeError):  # a vertex that is itself a sequence
        rows = None
    if rows is not None and rows.ndim == 2 and rows.dtype.kind in "iu":
        return rows
    if not all(isinstance(v, (int, np.integer)) for f in facets for v in f):
        return None
    rows = np.array([list(map(int, f)) for f in facets], dtype=object)
    try:
        return rows.astype(np.int64)
    except OverflowError:
        return rows


def _check_facet(raw) -> None:
    """Raise the ValueError that names what is wrong with one facet, if anything."""
    for v in raw:
        if not isinstance(v, (int, np.integer)):
            raise ValueError(
                f"vertex {v!r} of simplex {raw} is not an integer (a float is not rounded, nor a string parsed)"
            )
    if not len(raw):
        raise ValueError("empty simplex")
    if min(raw) < 0:
        raise ValueError(f"negative vertex in {raw}")
    if len(set(raw)) != len(raw):
        raise ValueError(f"repeated vertex in simplex {raw}")


def _all_used(blocks: list[np.ndarray], vertex_count: int) -> bool:
    """Whether every index in 0..vertex_count-1 is a vertex of some facet."""
    used = np.zeros(vertex_count, dtype=bool)
    for b in blocks:
        used[b] = True
    return bool(used.all())


def _chunks(blocks: list[np.ndarray], budget: int):
    """The facet rows in groups that list at most `budget` faces each,
    counting 2^k - 1 for a k-vertex facet, which must not pass `budget`."""
    chunk, room = [], budget
    for b in blocks:
        per, start = 2 ** b.shape[1] - 1, 0
        while start < len(b):
            take = min(len(b) - start, room // per)
            if not take:
                yield chunk
                chunk, room = [], budget
                continue
            chunk.append(b[start : start + take])
            room -= take * per
            start += take
    yield chunk


def _key(rows: np.ndarray, keys: list, n: int) -> np.ndarray:
    """Sort key of each row, a p-simplex as its sorted vertices, whose
    faces are all ranked in keys[1..p-1]: the index of its face without the
    last vertex, times the vertex count n, plus the last vertex.  A vertex
    is its own key and index.  The keys of one dimension sort as its rows do
    lexicographically.  A chunk merge holds at most 2 * MAX_SIMPLICES
    simplices of a dimension and n <= MAX_SIMPLICES, so keys stay below
    2^45, far from int64 overflow, whatever the vertex count and width."""
    key = rows[:, 0]
    for q in range(1, rows.shape[1]):
        if q > 1:
            key = np.searchsorted(keys[q - 1], key)
        key = key * n + rows[:, q]
    return key


def _face_table(rows: np.ndarray, keys: list, lower: Optional[np.ndarray], n: int) -> np.ndarray:
    """face_index table of the canonically ordered p-simplex rows, p >= 1,
    from the keys and the face table `lower` of degree p - 1.  The face
    without the last vertex is the one the key names; the face without
    vertex j < p is the first one's face without j, plus the last vertex."""
    p = rows.shape[1] - 1
    table = np.empty(rows.shape, dtype=np.int64)
    table[:, p] = keys[p] // n
    if p == 1:
        table[:, 0] = rows[:, 1]
    else:
        sub = lower[table[:, p]] * n + rows[:, p : p + 1]
        table[:, :p] = np.searchsorted(keys[p - 1], sub)
    table.setflags(write=False)
    return table


def _checked_face_tables(simplices: Mapping[int, tuple[Simplex, ...]], vertex_count: int) -> dict[int, np.ndarray]:
    """Face tables of a complex given by its simplices rather than built
    here; raises ValueError unless they are the face closure of vertices
    0..vertex_count-1 in canonical order, as build_complex lists it."""
    if not simplices:
        return {}
    closure = build_complex([s for simps in simplices.values() for s in simps])
    if closure.vertex_count != vertex_count or dict(closure.simplices) != dict(simplices):
        raise ValueError("simplices must be face-closed, in canonical order, on vertices 0..vertex_count-1")
    return closure._faces


def simplices_of_dim(complex_: SimplicialComplex, p: int) -> tuple[Simplex, ...]:
    """Canonically ordered p-simplices; empty outside the complex's range."""
    return complex_.simplices.get(p, ())


def euler_characteristic(complex_: SimplicialComplex) -> int:
    return sum((-1) ** p * len(v) for p, v in complex_.simplices.items())


# ------------------------------------------------------------- builtins ----

_TORUS7_FACETS = tuple(
    tuple(sorted(((0 + i) % 7, (a + i) % 7, (b + i) % 7)))
    for a, b in ((1, 3), (2, 3))
    for i in range(7)
)

_RP2_6_FACETS = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
)

# Vertices 3i+j for row i, column j of the grid.  Columns wrap directly
# (j = 3 means j = 0); the top row is the bottom row traversed backwards
# (row 3, column j is row 0, column -j mod 3), which reverses orientation.
_KLEIN_FACETS = (
    (0, 1, 4), (0, 3, 4), (1, 2, 5), (1, 4, 5), (0, 2, 3), (2, 3, 5),
    (3, 4, 7), (3, 6, 7), (4, 5, 8), (4, 7, 8), (3, 5, 6), (5, 6, 8),
    (2, 6, 7), (0, 2, 6), (1, 7, 8), (1, 2, 7), (0, 6, 8), (0, 1, 8),
)

BUILTIN_COMPLEXES = ("circle", "sphere2", "torus7", "rp2_6", "klein")

_BUILTIN_FACETS = {
    "circle": ((0, 1), (1, 2), (0, 2)),
    "sphere2": ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
    "torus7": _TORUS7_FACETS,
    "rp2_6": _RP2_6_FACETS,
    "klein": _KLEIN_FACETS,
}


@lru_cache(maxsize=None)
def builtin_complex(name: str) -> SimplicialComplex:
    try:
        facets = _BUILTIN_FACETS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin complex {name!r}; choose from {', '.join(BUILTIN_COMPLEXES)}"
        ) from None
    return build_complex(facets)


# ------------------------------------------------------------- file I/O ----


def complex_digest(complex_: SimplicialComplex) -> str:
    """12-hex-digit digest of the canonical simplex listing."""
    # Imported here: hashlib loads OpenSSL, about 3.6 MB of resident memory,
    # which a process that never asks for a digest need not pay.
    import hashlib

    parts = []
    for p in sorted(complex_.simplices):
        for s in complex_.simplices[p]:
            parts.append(",".join(map(str, s)))
    blob = ";".join(parts).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def write_complex(path, complex_: SimplicialComplex) -> None:
    """One maximal simplex per line; # starts a comment line."""
    lines = ["# simplicial complex, one maximal simplex per line"]
    for s in complex_.facets:
        lines.append(" ".join(map(str, s)))
    Path(path).write_text("\n".join(lines) + "\n")


def read_complex(path) -> SimplicialComplex:
    maximal = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            maximal.append([int(tok) for tok in line.split()])
        except ValueError:
            raise ValueError(f"bad complex line {raw!r} in {path}") from None
    return build_complex(maximal)
