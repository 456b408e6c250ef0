"""Finite simplicial complexes standing in for nerves of good covers.

A simplex is a strictly increasing tuple of vertex indices.  A complex
stores, per dimension, the lexicographically sorted tuple of its simplices;
that ordering is the canonical one and fixes matrix column indexing
everywhere else in the package.

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
from typing import Iterable, Mapping, Sequence

import numpy as np

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
]

Simplex = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Face-closed finite simplicial complex with canonical per-dimension ordering.

    `simplices` is a read-only view: coboundary matrices, their
    factorizations and cohomology are cached per complex, so the complex
    must not change after it is built.
    """

    vertex_count: int
    simplices: Mapping[int, tuple[Simplex, ...]]
    facets: tuple[Simplex, ...]
    _index: dict[Simplex, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        for p, simps in self.simplices.items():
            for i, s in enumerate(simps):
                self._index[s] = i
        object.__setattr__(self, "simplices", MappingProxyType(dict(self.simplices)))

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

    @cached_property
    def triangle_edges(self) -> np.ndarray:
        """Edge rows (ab, bl, al) of each sorted triangle (a, b, l), as a
        read-only T x 3 int64 array in canonical triangle order."""
        index = self._index
        rows = np.array(
            [(index[(a, b)], index[(b, l)], index[(a, l)]) for a, b, l in self.triangles()],
            dtype=np.int64,
        ).reshape(-1, 3)
        rows.setflags(write=False)
        return rows


def build_complex(maximal: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Close the given simplices under faces and put everything in canonical order.

    Vertex lists may arrive in any order but repeated vertices are rejected,
    as is a vertex range with gaps.
    """
    facets_in: list[Simplex] = []
    for raw in maximal:
        verts = [int(v) for v in raw]
        if not verts:
            raise ValueError("empty simplex")
        if any(v < 0 for v in verts):
            raise ValueError(f"negative vertex in {raw}")
        s = tuple(sorted(verts))
        if len(set(s)) != len(s):
            raise ValueError(f"repeated vertex in simplex {raw}")
        facets_in.append(s)
    if not facets_in:
        raise ValueError("a complex needs at least one simplex")

    closure: set[Simplex] = set()
    for s in facets_in:
        for k in range(1, len(s) + 1):
            closure.update(combinations(s, k))

    by_dim: dict[int, list[Simplex]] = {}
    for s in closure:
        by_dim.setdefault(len(s) - 1, []).append(s)
    simplices = {p: tuple(sorted(v)) for p, v in sorted(by_dim.items())}

    vertices = {s[0] for s in simplices[0]}
    vertex_count = max(vertices) + 1
    if len(vertices) != vertex_count:
        missing = sorted(set(range(vertex_count)) - vertices)
        raise ValueError(f"vertex indices must be contiguous from 0; missing {missing}")

    # The closure is face-closed, so a simplex lies in a bigger one exactly
    # when it is a codimension-1 face of some simplex of the closure.
    inner = {s[:j] + s[j + 1 :] for s in closure if len(s) > 1 for j in range(len(s))}
    facets = tuple(sorted(closure - inner, key=lambda s: (len(s), s)))
    return SimplicialComplex(vertex_count=vertex_count, simplices=simplices, facets=facets)


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
