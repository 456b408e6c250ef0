"""Input generation for the benchmark, independent of the library's solvers.

Larger nerves come from barycentric subdivision.  A vertex of sd(X) is a
simplex of X, and a simplex of sd(X) is a chain of simplices of X; the
maximal ones are the full flags v0 < {v0,v1} < ... < F of each facet F.
The last-vertex map sends the sd-vertex of a simplex to its largest
vertex.  It is a simplicial approximation of the identity (Munkres,
Elements of Algebraic Topology, sections 15-17), so pulling a cocycle
back along it keeps its obstruction class, and in particular keeps
whether it lifts.

Random cocycles are drawn here too, from the benchmark's own GF(2)
elimination, so the same seed gives the same inputs whatever the
library's solvers do.  The seed draws vertex gauges and sections; the
cohomology classes cycle through a fixed enumeration.  Every structure group used (Z2 and the Klein
four-group) is an elementary abelian 2-group whose table is XOR of the
element indices; that is checked before any cocycle is drawn.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from cechlift import (
    AbelianGroup,
    BundleCocycle,
    CentralExtension,
    SimplicialComplex,
    build_complex,
    make_extension,
    mobius_cocycle,
    validate_cocycle,
)
from cechlift.fingroup import cyclic_group

# An explicit Z2 cocycle on the builtin klein complex whose obstruction
# through z4_over_z2 is nonzero (its class x has x^2 != 0); the benchmark's
# reference re-derives that verdict by brute force on every run.
KLEIN_OBSTRUCTED_EDGES = frozenset({(0, 1), (1, 4), (1, 8), (4, 5), (4, 8), (7, 8)})


def closure(facets) -> list[tuple[int, ...]]:
    """Every face of the given simplices, ordered by dimension then lexicographically."""
    faces: set[tuple[int, ...]] = set()
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            faces.update(itertools.combinations(f, k))
    return sorted(faces, key=lambda s: (len(s), s))


def subdivide(facets) -> tuple[list[tuple[int, ...]], list[int]]:
    """Barycentric subdivision from maximal flags.

    Returns the facets of sd(X), on vertices numbered by the canonical
    order of the simplices of X, and the last-vertex map as a list from
    sd-vertices to vertices of X.
    """
    simplices = closure(facets)
    index = {s: i for i, s in enumerate(simplices)}
    out = []
    for f in facets:
        for perm in itertools.permutations(sorted(f)):
            chain = (index[tuple(sorted(perm[:k]))] for k in range(1, len(perm) + 1))
            out.append(tuple(sorted(chain)))
    return sorted(out), [s[-1] for s in simplices]


def xor_rank(group) -> int:
    """r with order 2^r when the group table is XOR of indices; raises otherwise."""
    n = group.order
    r = n.bit_length() - 1
    if n != 1 << r or any(group.mul(a, b) != a ^ b for a in range(n) for b in range(n)):
        raise ValueError(f"group of order {n} is not XOR-indexed; cannot draw cocycles for it")
    return r


def gf2_cocycle_basis(edges, triangles) -> list[int]:
    """Basis of Z^1(X; Z2) as edge bitmasks: the nullspace of the
    triangle-edge incidence matrix, by bitmask elimination."""
    pos = {e: i for i, e in enumerate(edges)}
    pivots: dict[int, int] = {}  # pivot bit -> fully reduced row
    for a, b, c in triangles:
        row = (1 << pos[(a, b)]) | (1 << pos[(a, c)]) | (1 << pos[(b, c)])
        for bit, prow in pivots.items():
            if row >> bit & 1:
                row ^= prow
        if not row:
            continue
        bit = row.bit_length() - 1
        for other in pivots:
            if pivots[other] >> bit & 1:
                pivots[other] ^= row
        pivots[bit] = row
    basis = []
    for free in range(len(edges)):
        if free in pivots:
            continue
        vec = 1 << free
        for bit, prow in pivots.items():
            if prow >> free & 1:
                vec |= 1 << bit
        basis.append(vec)
    return basis


def gf2_class_basis(edges, triangles, vertex_count) -> list[int]:
    """Cocycles (edge bitmasks) whose classes form a basis of H^1(X; Z2):
    the elements of a Z^1 basis that stay independent modulo the coboundaries."""
    pivots: dict[int, int] = {}

    def insert(vec):
        while vec:
            bit = vec.bit_length() - 1
            if bit not in pivots:
                pivots[bit] = vec
                return True
            vec ^= pivots[bit]
        return False

    for v in range(vertex_count):
        insert(sum(1 << i for i, e in enumerate(edges) if v in e))
    return [z for z in gf2_cocycle_basis(edges, triangles) if insert(z)]


def random_cocycle_values(edges, vertex_count, group, rng, classes, k) -> tuple[int, ...]:
    """Cocycle values in an XOR-indexed group: a random vertex gauge times
    the k-th class of H^1(X; group) in a fixed enumeration.

    Cycling through the classes keeps the mix of verdicts, and so the work
    per instance, the same for every seed; the seed draws the gauge.
    """
    r = xor_rank(group)
    gauge = [rng.randrange(group.order) for _ in range(vertex_count)]
    h = len(classes)
    bits = []
    for _ in range(r):
        z = 0
        for j, vec in enumerate(classes):
            if k >> j & 1:
                z ^= vec
        bits.append(z)
        k >>= h
    values = []
    for i, (a, b) in enumerate(edges):
        v = gauge[a] ^ gauge[b]
        for j, z in enumerate(bits):
            v ^= (z >> i & 1) << j
        values.append(v)
    return tuple(values)


def pullback_values(base: BundleCocycle, sd_edges, vertex_map) -> tuple[int, ...]:
    """Edge values of the cocycle pulled back along a vertex map into its base."""
    e = base.group.identity
    out = []
    for a, b in sd_edges:
        fa, fb = vertex_map[a], vertex_map[b]
        out.append(e if fa == fb else base.value(fa, fb))
    return tuple(out)


def z8_over_z2() -> CentralExtension:
    """Z8 -> Z2, reduction mod 2, with composite kernel Z4 embedded as 2Z8."""
    return make_extension(
        cyclic_group(8), cyclic_group(2), [x % 2 for x in range(8)], AbelianGroup((4,)), [0, 2, 4, 6]
    )


def fixed_obstructed(base: SimplicialComplex, name: str, group) -> tuple[int, ...] | None:
    """A known obstructed Z2 cocycle on the builtin, where there is one."""
    if group.order != 2:
        return None
    if name == "rp2_6":
        return mobius_cocycle().values
    if name == "klein":
        return tuple(int(e in KLEIN_OBSTRUCTED_EDGES) for e in base.edges())
    return None


@dataclass(frozen=True)
class Rung:
    """One subdivision level of a builtin: its facets, edges and triangles,
    and the pulled-back cocycle values per extension."""

    base_name: str
    level: int
    facets: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...]
    cocycles: dict  # extension name -> list of (label, pulled-back values)

    @property
    def name(self) -> str:
        return f"sd{self.level}({self.base_name})"


def base_cocycles(base: SimplicialComplex, name: str, ext_names, exts, rng, n_random: int):
    """Identity, the known obstructed cocycle where there is one, and
    n_random cocycles with random gauges in successive nonzero classes,
    for every extension's base group."""
    edges, triangles = base.edges(), base.triangles()
    classes = gf2_class_basis(edges, triangles, base.vertex_count)
    out = {}
    for en in ext_names:
        group = exts[en].base
        items = [("identity", (group.identity,) * len(edges))]
        fixed = fixed_obstructed(base, name, group)
        if fixed is not None:
            items.append(("obstructed", fixed))
        for k in range(n_random):
            items.append((f"random{k}", random_cocycle_values(
                edges, base.vertex_count, group, rng, classes, k + 1)))
        out[en] = [(label, BundleCocycle(base, group, vals)) for label, vals in items]
    return out


def build_rung(base: SimplicialComplex, name: str, level: int, per_ext) -> Rung:
    """Subdivide `level` times, pull every base cocycle back and validate it
    on a complex built from the subdivided facets."""
    facets = [tuple(f) for f in base.facets]
    vmap = list(range(base.vertex_count))
    for _ in range(level):
        facets, last = subdivide(facets)
        vmap = [vmap[v] for v in last]
    check = build_complex(facets)
    sd_edges = check.edges()
    cocycles = {}
    for en, items in per_ext.items():
        rows = []
        for label, s in items:
            vals = pullback_values(s, sd_edges, vmap)
            ok, bad = validate_cocycle(BundleCocycle(check, s.group, vals))
            if not ok:
                raise RuntimeError(f"pulled-back {label} cocycle fails on {bad} in sd{level}({name})")
            rows.append((label, vals))
        cocycles[en] = rows
    return Rung(name, level, tuple(facets), sd_edges, check.triangles(), cocycles)


def seeded(seed: int, salt: str) -> random.Random:
    return random.Random(f"{seed}:{salt}")
