"""Obstruction theory for lifting bundle transition cocycles.

A BundleCocycle assigns a group element to every oriented edge (alpha,
beta) with alpha < beta of the nerve, subject to the triangle condition
s_ab * s_bl = s_al on every sorted triangle; the reversed edge carries the
inverse.  Given a central extension rho: total -> base with abelian kernel
K and a set-theoretic section sigma of rho, the per-triangle defect

    q(a, b, l) = sigma(s_bl) * sigma(s_al)^{-1} * sigma(s_ab)

projects to the identity, lands in K, and is a 2-cocycle.  Its class in
H^2(nerve; K) does not depend on the section, and it vanishes exactly when
the cocycle lifts to the total group.  When a cochain c with delta c = q
exists, twisting the section-induced candidate by -c produces an actual
lift, and the lift is verified before it is returned.

The group arithmetic runs on whole arrays.  A BundleCocycle or Lift
stores its edge values once, as a read-only int64 `table`; `values`, the
same elements as a tuple of Python ints for scalar lookups and the file
form, is built on first read.  The defect of every triangle, the
corrected lift and the triangle checks are numpy gathers of those tables
and the section's over the Cayley table, through the index tables cached
on the complex (`triangle_edges`), the group (`inverse_table`) and the
extension (`projection_table`, `kernel_index_table`, `kernel_rows`,
`embed_table`).  A failed check names the first failing edge or triangle
in canonical order, as a loop over them would.

brute_force_lift searches every kernel twist of the section-induced
candidate directly in the total group, with no linear algebra involved,
so it serves as an independent oracle for the machinery above.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .cochain import (
    Cochain,
    CohomologyClass,
    cohomology,
    is_coboundary,
    _coboundary_snf,
)
from .errors import CapExceededError, InternalCheckError, KernelViolationError
from .fingroup import (
    CentralExtension,
    FiniteGroup,
    GroupHom,
    Section,
    _bind_section,
    abelian_structure,
    cyclic_group,
    element_array,
    pack_rows,
    read_group,
    same_group,
    write_group,
)
from .linalg import sample_kernel_mod_m
from .nerve import (
    SimplicialComplex,
    builtin_complex,
    complex_digest,
    read_complex,
    write_complex,
)

__all__ = [
    "BundleCocycle",
    "Lift",
    "ObstructionResult",
    "identity_cocycle",
    "mobius_cocycle",
    "random_cocycle",
    "validate_cocycle",
    "obstruction_cocycle",
    "obstruction_class",
    "construct_lift",
    "brute_force_lift",
    "count_inequivalent_lifts",
    "pushforward_class",
    "DEFAULT_BRUTE_CAP",
    "read_cocycle",
    "write_cocycle",
]

DEFAULT_BRUTE_CAP = 2 ** 24


@dataclass(frozen=True, eq=False, init=False)
class BundleCocycle:
    """Transition data: one group element per canonical edge of the nerve.

    `values` may be any sequence of elements or an integer array."""

    base: SimplicialComplex
    group: FiniteGroup
    # The edge values, stored once as a read-only int64 array, for gathers.
    table: np.ndarray = field(repr=False)

    def __init__(self, base: SimplicialComplex, group: FiniteGroup, values: Sequence[int]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "group", group)
        edges = base.edges()
        if len(values) != len(edges):
            raise ValueError(f"cocycle needs {len(edges)} edge values, got {len(values)}")
        table = element_array(values, group.order, lambda i: f"edge value {values[i]} is out of range")
        object.__setattr__(self, "table", table)

    @cached_property
    def values(self) -> tuple[int, ...]:
        """The edge values as a tuple of Python ints."""
        return tuple(self.table.tolist())

    def value(self, a: int, b: int) -> int:
        """Transition element on the oriented edge (a, b); inverse below the diagonal."""
        if a == b:
            raise ValueError("an edge needs two distinct vertices")
        if a < b:
            return self.values[self.base.index_of((a, b))]
        return self.group.inv(self.values[self.base.index_of((b, a))])


def _first_failing_triangle(
    base: SimplicialComplex, group: FiniteGroup, values: np.ndarray
) -> Optional[tuple[int, int, int]]:
    """First sorted triangle (a, b, l) with values[ab] * values[bl] != values[al]."""
    v = values[base.triangle_edges]
    bad = group.table[v[:, 0], v[:, 1]] != v[:, 2]
    return base.triangles()[np.flatnonzero(bad)[0]] if bad.any() else None


def validate_cocycle(s: BundleCocycle) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Check the triangle condition; returns (ok, first failing triangle or None)."""
    bad = _first_failing_triangle(s.base, s.group, s.table)
    return bad is None, bad


def identity_cocycle(complex_: SimplicialComplex, group: FiniteGroup) -> BundleCocycle:
    e = group.identity
    return BundleCocycle(complex_, group, (e,) * len(complex_.edges()))


def mobius_cocycle() -> BundleCocycle:
    """The non-bounding order-2 cocycle on the 6-vertex projective plane.

    It carries the antipodal identification of the icosahedron: lifting each
    vertex to a fixed sheet makes exactly the five pentagram edges cross
    sheets, so those edges get the flip and the rest the identity.
    """
    complex_ = builtin_complex("rp2_6")
    flipped = {(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)}
    values = tuple(1 if e in flipped else 0 for e in complex_.edges())
    s = BundleCocycle(complex_, cyclic_group(2), values)
    ok, bad = validate_cocycle(s)
    if not ok:
        raise InternalCheckError(f"builtin cocycle failed validation at {bad}")
    return s


def random_cocycle(complex_: SimplicialComplex, group: FiniteGroup, seed: int) -> BundleCocycle:
    """Seeded random transition cocycle.

    Vertices get random labels g_v and each edge starts from g_a * g_b^{-1},
    which satisfies the triangle condition for any group.  When the group is
    abelian the edge values are then twisted by a uniformly random element
    of the full cocycle group (sampled factor by factor through the Smith
    form of the coboundary matrix), so every cohomology class is reachable.
    The result is validated before it is returned.
    """
    rng = random.Random(seed)
    labels = [rng.randrange(group.order) for _ in range(complex_.vertex_count)]
    values = [
        group.mul(labels[a], group.inv(labels[b])) for a, b in complex_.edges()
    ]
    if group.is_abelian():
        ab, _, from_tuple = abelian_structure(group)
        snf = _coboundary_snf(complex_, 1)
        twists = [sample_kernel_mod_m(snf, m, rng) for m in ab.factors]
        for i in range(len(values)):
            t = tuple(int(col[i]) for col in twists)
            values[i] = group.mul(values[i], from_tuple[t])
    s = BundleCocycle(complex_, group, tuple(values))
    ok, bad = validate_cocycle(s)
    if not ok:
        raise InternalCheckError(f"random cocycle failed validation at {bad}")
    return s


# ------------------------------------------------------------------ lifts ----


@dataclass(frozen=True, eq=False, init=False)
class Lift:
    """Total-group edge values projecting to a bundle cocycle and satisfying
    the lifted triangle condition; both are verified on construction.

    `values` may be any sequence of elements or an integer array."""

    cocycle: BundleCocycle
    extension: CentralExtension
    # The edge values, stored once as a read-only int64 array, for gathers.
    table: np.ndarray = field(repr=False)

    def __init__(self, cocycle: BundleCocycle, extension: CentralExtension, values: Sequence[int]):
        object.__setattr__(self, "cocycle", cocycle)
        object.__setattr__(self, "extension", extension)
        self.__post_init__(values)

    def __post_init__(self, values):
        ext = self.extension
        edges = self.cocycle.base.edges()
        if len(values) != len(edges):
            raise ValueError("lift needs one value per edge")
        table = element_array(
            values, ext.total.order,
            lambda i: f"lift value {values[i]} over edge {edges[i]} is out of range",
        )
        object.__setattr__(self, "table", table)
        wrong = ext.projection_table[table] != self.cocycle.table
        if wrong.any():
            a, b = edges[np.flatnonzero(wrong)[0]]
            raise ValueError(f"lift value over edge ({a}, {b}) projects to the wrong element")
        bad = self.failing_triangle()
        if bad is not None:
            raise ValueError(f"lifted triangle condition fails at {bad}")

    @cached_property
    def values(self) -> tuple[int, ...]:
        """The edge values as a tuple of Python ints."""
        return tuple(self.table.tolist())

    def value(self, a: int, b: int) -> int:
        if a == b:
            raise ValueError("an edge needs two distinct vertices")
        if a < b:
            return self.values[self.cocycle.base.index_of((a, b))]
        return self.extension.total.inv(self.values[self.cocycle.base.index_of((b, a))])

    def failing_triangle(self) -> Optional[tuple[int, int, int]]:
        return _first_failing_triangle(self.cocycle.base, self.extension.total, self.table)


@dataclass(frozen=True)
class ObstructionResult:
    """Everything obstruction_class computes for one instance."""

    cochain: Cochain
    cohomology_class: CohomologyClass
    trivial: bool
    lift: Optional[Lift]


def _check_instance(s: BundleCocycle, ext: CentralExtension, section: Optional[Section]) -> Section:
    if not same_group(ext.base, s.group):
        raise ValueError("extension base group does not match the cocycle group")
    return _bind_section(ext, section)


def obstruction_cocycle(s: BundleCocycle, ext: CentralExtension, section: Optional[Section] = None) -> Cochain:
    """Kernel-valued obstruction 2-cochain of the section-induced candidate lift.

    All triangles at once: with sv = section[values] per edge, the defect is
    T[T[sv[bl], inv[sv[al]]], sv[ab]] over the total group's Cayley table T.
    """
    section = _check_instance(s, ext, section)
    table = ext.total.table
    sv = section.table[s.table][s.base.triangle_edges]
    lifted = table[table[sv[:, 1], ext.total.inverse_table[sv[:, 2]]], sv[:, 0]]
    image = ext.projection_table[lifted]
    off = image != ext.base.identity
    if off.any():
        first = np.flatnonzero(off)[0]
        a, b, l = s.base.triangles()[first]
        raise KernelViolationError(
            f"defect over triangle ({a}, {b}, {l}) projects to "
            f"{image[first]}, not the identity; inputs are corrupted"
        )
    k = ext.kernel_index_table[lifted]
    outside = k < 0
    if outside.any():
        raise ValueError(f"element {lifted[np.flatnonzero(outside)[0]]} is not in the embedded kernel")
    return Cochain(s.base, 2, ext.kernel, ext.kernel_rows[k])


def obstruction_class(
    s: BundleCocycle, ext: CentralExtension, section: Optional[Section] = None
) -> ObstructionResult:
    """Obstruction cochain, its class, and a verified lift when the class dies.

    The correction comes from any c with delta c = q: multiplying the
    section-induced candidate edgewise by the embedded -c cancels the defect
    triangle by triangle.
    """
    section = _check_instance(s, ext, section)
    q = obstruction_cocycle(s, ext, section)
    witness = is_coboundary(q)
    space = cohomology(s.base, 2, ext.kernel)
    lift = None
    if witness is not None:
        lift = _lift_from_correction(s, ext, section, witness)
    return ObstructionResult(
        cochain=q,
        cohomology_class=CohomologyClass(representative=q, space=space),
        trivial=witness is not None,
        lift=lift,
    )


def _lift_from_correction(
    s: BundleCocycle, ext: CentralExtension, section: Section, correction: Cochain
) -> Lift:
    """sigma(s_ab) * embed(-c_ab) on every edge."""
    kernel = ext.kernel
    twist = ext.embed_table[pack_rows(kernel.factors, -correction.array % kernel.moduli)]
    values = ext.total.table[section.table[s.table], twist]
    try:
        return Lift(cocycle=s, extension=ext, values=values)
    except ValueError as err:
        raise InternalCheckError(f"corrected lift failed verification: {err}") from err


def construct_lift(
    s: BundleCocycle, ext: CentralExtension, section: Optional[Section] = None
) -> Optional[Lift]:
    """A verified lift when the obstruction class is trivial, otherwise None."""
    return obstruction_class(s, ext, section).lift


def brute_force_lift(
    s: BundleCocycle, ext: CentralExtension, cap: int = DEFAULT_BRUTE_CAP
) -> Optional[Lift]:
    """Search every kernel twist of the section-induced candidate for a lift.

    This is pure group arithmetic in the total group: no coboundary solving
    is involved, so it independently cross-checks the cohomological route.
    Twists are explored depth first in canonical edge order with kernel
    elements in canonical order, so the first hit is the lexicographically
    least solution; None means no lift exists at all.
    """
    section = _check_instance(s, ext, None)
    edges = s.base.edges()
    kernel_size = ext.kernel.order
    space = kernel_size ** len(edges)
    if space > cap:
        raise CapExceededError(space, cap, "brute-force lift search")

    total = ext.total
    base_values = [section(s.value(a, b)) for a, b in edges]
    fiber_options = [
        [total.mul(v, ext.embed[k]) for k in range(kernel_size)] for v in base_values
    ]

    edge_pos = {e: i for i, e in enumerate(edges)}
    tri_by_depth: dict[int, list[tuple[int, int, int]]] = {}
    for a, b, l in s.base.triangles():
        rows = (edge_pos[(a, b)], edge_pos[(b, l)], edge_pos[(a, l)])
        tri_by_depth.setdefault(max(rows), []).append(rows)

    chosen = [0] * len(edges)

    def consistent(depth: int) -> bool:
        for ab, bl, al in tri_by_depth.get(depth, ()):
            if total.mul(chosen[ab], chosen[bl]) != chosen[al]:
                return False
        return True

    def search(depth: int) -> bool:
        if depth == len(edges):
            return True
        for candidate in fiber_options[depth]:
            chosen[depth] = candidate
            if consistent(depth) and search(depth + 1):
                return True
        return False

    if not search(0):
        return None
    return Lift(cocycle=s, extension=ext, values=chosen)


def count_inequivalent_lifts(s: BundleCocycle, ext: CentralExtension) -> Optional[int]:
    """Number of lifts up to kernel-coboundary twists, or None when obstructed.

    Any two lifts differ by a kernel-valued 1-cocycle and vertexwise
    re-gauging moves them by coboundaries, so the classes are counted by the
    order of H^1 with kernel coefficients.
    """
    result = obstruction_class(s, ext)
    if not result.trivial:
        return None
    return cohomology(s.base, 1, ext.kernel).order


def pushforward_class(s: BundleCocycle, hom: GroupHom) -> CohomologyClass:
    """Edgewise image of the cocycle under a hom to an abelian group, as a
    degree-1 cohomology class."""
    if not same_group(hom.domain, s.group):
        raise ValueError("homomorphism domain does not match the cocycle group")
    if not hom.codomain.is_abelian():
        raise ValueError("pushforward needs an abelian codomain")
    ab, to_tuple, _ = abelian_structure(hom.codomain)
    values = tuple(to_tuple[hom(v)] for v in s.values)
    chain = Cochain(s.base, 1, ab, values)
    return CohomologyClass(representative=chain, space=cohomology(s.base, 1, ab))


# ---------------------------------------------------------------- file I/O ----


def write_cocycle(
    path,
    s: BundleCocycle,
    complex_ref: Optional[str] = None,
    group_ref: Optional[str] = None,
) -> None:
    """Write edge values plus references naming the complex and group.

    A missing complex_ref or group_ref makes sibling files next to `path`;
    a ref of the form builtin:NAME points at the builtin catalog instead.
    """
    path = Path(path)
    if complex_ref is None:
        complex_ref = path.stem + ".cplx"
        write_complex(path.parent / complex_ref, s.base)
    if group_ref is None:
        group_ref = path.stem + ".grp"
        write_group(path.parent / group_ref, s.group)
    lines = [
        f"complex {complex_ref}",
        f"group {group_ref}",
        f"# complex digest {complex_digest(s.base)}",
    ]
    for (a, b), v in zip(s.base.edges(), s.values):
        lines.append(f"{a} {b} {v}")
    path.write_text("\n".join(lines) + "\n")


def read_cocycle(
    path,
    complex_: Optional[SimplicialComplex] = None,
    group: Optional[FiniteGroup] = None,
) -> BundleCocycle:
    """Load a cocycle file, resolving its references unless overridden, and
    re-validate the triangle condition."""
    path = Path(path)
    refs: dict[str, str] = {}
    edge_lines: list[tuple[int, int, str, str]] = []
    for ln in path.read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        toks = ln.split()
        if toks[0] in ("complex", "group"):
            refs[toks[0]] = " ".join(toks[1:])
            continue
        if len(toks) != 3:
            raise ValueError(f"bad cocycle line {ln!r} in {path}")
        edge_lines.append((int(toks[0]), int(toks[1]), toks[2], ln))

    if complex_ is None:
        ref = refs.get("complex")
        if ref is None:
            raise ValueError(f"cocycle file {path} has no complex reference")
        if ref.startswith("builtin:"):
            complex_ = builtin_complex(ref.split(":", 1)[1])
        else:
            complex_ = read_complex(path.parent / ref)
    if group is None:
        ref = refs.get("group")
        if ref is None:
            raise ValueError(f"cocycle file {path} has no group reference")
        group = read_group(path.parent / ref)

    by_edge: dict[tuple[int, int], int] = {}
    name_to_idx = {n: i for i, n in enumerate(group.names)} if group.names else {}
    for a, b, tok, ln in edge_lines:
        try:
            v = int(tok)
        except ValueError:
            if tok not in name_to_idx:
                raise ValueError(f"unknown group element {tok!r} in {path}") from None
            v = name_to_idx[tok]
        edge = (min(a, b), max(a, b))
        if edge in by_edge:
            raise ValueError(f"cocycle file {path} gives edge {edge} a second time, in line {ln!r}")
        # A line "a b v" gives the oriented edge (a, b) the value v, so for
        # a > b the canonical edge (b, a) gets inv(v).  An out-of-range v
        # is left for BundleCocycle to reject.
        by_edge[edge] = group.inv(v) if a > b and 0 <= v < group.order else v
    edges = complex_.edges()
    missing = [e for e in edges if e not in by_edge]
    if missing:
        raise ValueError(f"cocycle file {path} is missing edge {missing[0]}")
    if len(by_edge) != len(edges):
        stray = sorted(set(by_edge) - set(edges))
        raise ValueError(f"cocycle file {path} mentions non-edges {stray}")
    s = BundleCocycle(complex_, group, tuple(by_edge[e] for e in edges))
    ok, bad = validate_cocycle(s)
    if not ok:
        raise ValueError(f"cocycle file {path} violates the triangle condition at {bad}")
    return s
