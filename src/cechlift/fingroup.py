"""Finite groups by Cayley table, homomorphisms, and central extensions.

Elements are integers 0..n-1 indexing the table.  Construction through
make_group verifies every axiom exhaustively, which is why the order is
capped at 256; everything bigger is out of scope here.  Extensions carry
the projection, the abelian kernel and its embedding, and are verified
end to end when built (and again when loaded from files).

Tables and maps are built by whole-table numpy gathers, not element by
element: a product's table from one gather per component table, a
quotient's from the coset of each entry of its representatives' rows, an
extension's fibers and kernel lookup from its index tables.  Verification
stays exhaustive: associativity on every triple, identity and inverses,
homomorphism, embedding and centrality on every pair.

Each object is built and verified once: direct_product caches the product
of each tuple of component groups, an extension keeps its canonical section
and a section its table.

Builtin extension catalog, all with kernel Z2:

    z4_over_z2   Z4 -> Z2, reduction mod 2; does not split
    split_z2     Z2 x Z2 -> Z2, first projection; splits
    q8_over_v4   quaternion group by its center; does not split
    d8_over_v4   dihedral group of order 8 by its center; does not split
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .coefgroup import AbelianGroup, is_integer, parse_group
from .errors import (
    CapExceededError,
    KernelMismatchError,
    NotAGroupError,
    NotCentralError,
    NotSubgroupError,
    NotSurjectiveError,
)

__all__ = [
    "FiniteGroup",
    "GroupHom",
    "CentralExtension",
    "Section",
    "make_group",
    "cyclic_group",
    "quaternion_group",
    "dihedral_group_8",
    "direct_product",
    "make_extension",
    "canonical_section",
    "random_section",
    "quotient_by_central",
    "find_splitting",
    "abelian_structure",
    "builtin_extension",
    "BUILTIN_EXTENSIONS",
    "MAX_GROUP_ORDER",
    "pack_tuple",
    "unpack_tuple",
    "klein_four_group",
    "same_group",
    "same_extension",
    "read_group",
    "write_group",
    "read_extension",
    "write_extension",
]

MAX_GROUP_ORDER = 256


def same_group(a: "FiniteGroup", b: "FiniteGroup") -> bool:
    """Structural equality: same order and identical Cayley tables."""
    return a is b or (a.order == b.order and np.array_equal(a.table, b.table))


def same_extension(a: "CentralExtension", b: "CentralExtension") -> bool:
    """Structural equality of every constituent of two extensions."""
    return a is b or (
        same_group(a.total, b.total)
        and same_group(a.base, b.base)
        and a.projection.map == b.projection.map
        and a.kernel == b.kernel
        and a.embed == b.embed
    )


def pack_tuple(orders: Sequence[int], values: Sequence[int]) -> int:
    """Mixed-radix index of a component tuple, last component fastest.

    This is exactly the packing direct_product uses for its element order.
    """
    idx = 0
    for o, v in zip(orders, values):
        idx = idx * o + v
    return idx


def pack_rows(orders: Sequence[int], rows: np.ndarray) -> np.ndarray:
    """pack_tuple of every row of an n x len(orders) int64 array at once."""
    idx = np.zeros(rows.shape[0], dtype=np.int64)
    for j, o in enumerate(orders):
        idx = idx * o + rows[:, j]
    return idx


def pack_product(orders: Sequence[int], maps: Sequence[Sequence[int]]) -> np.ndarray:
    """pack_tuple of every tuple of itertools.product(*maps), in that order,
    as an int64 array."""
    idx = np.zeros(1, dtype=np.int64)
    for o, m in zip(orders, maps):
        idx = (idx[:, None] * o + np.asarray(m, dtype=np.int64)[None, :]).ravel()
    return idx


def unpack_tuple(orders: Sequence[int], idx: int) -> tuple[int, ...]:
    out = []
    for o in reversed(orders):
        out.append(idx % o)
        idx //= o
    return tuple(reversed(out))


def element_array(values: Sequence[int], order: int, describe: Callable[[int], str]) -> np.ndarray:
    """`values` as a read-only int64 array of elements of a group of the
    given order.

    A value that is not an int, bool or numpy integer (a float or a string
    is not rounded or parsed), or that lies outside 0..order-1, raises
    ValueError(describe(position of the first one)) before any conversion,
    so a negative value never reaches a gather (where it would wrap around)
    and no Python int is too big.  Valid values cost one range test.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iub" or ((arr < 0) | (arr >= order)).any():
        for i, v in enumerate(values):
            if not (is_integer(v) and 0 <= v < order):
                raise ValueError(describe(i))
    out = arr.astype(np.int64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Group on 0..order-1 given by its Cayley table; table[a][b] is a*b."""

    order: int
    table: np.ndarray = field(repr=False)
    identity: int
    inverse: tuple[int, ...]
    names: Optional[tuple[str, ...]] = None

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        out = self.identity
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def element_order(self, a: int) -> int:
        x, n = a, 1
        while x != self.identity:
            x = self.mul(x, a)
            n += 1
        return n

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def center(self) -> list[int]:
        return [a for a in range(self.order) if np.array_equal(self.table[a], self.table[:, a])]

    def name_of(self, a: int) -> str:
        return self.names[a] if self.names else str(a)

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def inverse_table(self) -> np.ndarray:
        """inverse as a read-only int64 array, for gathers."""
        inv = np.array(self.inverse, dtype=np.int64)
        inv.setflags(write=False)
        return inv


def make_group(table, names: Optional[Sequence[str]] = None) -> FiniteGroup:
    """Build a FiniteGroup after exhaustively checking the group axioms."""
    t = np.asarray(table, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise NotAGroupError(f"table must be square, got shape {t.shape}")
    n = t.shape[0]
    if n == 0:
        raise NotAGroupError("empty table")
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"order {n} exceeds the exhaustive-verification cap {MAX_GROUP_ORDER}")
    if t.min() < 0 or t.max() >= n:
        raise NotAGroupError("table entries must index elements")

    for c in range(n):
        col = t[:, c]
        left = col.take(t)  # (ab)c
        right = t.take(col, axis=1)  # a(bc)
        if not np.array_equal(left, right):
            bad = np.argwhere(left != right)[0]
            a, b = int(bad[0]), int(bad[1])
            raise NotAGroupError("associativity fails", witness=(a, b, c))

    # The first e whose row and column are both the identity permutation.
    idx = np.arange(n)
    two_sided = (t == idx).all(axis=1) & (t == idx[:, None]).all(axis=0)
    if not two_sided.any():
        raise NotAGroupError("no two-sided identity element")
    identity = int(two_sided.argmax())

    # inverse[a] is the first b with ab = e; it must also have ba = e.
    is_e = t == identity
    inverse = is_e.argmax(axis=1)
    bad = np.flatnonzero(~is_e.any(axis=1) | (t[inverse, idx] != identity))
    if bad.size:
        raise NotAGroupError("no two-sided inverse", witness=int(bad[0]))

    frozen_names = tuple(str(x) for x in names) if names is not None else None
    if frozen_names is not None and len(frozen_names) != n:
        raise ValueError("need one name per element")
    t.setflags(write=False)
    return FiniteGroup(order=n, table=t, identity=identity, inverse=tuple(inverse.tolist()), names=frozen_names)


@lru_cache(maxsize=None)
def cyclic_group(n: int) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return make_group(table, names=[str(a) for a in range(n)])


@lru_cache(maxsize=None)
def quaternion_group() -> FiniteGroup:
    """Order-8 quaternion group as the unit quaternions 1, -1, i, -i, j, -j, k, -k."""
    units = [
        (1, 0, 0, 0), (-1, 0, 0, 0),
        (0, 1, 0, 0), (0, -1, 0, 0),
        (0, 0, 1, 0), (0, 0, -1, 0),
        (0, 0, 0, 1), (0, 0, 0, -1),
    ]
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def qmul(p, q):
        w1, x1, y1, z1 = p
        w2, x2, y2, z2 = q
        return (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    table = [[units.index(qmul(p, q)) for q in units] for p in units]
    return make_group(table, names=names)


@lru_cache(maxsize=None)
def dihedral_group_8() -> FiniteGroup:
    """Symmetries of the square: element k + 4f is rotation^k * flip^f."""
    def mul(a, b):
        k1, f1 = a % 4, a // 4
        k2, f2 = b % 4, b // 4
        k = (k1 + (k2 if f1 == 0 else -k2)) % 4
        return k + 4 * ((f1 + f2) % 2)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    names = ["e", "r", "r2", "r3", "s", "rs", "r2s", "r3s"]
    return make_group(table, names=names)


def direct_product(groups: Sequence[FiniteGroup]) -> tuple[FiniteGroup, tuple[GroupHom, ...], tuple[GroupHom, ...]]:
    """Componentwise product group, plus the injections and projections.

    Elements pack mixed-radix with the last factor varying fastest, matching
    itertools.product over the component element ranges.  The table is
    packed from one gather per component table over the element grid, and
    the maps from the same component index arrays; make_group then
    verifies it in full.  The same group objects give back the same
    product and homomorphisms.
    """
    return _direct_product(tuple(groups))


# Keyed by the group objects (FiniteGroup hashes by identity), so that the
# homomorphisms have the caller's own groups as domains and codomains.
@lru_cache(maxsize=64)
def _direct_product(groups: tuple[FiniteGroup, ...]):
    orders = [g.order for g in groups]
    total = 1
    for n in orders:
        total *= n
    if total > MAX_GROUP_ORDER:
        raise ValueError(f"product order {total} exceeds cap {MAX_GROUP_ORDER}")

    # comps[i][x] is component i of product element x; the table is packed
    # mixed-radix, one gather from each component table.
    strides = []
    stride = total
    for n in orders:
        stride //= n
        strides.append(stride)
    idx = np.arange(total)
    comps = [idx // s % n for s, n in zip(strides, orders)]
    table = np.zeros((total, total), dtype=np.int64)
    for g, c in zip(groups, comps):
        table = table * g.order + g.table[c[:, None], c[None, :]]
    names = None
    if all(g.names for g in groups):
        names = [",".join(parts) for parts in itertools.product(*(g.names for g in groups))]
    prod = make_group(table, names=names)

    identity = pack_tuple(orders, [g.identity for g in groups])
    injections = []
    projections = []
    for g, c, stride in zip(groups, comps, strides):
        inj_map = identity + (np.arange(g.order) - g.identity) * stride
        injections.append(GroupHom(g, prod, tuple(inj_map.tolist())))
        projections.append(GroupHom(prod, g, tuple(c.tolist())))
    return prod, tuple(injections), tuple(projections)


@dataclass(frozen=True, eq=False)
class GroupHom:
    """Map between finite groups, checked multiplicative on every pair."""

    domain: FiniteGroup
    codomain: FiniteGroup
    map: tuple[int, ...]

    def __post_init__(self):
        m = np.asarray(self.map, dtype=np.int64)
        if m.shape != (self.domain.order,):
            raise ValueError("map length must equal the domain order")
        if m.min() < 0 or m.max() >= self.codomain.order:
            raise ValueError("map image out of range")
        lhs = self.codomain.table[m[:, None], m[None, :]]
        rhs = m[self.domain.table]
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere(lhs != rhs)[0]
            raise ValueError(f"not a homomorphism at pair ({int(bad[0])}, {int(bad[1])})")

    def __call__(self, a: int) -> int:
        return self.map[a]

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.codomain.order

    def kernel(self) -> list[int]:
        e = self.codomain.identity
        return [a for a in range(self.domain.order) if self.map[a] == e]


# ------------------------------------------------------ central extensions ----


@dataclass(frozen=True, eq=False)
class CentralExtension:
    """Surjection projection: total -> base whose kernel is the central image
    of the abelian group `kernel` under `embed` (indexed by the kernel's
    canonical element enumeration).

    Fibers, the kernel lookup and the canonical section are read from the
    index tables below when asked for; make_extension verifies the
    extension on every pair before one is built."""

    total: FiniteGroup
    base: FiniteGroup
    projection: GroupHom
    kernel: AbelianGroup
    embed: tuple[int, ...]

    def fiber(self, b: int) -> tuple[int, ...]:
        """Total elements over base element b, ascending."""
        b = range(self.base.order)[b]  # IndexError out of range, as a tuple lookup
        return tuple(np.flatnonzero(self.projection_table == b).tolist())

    def kernel_element_of(self, x: int) -> tuple[int, ...]:
        """Inverse of the kernel embedding; only defined on the embedded kernel."""
        i = self.kernel_index_table[x] if 0 <= x < self.total.order else -1
        if i < 0:
            raise ValueError(f"element {x} is not in the embedded kernel")
        return tuple(self.kernel_rows[i].tolist())

    def embed_element(self, k: Sequence[int]) -> int:
        return self.embed[self.kernel.element_index(k)]

    # Read-only int64 tables for whole-array gathers, built on first use.

    @cached_property
    def projection_table(self) -> np.ndarray:
        """Image in the base of each total element."""
        return _frozen(self.projection.map)

    @cached_property
    def kernel_index_table(self) -> np.ndarray:
        """Kernel index (canonical enumeration) of each total element, -1 off the kernel."""
        idx = np.full(self.total.order, -1, dtype=np.int64)
        idx[list(self.embed)] = np.arange(len(self.embed))
        idx.setflags(write=False)
        return idx

    @cached_property
    def kernel_rows(self) -> np.ndarray:
        """Kernel elements as residue rows, in canonical order: kernel.order x rank."""
        rows = _element_rows(self.kernel)
        rows.setflags(write=False)
        return rows

    @cached_property
    def embed_table(self) -> np.ndarray:
        """Total element of each kernel index."""
        return _frozen(self.embed)

    @cached_property
    def _canonical_section(self) -> "Section":
        # np.unique's indices are first occurrences: the least of each fiber.
        _, choice = np.unique(self.projection_table, return_index=True)
        choice[self.base.identity] = self.total.identity
        return Section(self, tuple(choice.tolist()))


def _element_rows(kernel: AbelianGroup) -> np.ndarray:
    """The kernel's elements as residue rows, in canonical order."""
    rows = np.array(list(kernel.elements()), dtype=np.int64)
    return rows.reshape(kernel.order, kernel.rank)


def _first_noncentral(group: FiniteGroup, elems: np.ndarray) -> Optional[tuple[int, int]]:
    """(x, g) for the first x of elems that does not commute with every
    element, and the first such g; None when all of elems are central."""
    differs = group.table[elems] != group.table[:, elems].T
    bad = np.flatnonzero(differs.any(axis=1))
    if not bad.size:
        return None
    i = int(bad[0])
    return int(elems[i]), int(np.flatnonzero(differs[i])[0])


def _frozen(values: Sequence[int]) -> np.ndarray:
    arr = np.array(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def make_extension(
    total: FiniteGroup,
    base: FiniteGroup,
    projection_map: Sequence[int],
    kernel: AbelianGroup,
    embed: Sequence[int],
) -> CentralExtension:
    """Verify and assemble a central extension.

    Checks, in order: the projection is a homomorphism and surjective, the
    fiber over the identity is exactly the embedded kernel, the embedding is
    an isomorphism of the abelian kernel onto that fiber, and every embedded
    element is central in the total group.
    """
    proj = GroupHom(total, base, tuple(int(x) for x in projection_map))
    hit = set(proj.map)
    if len(hit) != base.order:
        missing = min(set(range(base.order)) - hit)
        raise NotSurjectiveError(f"projection misses base element {missing}")

    embed = tuple(int(x) for x in embed)
    if len(embed) != kernel.order:
        raise KernelMismatchError(
            f"embedding lists {len(embed)} elements, kernel has order {kernel.order}"
        )
    fiber_e = set(proj.kernel())
    if set(embed) != fiber_e or len(set(embed)) != len(embed):
        stray = sorted(fiber_e.symmetric_difference(embed))
        raise KernelMismatchError(f"embedded kernel differs from the identity fiber at {stray}")

    if embed[kernel.element_index(kernel.zero())] != total.identity:
        raise KernelMismatchError("kernel zero must embed to the total identity")
    # embed[a] * embed[b] against embed[a + b] on every pair, row-major.
    emb = np.array(embed, dtype=np.int64)
    k = len(emb)
    rows = _element_rows(kernel)
    sums = (rows[:, None, :] + rows[None, :, :]) % np.array(kernel.factors, dtype=np.int64)
    sum_index = pack_rows(kernel.factors, sums.reshape(k * k, kernel.rank)).reshape(k, k)
    bad = np.argwhere(total.table[emb[:, None], emb[None, :]] != emb[sum_index])
    if bad.size:
        elems = list(kernel.elements())
        a, b = elems[bad[0][0]], elems[bad[0][1]]
        raise KernelMismatchError(f"embedding is not a homomorphism at {a}, {b}")

    noncentral = _first_noncentral(total, emb)
    if noncentral is not None:
        x, g = noncentral
        raise NotCentralError(f"embedded kernel element {x} does not commute with element {g}")
    return CentralExtension(total=total, base=base, projection=proj, kernel=kernel, embed=embed)


@dataclass(frozen=True, eq=False)
class Section:
    """Set-theoretic right inverse of an extension's projection."""

    extension: CentralExtension
    map: tuple[int, ...]

    def __post_init__(self):
        ext = self.extension
        if len(self.map) != ext.base.order:
            raise ValueError("section length must equal the base order")
        table = element_array(
            self.map, ext.total.order,
            lambda b: f"section value {self.map[b]} over {b} is out of range",
        )
        off = ext.projection_table[table] != np.arange(len(table))
        if off.any():
            b = int(np.flatnonzero(off)[0])
            raise ValueError(f"section value {self.map[b]} over {b} is not in the fiber")

    def __call__(self, b: int) -> int:
        return self.map[b]

    @cached_property
    def table(self) -> np.ndarray:
        """map as a read-only int64 array, for gathers."""
        return _frozen(self.map)

    def is_normalized(self) -> bool:
        ext = self.extension
        return self.map[ext.base.identity] == ext.total.identity


def canonical_section(ext: CentralExtension) -> Section:
    """Least total index in each fiber, except that the identity lifts to the
    identity.  Built once per extension and kept on it."""
    return ext._canonical_section


def _bind_section(ext: CentralExtension, section: Optional[Section]) -> Section:
    """The section a verdict through `ext` uses: the canonical one for None,
    the given one when it is bound to `ext`, and the same map re-bound to
    `ext` when it belongs to a structurally equal extension."""
    if section is None:
        return canonical_section(ext)
    if section.extension is ext:
        return section
    if same_extension(section.extension, ext):
        return Section(ext, section.map)
    raise ValueError("section belongs to a different extension")


def random_section(ext: CentralExtension, rng, normalized: bool = True) -> Section:
    """Uniformly random fiber choices; pass normalized=False to let the
    identity lift anywhere in its fiber (useful for stress tests)."""
    choice = [rng.choice(ext.fiber(b)) for b in range(ext.base.order)]
    if normalized:
        choice[ext.base.identity] = ext.total.identity
    return Section(ext, tuple(choice))


def quotient_by_central(group: FiniteGroup, subgroup: Sequence[int]) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a central subgroup; returns the coset group and the projection.

    Cosets are ordered by their least member, so quotienting by the trivial
    subgroup reproduces the original table.  The subgroup's closure is
    checked pair by pair and its centrality on every element; the cosets
    and the table are then gathers (each x's least member is the minimum
    of x * subgroup), and make_group verifies the table in full.
    """
    sub = sorted(set(int(x) for x in subgroup))
    if group.identity not in sub:
        raise NotSubgroupError("subgroup must contain the identity")
    subset = set(sub)
    for a in sub:
        if group.inv(a) not in subset:
            raise NotSubgroupError(f"subgroup not closed under inverse at {a}")
        for b in sub:
            if group.mul(a, b) not in subset:
                raise NotSubgroupError(f"subgroup not closed under product at ({a}, {b})")
    noncentral = _first_noncentral(group, np.array(sub, dtype=np.int64))
    if noncentral is not None:
        a, g = noncentral
        raise NotCentralError(f"subgroup element {a} does not commute with {g}")

    # Each coset's least member, for every element; the distinct ones,
    # ascending, are the representatives, and coset[x] is x's coset.
    least = group.table[:, sub].min(axis=1)
    reps, coset = np.unique(least, return_inverse=True)
    table = coset[group.table[reps[:, None], reps[None, :]]]
    names = None
    if group.names:
        names = [group.name_of(r) + "N" for r in reps.tolist()]
    q = make_group(table, names=names)
    proj = GroupHom(group, q, tuple(coset.tolist()))
    return q, proj


def find_splitting(ext: CentralExtension, cap: int = 2 ** 16) -> Optional[Section]:
    """Exhaustive search for a homomorphic section; None when the extension
    does not split.  The search space is the product of the fibers."""
    space = 1
    for b in range(ext.base.order):
        space *= len(ext.fiber(b))
    if space > cap:
        raise CapExceededError(space, cap, "splitting search")
    base, total = ext.base, ext.total
    fibers = [ext.fiber(b) for b in range(base.order)]
    fibers[base.identity] = (total.identity,)
    for cand in itertools.product(*fibers):
        ok = True
        for a in range(base.order):
            for b in range(base.order):
                if total.mul(cand[a], cand[b]) != cand[base.mul(a, b)]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return Section(ext, cand)
    return None


# ------------------------------------------------- abelian group structure ----


def _generator_decomposition(group: FiniteGroup) -> list[tuple[int, int]]:
    """Generators (element, order) presenting an abelian group as a direct
    sum of cyclic parts, largest order first."""
    if group.order == 1:
        return []
    orders = [group.element_order(a) for a in range(group.order)]
    top = max(orders)
    a = orders.index(top)
    powers = [group.power(a, k) for k in range(top)]
    if top == group.order:
        return [(a, top)]
    quot, proj = quotient_by_central(group, powers)
    gens = [(a, top)]
    for qgen, n in _generator_decomposition(quot):
        h = min(x for x in range(group.order) if proj(x) == qgen)
        k = powers.index(group.power(h, n))
        if k % n:
            raise AssertionError("abelian decomposition lift failed")
        g = group.mul(h, group.power(a, (top - k // n) % top))
        if group.element_order(g) != n:
            raise AssertionError("abelian decomposition produced a wrong-order lift")
        gens.append((g, n))
    return gens


def abelian_structure(group: FiniteGroup) -> tuple[AbelianGroup, list[tuple[int, ...]], dict[tuple[int, ...], int]]:
    """Identify an abelian Cayley-table group with a residue-tuple group.

    Returns (abelian group, element -> tuple list, tuple -> element dict).
    The identification is a verified isomorphism and the factors come out
    in ascending invariant-factor order.
    """
    if not group.is_abelian():
        raise ValueError("group is not abelian")
    gens = list(reversed(_generator_decomposition(group)))
    factors = tuple(n for _, n in gens)
    ab = AbelianGroup(factors)
    from_tuple: dict[tuple[int, ...], int] = {}
    for combo in ab.elements():
        x = group.identity
        for (g, _), e in zip(gens, combo):
            x = group.mul(x, group.power(g, e))
        if combo in from_tuple:
            raise AssertionError("abelian decomposition is not injective")
        from_tuple[combo] = x
    if len(set(from_tuple.values())) != group.order:
        raise AssertionError("abelian decomposition does not cover the group")
    from_tuple_inv = {x: t for t, x in from_tuple.items()}
    to_tuple = [from_tuple_inv[x] for x in range(group.order)]
    return ab, to_tuple, {t: x for t, x in from_tuple.items()}


# --------------------------------------------------------------- builtins ----

BUILTIN_EXTENSIONS = ("z4_over_z2", "split_z2", "q8_over_v4", "d8_over_v4")


def klein_four_group() -> FiniteGroup:
    prod, _, _ = direct_product([cyclic_group(2), cyclic_group(2)])
    return prod


@lru_cache(maxsize=None)
def builtin_extension(name: str) -> CentralExtension:
    z2 = AbelianGroup((2,))
    if name == "z4_over_z2":
        return make_extension(cyclic_group(4), cyclic_group(2), [0, 1, 0, 1], z2, [0, 2])
    if name == "split_z2":
        return make_extension(klein_four_group(), cyclic_group(2), [0, 0, 1, 1], z2, [0, 1])
    if name == "q8_over_v4":
        return make_extension(quaternion_group(), klein_four_group(), [0, 0, 2, 2, 1, 1, 3, 3], z2, [0, 1])
    if name == "d8_over_v4":
        return make_extension(dihedral_group_8(), klein_four_group(), [0, 2, 0, 2, 1, 3, 1, 3], z2, [0, 2])
    raise ValueError(
        f"unknown builtin extension {name!r}; choose from {', '.join(BUILTIN_EXTENSIONS)}"
    )


# ---------------------------------------------------------------- file I/O ----


def write_group(path, group: FiniteGroup) -> None:
    """First line the order, then the table row by row, then an optional names line."""
    lines = [str(group.order)]
    for a in range(group.order):
        lines.append(" ".join(str(int(x)) for x in group.table[a]))
    if group.names:
        lines.append("names: " + " ".join(group.names))
    Path(path).write_text("\n".join(lines) + "\n")


def read_group(path) -> FiniteGroup:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"empty group file {path}")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"bad group order line {lines[0]!r} in {path}") from None
    if len(lines) < n + 1:
        raise ValueError(f"group file {path} is truncated")
    table = []
    for ln in lines[1 : n + 1]:
        row = [int(t) for t in ln.split()]
        if len(row) != n:
            raise ValueError(f"bad table row {ln!r} in {path}")
        table.append(row)
    names = None
    for tail in lines[n + 1 :]:
        if names is not None or not tail.startswith("names:"):
            raise ValueError(f"unexpected trailing line {tail!r} in {path}")
        names = tail.split()[1:]
    return make_group(table, names=names)


def write_extension(path, ext: CentralExtension, total_ref: Optional[str] = None,
                    base_ref: Optional[str] = None) -> None:
    """Write the extension plus, unless refs are given, its two group files."""
    path = Path(path)
    if total_ref is None:
        total_ref = path.stem + ".total.grp"
        write_group(path.parent / total_ref, ext.total)
    if base_ref is None:
        base_ref = path.stem + ".base.grp"
        write_group(path.parent / base_ref, ext.base)
    lines = [
        f"total {total_ref}",
        f"base {base_ref}",
        f"kernel {ext.kernel.format()}",
        "projection " + " ".join(map(str, ext.projection.map)),
        "embed " + " ".join(map(str, ext.embed)),
    ]
    path.write_text("\n".join(lines) + "\n")


def read_extension(path) -> CentralExtension:
    """Load and fully re-verify an extension from its file."""
    path = Path(path)
    fields: dict[str, str] = {}
    for ln in path.read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, _, rest = ln.partition(" ")
        if key in fields:
            raise ValueError(f"repeated {key} line {ln!r} in {path}")
        fields[key] = rest.strip()
    for key in ("total", "base", "kernel", "projection", "embed"):
        if key not in fields:
            raise ValueError(f"extension file {path} is missing the {key} line")
    total = read_group(path.parent / fields["total"])
    base = read_group(path.parent / fields["base"])
    kernel = parse_group(fields["kernel"])
    projection = [int(t) for t in fields["projection"].split()]
    embed = [int(t) for t in fields["embed"].split()]
    return make_extension(total, base, projection, kernel, embed)
