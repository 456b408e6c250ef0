"""Reference group constructions: the loop-based versions, kept frozen.

These are the element-by-element constructions that cechlift.fingroup
now carries out with whole-table gathers: the direct product's table and
maps, the quotient by a central subgroup, the identity and inverse
search of make_group, the checks of make_extension, and an extension's
fibers, kernel lookup and canonical section.  The library promises the
same tables, maps, witnesses and messages as these routines, and the
tests hold it to that.

Groups are duck-typed: anything with `order`, `table` (table[a][b] is
a*b), `identity` and `names` will do, a cechlift FiniteGroup or the
RefGroup returned here.  Kernels are cechlift AbelianGroups.  Only the
error types are imported from cechlift.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from cechlift.errors import (
    KernelMismatchError,
    NotAGroupError,
    NotCentralError,
    NotSubgroupError,
    NotSurjectiveError,
)

MAX_GROUP_ORDER = 256


@dataclass(frozen=True, eq=False)
class RefGroup:
    order: int
    table: np.ndarray
    identity: int
    inverse: tuple
    names: Optional[tuple]


def make_group_reference(table, names=None) -> RefGroup:
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
        left = t[t[:, :], c]
        right = t[:, t[:, c]]
        if not np.array_equal(left, right):
            bad = np.argwhere(left != right)[0]
            a, b = int(bad[0]), int(bad[1])
            raise NotAGroupError("associativity fails", witness=(a, b, c))

    idx = np.arange(n)
    identity = None
    for e in range(n):
        if np.array_equal(t[e], idx) and np.array_equal(t[:, e], idx):
            identity = e
            break
    if identity is None:
        raise NotAGroupError("no two-sided identity element")

    inverse = []
    for a in range(n):
        hits = np.nonzero(t[a] == identity)[0]
        if hits.size == 0 or t[int(hits[0]), a] != identity:
            raise NotAGroupError("no two-sided inverse", witness=a)
        inverse.append(int(hits[0]))

    frozen_names = tuple(str(x) for x in names) if names is not None else None
    if frozen_names is not None and len(frozen_names) != n:
        raise ValueError("need one name per element")
    return RefGroup(n, t, identity, tuple(inverse), frozen_names)


def _mul(g, a, b):
    return int(g.table[a][b])


def direct_product_reference(groups):
    """(product group, injection maps, projection maps)."""
    orders = [g.order for g in groups]
    total = 1
    for n in orders:
        total *= n
    if total > MAX_GROUP_ORDER:
        raise ValueError(f"product order {total} exceeds cap {MAX_GROUP_ORDER}")

    tuples = list(itertools.product(*(range(n) for n in orders)))
    index = {t: i for i, t in enumerate(tuples)}
    table = [
        [index[tuple(_mul(g, a[i], b[i]) for i, g in enumerate(groups))] for b in tuples]
        for a in tuples
    ]
    names = None
    if all(g.names for g in groups):
        names = [",".join(g.names[t[i]] for i, g in enumerate(groups)) for t in tuples]
    prod = make_group_reference(table, names=names)

    injections = []
    projections = []
    for i, g in enumerate(groups):
        inj_map = []
        for a in range(g.order):
            t = tuple(a if j == i else groups[j].identity for j in range(len(groups)))
            inj_map.append(index[t])
        injections.append(tuple(inj_map))
        projections.append(tuple(t[i] for t in tuples))
    return prod, tuple(injections), tuple(projections)


def quotient_by_central_reference(group, subgroup):
    """(coset group, coset map), cosets ordered by their least member."""
    sub = sorted(set(int(x) for x in subgroup))
    if group.identity not in sub:
        raise NotSubgroupError("subgroup must contain the identity")
    subset = set(sub)
    for a in sub:
        if group.inverse[a] not in subset:
            raise NotSubgroupError(f"subgroup not closed under inverse at {a}")
        for b in sub:
            if _mul(group, a, b) not in subset:
                raise NotSubgroupError(f"subgroup not closed under product at ({a}, {b})")
    table = np.asarray(group.table)
    for a in sub:
        if not np.array_equal(table[a], table[:, a]):
            g = int(np.nonzero(table[a] != table[:, a])[0][0])
            raise NotCentralError(f"subgroup element {a} does not commute with {g}")

    coset_of = {}
    reps = []
    for x in range(group.order):
        if x in coset_of:
            continue
        members = sorted(_mul(group, x, s) for s in sub)
        cid = len(reps)
        reps.append(members[0])
        for m in members:
            coset_of[m] = cid
    quotient_table = [[coset_of[_mul(group, a, b)] for b in reps] for a in reps]
    names = None
    if group.names:
        names = [group.names[r] + "N" for r in reps]
    q = make_group_reference(quotient_table, names=names)
    return q, tuple(coset_of[x] for x in range(group.order))


def homomorphism_reference(domain, codomain, mapping):
    """The checks a GroupHom runs when built; returns the map as a tuple."""
    m = np.asarray(mapping, dtype=np.int64)
    if m.shape != (domain.order,):
        raise ValueError("map length must equal the domain order")
    if m.min() < 0 or m.max() >= codomain.order:
        raise ValueError("map image out of range")
    lhs = np.asarray(codomain.table)[m[:, None], m[None, :]]
    rhs = m[np.asarray(domain.table)]
    if not np.array_equal(lhs, rhs):
        bad = np.argwhere(lhs != rhs)[0]
        raise ValueError(f"not a homomorphism at pair ({int(bad[0])}, {int(bad[1])})")
    return tuple(int(x) for x in mapping)


@dataclass(frozen=True)
class RefExtension:
    fibers: tuple
    kernel_of: dict
    canonical_section: tuple


def make_extension_reference(total, base, projection_map, kernel, embed) -> RefExtension:
    """make_extension's checks in order, then the fibers, the kernel lookup
    and the canonical section as the extension used to build them."""
    proj = homomorphism_reference(total, base, tuple(int(x) for x in projection_map))
    hit = set(proj)
    if len(hit) != base.order:
        missing = min(set(range(base.order)) - hit)
        raise NotSurjectiveError(f"projection misses base element {missing}")

    embed = tuple(int(x) for x in embed)
    if len(embed) != kernel.order:
        raise KernelMismatchError(
            f"embedding lists {len(embed)} elements, kernel has order {kernel.order}"
        )
    fiber_e = {a for a in range(total.order) if proj[a] == base.identity}
    if set(embed) != fiber_e or len(set(embed)) != len(embed):
        stray = sorted(fiber_e.symmetric_difference(embed))
        raise KernelMismatchError(f"embedded kernel differs from the identity fiber at {stray}")

    elems = list(kernel.elements())
    pos = {k: i for i, k in enumerate(elems)}
    if embed[pos[kernel.zero()]] != total.identity:
        raise KernelMismatchError("kernel zero must embed to the total identity")
    for a in elems:
        for b in elems:
            lhs = _mul(total, embed[pos[a]], embed[pos[b]])
            if lhs != embed[pos[kernel.add(a, b)]]:
                raise KernelMismatchError(f"embedding is not a homomorphism at {a}, {b}")

    table = np.asarray(total.table)
    for x in embed:
        if not np.array_equal(table[x], table[:, x]):
            g = int(np.nonzero(table[x] != table[:, x])[0][0])
            raise NotCentralError(
                f"embedded kernel element {x} does not commute with element {g}"
            )

    fibers = [[] for _ in range(base.order)]
    for x in range(total.order):
        fibers[proj[x]].append(x)
    fibers = tuple(tuple(f) for f in fibers)
    kernel_of = {x: elem for elem, x in zip(kernel.elements(), embed)}
    choice = [min(fibers[b]) for b in range(base.order)]
    choice[base.identity] = total.identity
    return RefExtension(fibers, kernel_of, tuple(choice))


def _pack(orders, values):
    idx = 0
    for o, v in zip(orders, values):
        idx = idx * o + v
    return idx


def product_extension_maps_reference(exts):
    """(projection, embed) of the product of the extensions: the tuples of
    component maps, packed mixed-radix, last factor fastest."""
    total_orders = [e.total.order for e in exts]
    base_orders = [e.base.order for e in exts]
    proj_map = [_pack(base_orders, t) for t in itertools.product(*(e.projection.map for e in exts))]
    embed = [_pack(total_orders, t) for t in itertools.product(*(e.embed for e in exts))]
    return tuple(proj_map), tuple(embed)


def fused_maps_reference(product, fusion):
    """(coset group, coset map, projection, embed) of the product extension
    divided by the embedded kernel of the fusion hom."""
    collapsed = [product.embed[product.kernel.element_index(k)] for k in fusion.kernel_elements()]
    quotient, coset_of = quotient_by_central_reference(product.total, collapsed)
    proj_map = [0] * quotient.order
    for x, cid in enumerate(coset_of):
        proj_map[cid] = product.projection.map[x]
    embed = []
    for k in fusion.codomain.elements():
        preimage = next(a for a in fusion.domain.elements() if fusion(a) == k)
        embed.append(coset_of[product.embed[product.kernel.element_index(preimage)]])
    return quotient, coset_of, tuple(proj_map), tuple(embed)
