"""Whitney sums of bundle cocycles and fused central extensions.

Summing bundles at the cocycle level is componentwise: the product cocycle
takes values in the product of the structure groups, and lifting it
through the product of the extensions has kernel the direct sum of the
component kernels.  A surjective fusion homomorphism mu on that direct sum
collapses the kernel: the fused extension is the product of the totals
divided by the embedded kernel of mu, a construction that stays a central
extension of the product base with kernel the codomain of mu.

Two facts drive everything here, and both are asserted rather than
assumed.  With the induced section (quotient of the componentwise one) the
fused obstruction cochain equals mu applied triangle by triangle to the
tuple of component obstruction cochains, exactly, not just up to
coboundary.  With arbitrary sections the same identity holds at the level
of cohomology classes.  For the mod-2 fusion of a kernel-Z2 extension with
itself the two component cochains coincide, their mod-2 sum is identically
zero, and so a doubled cocycle always lifts; the number of inequivalent
lifts is the order of H^1 of the nerve with Z2 coefficients.

The fused sum is one product of the concatenated component cochains with
the matrix of mu's generator images, split into 16-bit limbs so that it
is exact for factors up to 2^31 - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .coefgroup import AbelianGroup, AbelianHom, direct_sum, fusion_hom_mod2
from .cochain import Cochain, classes_equal, coboundary_matrix
from .errors import BaseMismatchError, InternalCheckError
from .fingroup import (
    CentralExtension,
    Section,
    canonical_section,
    direct_product,
    make_extension,
    pack_rows,
    pack_tuple,
    quotient_by_central,
    same_extension,
    unpack_tuple,
)
from .linalg import _matvec_mod, rank_mod_p
from .nerve import SimplicialComplex
from .obstruct import (
    BundleCocycle,
    ObstructionResult,
    count_inequivalent_lifts,
    obstruction_class,
    obstruction_cocycle,
)

__all__ = [
    "FusedExtension",
    "AdditivityReport",
    "product_cocycle",
    "product_extension",
    "fused_extension",
    "whitney_obstruction",
    "additivity_check",
    "hyperbolic_obstruction",
    "hyperbolic_structure_count",
    "z2_h1_order_from_ranks",
]


def product_cocycle(cocycles: Sequence[BundleCocycle]) -> BundleCocycle:
    """Componentwise product over a shared nerve, valued in the product group."""
    if not cocycles:
        raise ValueError("need at least one cocycle")
    first = cocycles[0]
    for s in cocycles[1:]:
        if s.base is not first.base and s.base.simplices != first.base.simplices:
            raise BaseMismatchError("cocycles live over different complexes")
    prod, _, _ = direct_product([s.group for s in cocycles])
    orders = [s.group.order for s in cocycles]
    values = pack_rows(orders, np.stack([s.table for s in cocycles], axis=1))
    return BundleCocycle(first.base, prod, values)


def product_extension(
    exts: Sequence[CentralExtension],
    sections: Optional[Sequence[Section]] = None,
) -> tuple[CentralExtension, Section]:
    """Product of central extensions with kernel the direct sum of the
    kernels, together with the componentwise section."""
    if not exts:
        raise ValueError("need at least one extension")
    sections = _component_sections(exts, sections)
    total, _, total_projs = direct_product([e.total for e in exts])
    base, _, _ = direct_product([e.base for e in exts])
    total_orders = [e.total.order for e in exts]
    base_orders = [e.base.order for e in exts]

    proj_map = []
    for x in range(total.order):
        parts = unpack_tuple(total_orders, x)
        proj_map.append(pack_tuple(base_orders, [e.projection(p) for e, p in zip(exts, parts)]))

    kernel, _, kernel_projs = direct_sum([e.kernel for e in exts])
    embed = []
    for k in kernel.elements():
        parts = [proj(k) for proj in kernel_projs]
        embed.append(pack_tuple(total_orders, [e.embed_element(p) for e, p in zip(exts, parts)]))

    ext = make_extension(total, base, proj_map, kernel, embed)
    sect_map = []
    for b in range(base.order):
        parts = unpack_tuple(base_orders, b)
        sect_map.append(pack_tuple(total_orders, [s(p) for s, p in zip(sections, parts)]))
    return ext, Section(ext, tuple(sect_map))


@dataclass(frozen=True, eq=False)
class FusedExtension:
    """Product extension with its kernel collapsed along a fusion hom.

    fused is the central extension actually used for lifting; section is
    the one induced by pushing the componentwise section through the
    quotient.  The product stage is kept for cross-checks.
    """

    components: tuple[CentralExtension, ...]
    fusion: AbelianHom
    product: CentralExtension
    product_section: Section
    fused: CentralExtension
    section: Section

    @property
    def kernel(self) -> AbelianGroup:
        return self.fused.kernel


def fused_extension(
    exts: Sequence[CentralExtension],
    fusion: AbelianHom,
    sections: Optional[Sequence[Section]] = None,
) -> FusedExtension:
    """Quotient the product of the extensions by the embedded kernel of the
    fusion hom.  The fusion must be surjective from the direct sum of the
    component kernels.  Without sections, or when every section is its
    extension's canonical one, the result is the cached default build."""
    exts = tuple(exts)
    if sections is None:
        return _fused_default(exts, fusion)
    sections = _component_sections(exts, sections)
    if all(s.map == canonical_section(e).map for s, e in zip(sections, exts)):
        return _fused_default(exts, fusion)
    return _build_fused(exts, fusion, sections)


@lru_cache(maxsize=None)
def _fused_default(exts: tuple[CentralExtension, ...], fusion: AbelianHom) -> FusedExtension:
    return _build_fused(exts, fusion, _component_sections(exts, None))


def _component_sections(
    exts: Sequence[CentralExtension], sections: Optional[Sequence[Section]]
) -> tuple[Section, ...]:
    if sections is None:
        return tuple(canonical_section(e) for e in exts)
    sections = tuple(sections)
    if len(sections) != len(exts):
        raise ValueError("need one section per extension")
    out = []
    for e, s in zip(exts, sections):
        if s.extension is e:
            out.append(s)
        elif same_extension(s.extension, e):
            out.append(Section(e, s.map))
        else:
            raise ValueError("section does not belong to its extension")
    return tuple(out)


def _build_fused(
    exts: tuple[CentralExtension, ...],
    fusion: AbelianHom,
    sections: tuple[Section, ...],
) -> FusedExtension:
    kernel_sum, _, _ = direct_sum([e.kernel for e in exts])
    if fusion.domain != kernel_sum:
        raise ValueError(
            f"fusion domain {fusion.domain.format()} does not match the summed kernels "
            f"{kernel_sum.format()}"
        )
    if not fusion.is_surjective():
        raise ValueError("fusion hom must be surjective")

    prod_ext, prod_section = product_extension(exts, sections)
    collapsed = [prod_ext.embed_element(k) for k in fusion.kernel_elements()]
    quotient, to_quotient = quotient_by_central(prod_ext.total, collapsed)

    reps: dict[int, int] = {}
    for x in range(prod_ext.total.order):
        cid = to_quotient(x)
        if cid not in reps:
            reps[cid] = x
    proj_map = [prod_ext.projection(reps[cid]) for cid in range(quotient.order)]

    target = fusion.codomain
    embed = []
    for k in target.elements():
        preimage = next(a for a in fusion.domain.elements() if fusion(a) == k)
        embed.append(to_quotient(prod_ext.embed_element(preimage)))

    fused = make_extension(quotient, prod_ext.base, proj_map, target, embed)
    induced = Section(fused, tuple(to_quotient(prod_section(b)) for b in range(prod_ext.base.order)))
    return FusedExtension(
        components=exts,
        fusion=fusion,
        product=prod_ext,
        product_section=prod_section,
        fused=fused,
        section=induced,
    )


# ------------------------------------------------------------- obstruction ----


def _summed_obstruction(
    cocycles: Sequence[BundleCocycle],
    exts: Sequence[CentralExtension],
    fusion: AbelianHom,
    sections: Sequence[Section],
) -> Cochain:
    """mu applied triangle by triangle to the tuple of component obstruction
    cochains: one product of the concatenated cochains with mu's matrix of
    generator images, exact for factors up to 2^31 - 1 (see _matvec_mod)."""
    parts = [
        obstruction_cocycle(s, e, sect).array for s, e, sect in zip(cocycles, exts, sections)
    ]
    images = np.array(fusion.images, dtype=np.int64).reshape(fusion.domain.rank, fusion.codomain.rank)
    moduli = np.array(fusion.codomain.factors, dtype=np.int64)
    values = _matvec_mod(images.T, np.concatenate(parts, axis=1).T, moduli[:, None]).T
    return Cochain(cocycles[0].base, 2, fusion.codomain, values)


def whitney_obstruction(
    cocycles: Sequence[BundleCocycle],
    exts: Sequence[CentralExtension],
    fusion: AbelianHom,
    sections: Optional[Sequence[Section]] = None,
) -> ObstructionResult:
    """Obstruction of the product cocycle through the fused extension.

    Uses the section induced by the componentwise one, for which the fused
    obstruction cochain must equal the fused sum of the component cochains
    on the nose; that identity is re-checked on every call.
    """
    if len(cocycles) != len(exts):
        raise ValueError("need one extension per cocycle")
    sections = _component_sections(exts, sections)
    fe = fused_extension(exts, fusion, sections)
    summed = _summed_obstruction(cocycles, exts, fusion, sections)
    result = obstruction_class(product_cocycle(cocycles), fe.fused, fe.section)
    if not np.array_equal(result.cochain.array, summed.array):
        raise InternalCheckError(
            "fused obstruction cochain differs from the fused sum of component cochains"
        )
    return result


@dataclass(frozen=True)
class AdditivityReport:
    """Comparison of the fused obstruction against the sum of component ones."""

    cochain_equal: bool
    class_equal: bool
    mismatched_triangles: tuple[tuple[int, int, int], ...]
    fused_cochain: Cochain
    summed_cochain: Cochain


def additivity_check(
    cocycles: Sequence[BundleCocycle],
    exts: Sequence[CentralExtension],
    fusion: AbelianHom,
    sections: Optional[Sequence[Section]] = None,
    fused_section: Optional[Section] = None,
) -> AdditivityReport:
    """Compare the fused obstruction cochain and class against the fused sum
    of the component ones, under any section choices.

    With the induced fused section the cochains agree exactly.  An unrelated
    fused section can break the cochain-level equality, but the classes
    always agree, and the report records both facts plus any triangles where
    the cochains differ.
    """
    sections = _component_sections(exts, sections)
    if fused_section is not None:
        # The fused groups do not depend on the component sections, and the
        # induced section is unused here, so the cached default build works.
        fe = fused_extension(exts, fusion)
        use_section = fused_section
    else:
        fe = fused_extension(exts, fusion, sections)
        use_section = fe.section
    fused_q = obstruction_cocycle(product_cocycle(cocycles), fe.fused, use_section)
    summed = _summed_obstruction(cocycles, exts, fusion, sections)
    triangles = cocycles[0].base.triangles()
    mism = tuple(
        triangles[i] for i in np.flatnonzero((fused_q.array != summed.array).any(axis=1))
    )
    return AdditivityReport(
        cochain_equal=not mism,
        class_equal=classes_equal(fused_q, summed),
        mismatched_triangles=mism,
        fused_cochain=fused_q,
        summed_cochain=summed,
    )


# -------------------------------------------------------- doubled cocycles ----


def _require_z2_kernel(ext: CentralExtension) -> None:
    if ext.kernel.factors != (2,):
        raise ValueError("doubling needs an extension with kernel Z2")


def hyperbolic_obstruction(s: BundleCocycle, ext: CentralExtension) -> ObstructionResult:
    """Obstruction of the doubled cocycle (s, s) through the mod-2 fusion of
    the extension with itself.

    The two component obstruction cochains are identical, so their mod-2 sum
    vanishes identically and the doubled cocycle always lifts; the returned
    result carries a verified lift.  Failure of either fact is a bug, not a
    data condition, and raises InternalCheckError.
    """
    _require_z2_kernel(ext)
    result = whitney_obstruction((s, s), (ext, ext), fusion_hom_mod2(2))
    if not result.cochain.is_zero():
        raise InternalCheckError("doubled obstruction cochain is not identically zero")
    if not result.trivial or result.lift is None:
        raise InternalCheckError("doubled cocycle failed to lift")
    return result


def z2_h1_order_from_ranks(complex_: SimplicialComplex) -> int:
    """|Z^1| / |B^1| with Z2 coefficients, 2^(E - rank delta^1 - rank delta^0)
    from GF(2) ranks, independent of the Smith-form route to H^1."""
    edges = complex_.dim_count(1)
    return 2 ** (
        edges - rank_mod_p(coboundary_matrix(complex_, 1), 2) - rank_mod_p(coboundary_matrix(complex_, 0), 2)
    )


def hyperbolic_structure_count(s: BundleCocycle, ext: CentralExtension) -> int:
    """Number of inequivalent lifts of the doubled cocycle, which is the
    order of H^1 of the nerve with Z2 coefficients.

    The count comes from the invariant factors of H^1 and is checked against
    z2_h1_order_from_ranks.
    """
    _require_z2_kernel(ext)
    fe = fused_extension((ext, ext), fusion_hom_mod2(2))
    count = count_inequivalent_lifts(product_cocycle((s, s)), fe.fused)
    if count is None:
        raise InternalCheckError("doubled cocycle reported as obstructed")
    if count != z2_h1_order_from_ranks(s.base):
        raise InternalCheckError("lift count disagrees with the H^1 order")
    return count
