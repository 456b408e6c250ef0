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

The fused groups do not depend on the sections: they are built once per
(extensions, fusion), and a build with other component sections shares
them.  The product cocycle's group is the fused extension's base.

The fused sum is one product of the concatenated component cochains with
the matrix of mu's generator images, split into 16-bit limbs so that it
is exact for factors up to 2^31 - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .coefgroup import AbelianGroup, AbelianHom, direct_sum, fusion_hom_mod2
from .cochain import Cochain, classes_equal, coboundary_matrix
from .errors import BaseMismatchError, InternalCheckError
from .fingroup import (
    CentralExtension,
    GroupHom,
    Section,
    _bind_section,
    canonical_section,
    direct_product,
    make_extension,
    pack_product,
    pack_rows,
    quotient_by_central,
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
    total, _, _ = direct_product([e.total for e in exts])
    base, _, _ = direct_product([e.base for e in exts])
    kernel, _, _ = direct_sum([e.kernel for e in exts])
    # Product and direct-sum elements enumerate as itertools.product of the
    # components' elements, last factor fastest.
    total_orders = [e.total.order for e in exts]
    base_orders = [e.base.order for e in exts]
    proj_map = pack_product(base_orders, [e.projection_table for e in exts])
    embed = pack_product(total_orders, [e.embed_table for e in exts])
    ext = make_extension(total, base, proj_map.tolist(), kernel, embed.tolist())
    return ext, _product_section(ext, sections)


def _product_section(prod: CentralExtension, sections: Sequence[Section]) -> Section:
    """The componentwise section of the product of the sections' extensions."""
    orders = [s.extension.total.order for s in sections]
    return Section(prod, tuple(pack_product(orders, [s.table for s in sections]).tolist()))


@dataclass(frozen=True, eq=False)
class FusedExtension:
    """Product extension with its kernel collapsed along a fusion hom.

    fused is the central extension actually used for lifting, and coset_map
    is the quotient map from the product's total group onto fused's;
    section is the one induced by pushing the componentwise section
    product_section through coset_map.  The product stage is kept for
    cross-checks.
    """

    components: tuple[CentralExtension, ...]
    fusion: AbelianHom
    product: CentralExtension
    product_section: Section
    fused: CentralExtension
    coset_map: GroupHom
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
    component kernels.  The groups are built once per extensions and fusion;
    other sections than the canonical ones only replace the two sections."""
    exts = tuple(exts)
    if sections is not None:
        sections = _component_sections(exts, sections)
        if all(s.map == canonical_section(e).map for s, e in zip(sections, exts)):
            sections = None
    fe = _fused_default(exts, fusion)
    if sections is None:
        return fe
    product_section = _product_section(fe.product, sections)
    induced = Section(fe.fused, tuple(map(fe.coset_map, product_section.map)))
    return replace(fe, product_section=product_section, section=induced)


@lru_cache(maxsize=32)
def _fused_default(exts: tuple[CentralExtension, ...], fusion: AbelianHom) -> FusedExtension:
    """The fused build with the canonical component sections."""
    kernel_sum, _, _ = direct_sum([e.kernel for e in exts])
    if fusion.domain != kernel_sum:
        raise ValueError(
            f"fusion domain {fusion.domain.format()} does not match the summed kernels "
            f"{kernel_sum.format()}"
        )
    if not fusion.is_surjective():
        raise ValueError("fusion hom must be surjective")

    prod_ext, prod_section = product_extension(exts)
    # Index in fusion.codomain of the image of each element of the summed
    # kernels, in canonical order.
    target = fusion.codomain
    image_rows = _matvec_mod(fusion.image_matrix.T, prod_ext.kernel_rows.T, target.moduli[:, None]).T
    image_index = pack_rows(target.factors, image_rows)
    collapsed = prod_ext.embed_table[image_index == 0]
    quotient, to_quotient = quotient_by_central(prod_ext.total, collapsed.tolist())
    coset = np.array(to_quotient.map, dtype=np.int64)

    # Both maps are constant on what they scatter together: projection on
    # each coset of the collapsed kernel, and the embedded coset on each
    # fiber of the fusion.
    proj_map = np.zeros(quotient.order, dtype=np.int64)
    proj_map[coset] = prod_ext.projection_table
    embed = np.zeros(target.order, dtype=np.int64)
    embed[image_index] = coset[prod_ext.embed_table]

    fused = make_extension(quotient, prod_ext.base, proj_map.tolist(), target, embed.tolist())
    return FusedExtension(
        components=exts,
        fusion=fusion,
        product=prod_ext,
        product_section=prod_section,
        fused=fused,
        coset_map=to_quotient,
        section=Section(fused, tuple(coset[prod_section.table].tolist())),
    )


def _component_sections(
    exts: Sequence[CentralExtension], sections: Optional[Sequence[Section]]
) -> tuple[Section, ...]:
    sections = (None,) * len(exts) if sections is None else tuple(sections)
    if len(sections) != len(exts):
        raise ValueError("need one section per extension")
    return tuple(map(_bind_section, exts, sections))


# ------------------------------------------------------------- obstruction ----


def _summed_obstruction(
    cocycles: Sequence[BundleCocycle],
    exts: Sequence[CentralExtension],
    fusion: AbelianHom,
    sections: Sequence[Section],
) -> Cochain:
    """mu applied triangle by triangle to the tuple of component obstruction
    cochains: one product of the concatenated cochains with mu's matrix of
    generator images, exact for factors up to 2^31 - 1 (see _matvec_mod).

    A component that repeats an earlier one (the same cocycle, extension and
    section objects, as in a doubled cocycle) reuses its cochain, so each
    distinct component's obstruction cochain is computed once per call."""
    arrays: dict[tuple, np.ndarray] = {}
    parts = []
    for component in zip(cocycles, exts, sections):
        if component not in arrays:
            arrays[component] = obstruction_cocycle(*component).array
        parts.append(arrays[component])
    codomain = fusion.codomain
    values = _matvec_mod(fusion.image_matrix.T, np.concatenate(parts, axis=1).T, codomain.moduli[:, None]).T
    return Cochain(cocycles[0].base, 2, codomain, values)


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
    fe = fused_extension(exts, fusion, sections)
    use_section = fe.section if fused_section is None else fused_section
    fused_q = obstruction_cocycle(product_cocycle(cocycles), fe.fused, use_section)
    summed = _summed_obstruction(cocycles, exts, fusion, sections)
    triangles = cocycles[0].base.triangles()
    differ = fused_q.array != summed.array
    mism = tuple(triangles[i] for i in np.flatnonzero(differ.any(axis=1))) if differ.any() else ()
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
