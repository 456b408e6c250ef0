"""Property tests of the fused-section path and of the cached product groups.

Whatever the component sections, the fused obstruction with the induced
section equals the fused sum of the component ones, and direct_product
returns the same verified objects for the same component groups.  Needs
hypothesis; without it the module is skipped.
"""

import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cechlift.coefgroup import fusion_hom_mod2
from cechlift.fingroup import (
    BUILTIN_EXTENSIONS,
    builtin_extension,
    cyclic_group,
    dihedral_group_8,
    direct_product,
    klein_four_group,
    quaternion_group,
    random_section,
)
from cechlift.nerve import BUILTIN_COMPLEXES, builtin_complex
from cechlift.obstruct import random_cocycle
from cechlift.whitney import additivity_check, whitney_obstruction

extensions = st.sampled_from(BUILTIN_EXTENSIONS).map(builtin_extension)
complexes = st.sampled_from(BUILTIN_COMPLEXES).map(builtin_complex)


@settings(max_examples=40, deadline=None)
@given(extensions, extensions, complexes, st.integers(0, 2**16), st.booleans())
def test_induced_section_adds_under_any_component_sections(e1, e2, x, seed, normalized):
    rng = random.Random(seed)
    secs = [random_section(e, rng, normalized=normalized) for e in (e1, e2)]
    cocycles = (random_cocycle(x, e1.base, seed), random_cocycle(x, e2.base, seed + 1))
    mu = fusion_hom_mod2(2)
    report = additivity_check(cocycles, (e1, e2), mu, sections=secs)
    assert report.cochain_equal and report.class_equal
    whitney_obstruction(cocycles, (e1, e2), mu, sections=secs)


small_groups = st.sampled_from(
    [cyclic_group(n) for n in (1, 2, 3, 4)] + [klein_four_group(), quaternion_group(), dihedral_group_8()]
)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_groups, min_size=1, max_size=3).filter(lambda gs: math.prod(g.order for g in gs) <= 256))
def test_direct_product_is_built_once_per_component_groups(groups):
    prod, injections, projections = direct_product(groups)
    again = direct_product(list(groups))
    assert again[0] is prod
    assert all(a is b for a, b in zip(again[1] + again[2], injections + projections))
    assert isinstance(injections, tuple) and isinstance(projections, tuple)
    for g, inj, proj in zip(groups, injections, projections):
        assert inj.domain is g and proj.codomain is g
        assert all(proj(inj(a)) == a for a in g.elements())
