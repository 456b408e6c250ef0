"""Property tests of composite-modulus solves and kernel draws against the
frozen dense references.

A solve applies the Smith form's row log to b and reads only V's image
columns, replayed from the column operations they depend on; a kernel
draw reads the full V.  Small integer matrices have non-unit pivots and
Euclidean swaps, so a column can be a source and be written afterwards.
Each order of the two reads must give the references' witnesses and
draws, on the dense U and V that `dense_views` replays in full.  Needs
hypothesis; without it the module is skipped.
"""

import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cechlift.cochain import coboundary_matrix
from cechlift.errors import CapExceededError
from cechlift.linalg import sample_kernel_mod_m, smith_normal_form, solve_mod_m
from dense_views import check_selective_replay, dense_snf
from gfp_reference import sample_kernel_mod_m_reference, solve_mod_m_reference
from sparse import MODULI, SWEEP_LABELS, sparse_rhs, sparse_sweep, systems
from subdivision import complex_by_label


def _check_both_orders(a, m, b, seed):
    """Solve then draw on one Smith form, draw then solve on another, and
    compare both with the references on a third."""
    first, second, ref = smith_normal_form(a), smith_normal_form(a), dense_snf(smith_normal_form(a))
    solved = solve_mod_m(first, b, m)
    drawn = sample_kernel_mod_m(first, m, random.Random(seed))
    drawn_first = sample_kernel_mod_m(second, m, random.Random(seed))
    solved_second = solve_mod_m(second, b, m)
    want = solve_mod_m_reference(ref, b, m)
    assert solved == solved_second == want
    assert drawn == drawn_first == sample_kernel_mod_m_reference(ref, m, random.Random(seed))
    return solved


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solves_and_kernel_draws_match_references_in_either_order(system):
    a, x0s, bs, seed = system
    try:
        smith_normal_form(a)
    except CapExceededError:
        return
    for m, x0, b in zip(MODULI, x0s, bs):
        consistent = ((a @ np.array(x0, dtype=np.int64).reshape(-1)) % m).tolist()
        assert _check_both_orders(a, m, consistent, seed) is not None
        _check_both_orders(a, m, b, seed)


@pytest.mark.parametrize("m", (4, 8))
def test_solves_and_kernel_draws_match_references_on_a_ladder_rung(m):
    mat = coboundary_matrix(complex_by_label("sd2(rp2_6)"), 1)
    rng = random.Random(m)
    x0 = np.array([rng.randrange(m) for _ in range(mat.shape[1])], dtype=np.int64)
    assert _check_both_orders(mat, m, (mat @ x0 % m).tolist(), rng.randrange(1 << 30)) is not None
    _check_both_orders(mat, m, [rng.randrange(m) for _ in range(mat.shape[0])], rng.randrange(1 << 30))


@settings(max_examples=300, deadline=None)
@given(systems(), st.data())
def test_solves_of_sparse_right_hand_sides_match_references(system, data):
    # A solve skips every logged row operation whose source entry is 0,
    # which on a sparse b is most of them.
    a, _, _, seed = system
    try:
        smith_normal_form(a)
    except CapExceededError:
        return
    rows, cols = a.shape
    for m in MODULI:
        _check_both_orders(a, m, data.draw(sparse_rhs(rows, st.integers(-40, 40))).tolist(), seed)
        x0 = data.draw(sparse_rhs(cols, st.integers(-40, 40)))
        assert _check_both_orders(a, m, (a @ x0 % m).tolist(), seed) is not None


@pytest.mark.parametrize("m", (4, 8))
@pytest.mark.parametrize("label", SWEEP_LABELS)
def test_solves_of_sparse_coboundary_right_hand_sides(label, m):
    a = coboundary_matrix(complex_by_label(label), 1)
    snf, ref = smith_normal_form(a), dense_snf(smith_normal_form(a))
    for scale in (1, 2):
        for b in sparse_sweep(a, scale):
            assert solve_mod_m(snf, b, m) == solve_mod_m_reference(ref, b, m)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_selective_replay_matches_full_replay(system):
    try:
        snf = smith_normal_form(system[0])
    except CapExceededError:
        return
    check_selective_replay(snf)
