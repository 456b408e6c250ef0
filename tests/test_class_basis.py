"""The GF(p) cohomology basis and nullspace against the frozen span-tracker
construction, with the factor of the lower coboundary built cold for the
basis and with it already cached."""

import random

import numpy as np
import pytest

from cechlift import cochain
from cechlift.coefgroup import AbelianGroup
from cechlift.cochain import _coboundary_factor, _gfp_class_basis, coboundary_matrix, cohomology
from cechlift.linalg import _matvec_mod, nullspace_mod_p
from cechlift.nerve import BUILTIN_COMPLEXES, build_complex, builtin_complex
from class_basis_reference import gfp_class_basis_reference, nullspace_reference
from subdivision import complex_by_label


def _both_ways(x, p, prime):
    """_gfp_class_basis with a cold factor cache, so that it builds the
    factor of delta^{p-1} itself, then with that factor cached."""
    _coboundary_factor.cache_clear()
    in_chains = _gfp_class_basis(x, p, prime)
    _coboundary_factor(x, p - 1, prime)
    in_quotient = _gfp_class_basis(x, p, prime)
    return in_chains, in_quotient


def _assert_same_basis(x, p, prime):
    want, _ = gfp_class_basis_reference(coboundary_matrix(x, p), coboundary_matrix(x, p - 1), prime)
    for got in _both_ways(x, p, prime):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)
    space = cohomology(x, p, AbelianGroup((prime,)))
    assert [c.array[:, 0].tolist() for c in space.basis] == [w.tolist() for w in want]


@pytest.mark.parametrize("name", BUILTIN_COMPLEXES)
@pytest.mark.parametrize("prime", (2, 3, 5))
@pytest.mark.parametrize("p", (0, 1, 2))
def test_class_basis_matches_span_tracker_on_builtins(name, p, prime):
    _assert_same_basis(builtin_complex(name), p, prime)


@pytest.mark.parametrize("label", ("sd1(rp2_6)", "sd1(torus7)", "sd1(klein)", "sd2(rp2_6)"))
@pytest.mark.parametrize("prime", (2, 3))
def test_class_basis_matches_span_tracker_on_subdivisions(label, prime):
    x = complex_by_label(label)
    for p in (0, 1, 2):
        _assert_same_basis(x, p, prime)


def test_class_basis_with_a_prime_near_the_order_cap():
    # The projections T N_k go through 16-bit limbs here.
    prime = 2**31 - 1
    x = build_complex(builtin_complex("klein").facets)
    for p in (1, 2):
        _assert_same_basis(x, p, prime)
    space = cohomology(x, 1, AbelianGroup((prime, prime)))
    assert space.invariant_factors == (prime, prime)
    assert space.dimension == 2



def test_projections_are_exact_near_the_order_cap():
    # The projections T N_k are _matvec_mod products; in plain int64 these overflow.
    rng = random.Random(12)
    prime = 2**31 - 1
    t = np.array([[rng.randrange(prime) for _ in range(40)] for _ in range(5)], dtype=np.int64)
    v = np.array([rng.randrange(prime) for _ in range(40)], dtype=np.int64)
    want = [sum(int(t[i, k]) * int(v[k]) for k in range(40)) % prime for i in range(5)]
    assert (t @ v % prime).tolist() != want
    assert _matvec_mod(t, v, prime).tolist() == want

def test_class_basis_check_can_fail(monkeypatch):
    # delta^1 with an extra row that reads one edge no longer kills the
    # coboundaries of 0-cochains, so more vectors are kept than ker - image.
    x = build_complex(builtin_complex("torus7").facets)
    true_matrix = cochain.coboundary_matrix

    def corrupted(complex_, p):
        mat = true_matrix(complex_, p)
        if p != 1:
            return mat
        row = np.zeros((1, mat.shape[1]), dtype=np.int64)
        row[0, 0] = 1
        return np.vstack([mat, row])

    monkeypatch.setattr(cochain, "coboundary_matrix", corrupted)
    _coboundary_factor.cache_clear()
    with pytest.raises(AssertionError, match="lost rank"):
        _gfp_class_basis(x, 1, 2)
    _coboundary_factor(x, 0, 2)
    with pytest.raises(AssertionError, match="lost rank"):
        _gfp_class_basis(x, 1, 2)


def test_nullspace_matches_the_loop():
    rng = random.Random(11)
    shapes = [(0, 4), (3, 0), (0, 0)] + [(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(120)]
    for p in (2, 3, 5, 2**31 - 1):
        for rows, cols in shapes:
            a = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
            a = a.reshape(rows, cols)
            if rows and cols and rng.random() < 0.5:
                a[:, rng.randrange(cols)] = 0  # force a free column
            got = nullspace_mod_p(a, p)
            want = nullspace_reference(a, p)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == np.int64
                assert np.array_equal(g, w)

