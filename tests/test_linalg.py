"""Modular elimination and integer Smith normal form against oracles."""

import random
import time
from itertools import product

import numpy as np
import pytest

from cechlift import linalg
from cechlift.coefgroup import Z2, AbelianGroup
from cechlift.cochain import (
    Cochain,
    _coboundary_factor,
    _coboundary_snf,
    coboundary,
    coboundary_matrix,
    cohomology,
    is_coboundary,
)
from cechlift.errors import CapExceededError
from cechlift.fingroup import builtin_extension, cyclic_group
from cechlift.linalg import (
    GfpFactor,
    GfpSpan,
    factor_mod_p,
    invariant_factors,
    nullspace_mod_p,
    rank_mod_p,
    rref_mod_p,
    sample_kernel_mod_m,
    smith_normal_form,
    solve_mod_m,
    solve_mod_p,
)
from cechlift.nerve import BUILTIN_COMPLEXES
from cechlift.obstruct import identity_cocycle, obstruction_class, random_cocycle
from gfp_reference import (
    rref_mod_p_reference,
    sample_kernel_mod_m_reference,
    solve_mod_m_reference,
    solve_mod_p_reference,
)
from oracles import (
    bareiss_det,
    coboundary_bitrows,
    exhaustive_solvable_mod,
    gf2_rank,
    int_matmul,
    naive_rank_mod_p,
)
from snf_reference import smith_normal_form_reference
from subdivision import LABELS, complex_by_label

Z4 = AbelianGroup((4,))


def _random_matrix(rng, rows, cols, lo, hi):
    return np.array([[rng.randrange(lo, hi) for _ in range(cols)] for _ in range(rows)])


def _bitmask_rows(mat):
    return [int(sum((int(x) % 2) << j for j, x in enumerate(row))) for row in mat]


def test_rref_known_cases():
    rref, pivots = rref_mod_p(np.array([[1, 1], [1, 1]]), 2)
    assert list(pivots) == [0]
    assert rref.tolist() == [[1, 1], [0, 0]]
    rref, pivots = rref_mod_p(np.array([[0, 1], [1, 0]]), 2)
    assert list(pivots) == [0, 1]
    assert rref.tolist() == [[1, 0], [0, 1]]


def test_rank_against_bitmask_oracle():
    rng = random.Random(2)
    for _ in range(200):
        m = _random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8), 0, 2)
        assert rank_mod_p(m, 2) == gf2_rank(_bitmask_rows(m))


def test_rank_against_naive_oracle_odd_primes():
    rng = random.Random(3)
    for p in (3, 5, 7):
        for _ in range(60):
            m = _random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7), -10, 10)
            assert rank_mod_p(m, p) == naive_rank_mod_p(m.tolist(), p)


def test_solve_mod_p_matches_exhaustive_search():
    rng = random.Random(4)
    for p in (2, 3):
        for _ in range(60):
            rows, cols = rng.randrange(1, 4), rng.randrange(1, 5)
            a = _random_matrix(rng, rows, cols, 0, p)
            b = np.array([rng.randrange(p) for _ in range(rows)])
            x = solve_mod_p(a, b, p)
            solvable = exhaustive_solvable_mod(a.tolist(), b.tolist(), p)
            assert (x is not None) == solvable
            if x is not None:
                assert np.array_equal((a @ x) % p, b % p)


def test_solve_mod_p_solution_checks_for_larger_prime():
    rng = random.Random(5)
    for _ in range(40):
        a = _random_matrix(rng, 4, 6, -20, 20)
        x0 = np.array([rng.randrange(11) for _ in range(6)])
        b = (a @ x0) % 11
        x = solve_mod_p(a, b, 11)
        assert x is not None
        assert np.array_equal((a @ x) % 11, b)


def _same_solution(got, ref):
    if got is None or ref is None:
        return got is None and ref is None
    return [int(v) for v in got] == [int(v) for v in ref]


def _random_system(rng, rows, cols, p, consistent):
    hi = min(p, 50)
    a = np.array(
        [[rng.randrange(-hi, hi) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
    ).reshape(rows, cols)
    if consistent:
        x0 = [rng.randrange(p) for _ in range(cols)]
        b = [sum(int(v) * x for v, x in zip(row, x0)) % p for row in a.tolist()]
    else:
        b = [rng.randrange(p) for _ in range(rows)]
    return a, np.array(b, dtype=np.int64)


@pytest.mark.parametrize("p", (2, 3, 5, 2**31 - 1))
def test_solve_mod_p_matches_dense_reference_on_random_systems(p):
    # Shapes include 0 x n and n x 0; half the systems are consistent by
    # construction, the others mostly not.
    rng = random.Random(p)
    for k in range(300):
        a, b = _random_system(rng, rng.randrange(0, 7), rng.randrange(0, 8), p, k % 2 == 0)
        ref = solve_mod_p_reference(a, b, p)
        factor = factor_mod_p(a, p)
        assert _same_solution(solve_mod_p(a, b, p), ref)
        assert _same_solution(solve_mod_p(factor, b, p), ref)
        assert _same_solution(solve_mod_p(factor, b, p), ref)


@pytest.mark.parametrize("label", LABELS)
def test_solve_mod_p_matches_dense_reference_on_coboundaries(label):
    x = complex_by_label(label)
    rng = random.Random(label)
    for degree in (0, 1):
        mat = coboundary_matrix(x, degree)
        for p in (2, 3, 2**31 - 1):
            factor = factor_mod_p(mat, p)
            assert factor.t.shape == (mat.shape[0], mat.shape[0])
            assert not factor.t.flags.writeable
            for consistent in (True, False, True):
                if consistent:
                    x0 = np.array([rng.randrange(p) for _ in range(mat.shape[1])], dtype=object)
                    b = np.array([int(v) % p for v in mat.astype(object) @ x0], dtype=np.int64)
                else:
                    b = np.array([rng.randrange(p) for _ in range(mat.shape[0])], dtype=np.int64)
                ref = solve_mod_p_reference(mat, b, p)
                assert _same_solution(solve_mod_p(factor, b, p), ref)
                if consistent:
                    assert ref is not None


@pytest.mark.parametrize("p", (2, 3, 2**31 - 1))
def test_factor_mod_p_matches_dense_reference_on_tall_systems(p):
    # More rows than columns: the rank is reached well before the rows run
    # out, which is where the factorization stops pivoting.
    rng = random.Random(p + 1)
    for k in range(200):
        cols = rng.randrange(0, 6)
        a, b = _random_system(rng, cols + rng.randrange(1, 9), cols, p, k % 2 == 0)
        factor = factor_mod_p(a, p)
        assert list(factor.pivots) == rref_mod_p(a, p)[1]
        # T A is A's reduced row echelon form with zero rows from the rank on.
        rank = len(factor.pivots)
        ta = (factor.t.astype(object) @ (a.astype(object) % p)) % p
        assert (ta[:rank] == rref_mod_p(a, p)[0][:rank]).all() and not ta[rank:].any()
        assert _same_solution(solve_mod_p(factor, b, p), solve_mod_p_reference(a, b, p))


@pytest.mark.parametrize("label", ("sd1(rp2_6)", "sd1(torus7)", "sd2(rp2_6)"))
def test_factor_mod_p_of_vertex_coboundaries_matches_dense_reference(label):
    x = complex_by_label(label)
    mat = coboundary_matrix(x, 0)
    rng = random.Random(label)
    for p in (2, 3):
        factor = factor_mod_p(mat, p)
        for consistent in (True, False):
            if consistent:
                x0 = np.array([rng.randrange(p) for _ in range(mat.shape[1])], dtype=np.int64)
                b = (mat @ x0) % p
            else:
                b = np.array([rng.randrange(p) for _ in range(mat.shape[0])], dtype=np.int64)
            ref = solve_mod_p_reference(mat, b, p)
            assert (ref is not None) == consistent
            assert _same_solution(solve_mod_p(factor, b, p), ref)


def test_solve_mod_p_checks_its_factor():
    factor = factor_mod_p(np.array([[1, 1], [0, 1]]), 3)
    assert isinstance(factor, GfpFactor)
    assert (factor.rows, factor.cols, factor.p, factor.pivots) == (2, 2, 3, (0, 1))
    with pytest.raises(ValueError):
        solve_mod_p(factor, [1, 2], 5)
    with pytest.raises(ValueError):
        solve_mod_p(factor, [1, 2, 0], 3)


def test_gfp_entry_points_reject_inputs_they_would_get_wrong():
    # p = 2^61 - 1 overflows int64 products, and gave a wrong RREF.
    for call in (rref_mod_p, rank_mod_p, nullspace_mod_p, factor_mod_p):
        with pytest.raises(ValueError):
            call([[3, 5], [7, 11]], 2**61 - 1)
    with pytest.raises(ValueError):
        solve_mod_p([[3, 5], [7, 11]], [1, 2], 2**61 - 1)
    # Composite and out-of-range moduli.
    for p in (4, 1, 0, -3, 2**31):
        with pytest.raises(ValueError):
            rank_mod_p([[2, 0], [0, 2]], p)
    # Non-integer entries and right-hand sides were truncated.
    with pytest.raises(ValueError):
        solve_mod_p([[1]], [0.5], 2)
    for p in (2, 3):
        with pytest.raises(ValueError):
            rref_mod_p([[0.5, 1]], p)
        with pytest.raises(ValueError):
            factor_mod_p(np.array([[1.0, 2.0]]), p)
        with pytest.raises(ValueError):
            solve_mod_p(factor_mod_p([[1]], p), np.array([1.0]), p)
    # What they accept: the largest prime, and Python ints of any size.
    assert rref_mod_p([[3, 5], [7, 11]], 2**31 - 1)[0].tolist() == [[1, 0], [0, 1]]
    huge = np.array([[2**70 + 1, 2**70], [3, 2**65]], dtype=object)
    for p in (2, 3):
        assert rref_mod_p(huge, p)[0].tolist() == rref_mod_p_reference(huge % p, p)[0].tolist()
        assert solve_mod_p([[1]], [2**70 + 1], p).tolist() == [1 if p == 2 else 2]


# Non-integer input used to be truncated to a wrong answer; now it raises.


def test_smith_normal_form_rejects_non_integers():
    with pytest.raises(ValueError):
        smith_normal_form([[1.5, 2.0], [0.0, 3.7]])


def test_solve_mod_m_rejects_non_integers():
    with pytest.raises(ValueError):
        solve_mod_m(smith_normal_form([[2]]), [2.9], 4)


def test_gfp_span_rejects_non_integers():
    with pytest.raises(ValueError):
        GfpSpan(2, 3).insert([0.5, 0])


def test_invariant_factors_rejects_non_integers():
    with pytest.raises(ValueError):
        invariant_factors([2.5, 4])


@pytest.mark.parametrize("dtype", (np.int8, np.uint8, np.int16))
@pytest.mark.parametrize("p", (3, 257, 2**31 - 1))
def test_gfp_entry_points_take_integer_types_too_narrow_for_p(dtype, p):
    # numpy casts p to the array's type in `x % p`, so a type that cannot
    # hold p overflows unless widened; every entry point answers as on the
    # same values in int64.
    a = np.array([[1, -2, 3, 0], [2, -4, 6, 0], [-7, 8, 9, 1]]).astype(dtype)
    wide = a.astype(np.int64)
    got, want = rref_mod_p(a, p), rref_mod_p(wide, p)
    assert got[0].tolist() == want[0].tolist() and got[1] == want[1]
    assert rank_mod_p(a, p) == rank_mod_p(wide, p)
    got, want = factor_mod_p(a, p), factor_mod_p(wide, p)
    assert got.pivots == want.pivots and got.t.tolist() == want.t.tolist()
    assert [v.tolist() for v in nullspace_mod_p(a, p)] == [v.tolist() for v in nullspace_mod_p(wide, p)]
    for b in (np.array([1, 2, 5]), np.array([1, 1, 0])):
        narrow_b = b.astype(dtype)
        want = solve_mod_p(wide, narrow_b.astype(np.int64), p)
        for got in (solve_mod_p(a, narrow_b, p), solve_mod_p(factor_mod_p(a, p), narrow_b, p)):
            assert (got is None) == (want is None)
            assert got is None or got.tolist() == want.tolist()


def test_solve_against_a_factor_does_not_check_the_prime_again(monkeypatch):
    factor = factor_mod_p([[1, 1], [0, 1]], 2)

    def boom(n):
        raise AssertionError("primality checked again")

    monkeypatch.setattr(linalg, "_is_prime", boom)
    assert solve_mod_p(factor, [1, 1], 2).tolist() == [0, 1]


def _gf2_matrices(rng):
    """Random 0/1 and arbitrary-integer matrices of every shape class."""
    for shape in ((0, 0), (0, 5), (5, 0), (3, 4), (4, 3)):
        yield np.zeros(shape, dtype=np.int64)
    for k in range(300):
        rows, cols = rng.randrange(0, 9), rng.randrange(0, 9)
        if k % 3 == 0:
            rows, cols = cols + rng.randrange(1, 6), cols  # tall
        elif k % 3 == 1:
            rows, cols = rows, rows + rng.randrange(1, 6)  # wide
        lo, hi = (0, 2) if k % 2 else (-40, 41)
        yield _random_matrix(rng, rows, cols, lo, hi).reshape(rows, cols).astype(np.int64)


def _coboundaries(labels):
    for label in labels:
        x = complex_by_label(label)
        for degree in (0, 1, 2):
            yield coboundary_matrix(x, degree)


GF2_LABELS = (*BUILTIN_COMPLEXES, "sd1(rp2_6)", "sd1(torus7)", "sd1(klein)", "sd2(rp2_6)")


def test_gf2_rref_matches_dense_reference():
    rng = random.Random(21)
    for a in (*_gf2_matrices(rng), *_coboundaries(GF2_LABELS)):
        got, pivots = rref_mod_p(a, 2)
        want, want_pivots = rref_mod_p_reference(a, 2)
        assert got.dtype == np.int64 and got.shape == a.shape
        assert pivots == want_pivots
        assert np.array_equal(got, want)


def _check_gf2_factor(a, factor):
    rows, cols = a.shape
    want, pivots = rref_mod_p_reference(a, 2)
    rank = len(pivots)
    assert factor.pivots == tuple(pivots)
    assert factor.t.shape == (rows, rows) and not factor.t.flags.writeable
    ta = (factor.t @ (a % 2)) % 2
    assert np.array_equal(ta[:rank], want[:rank]) and not ta[rank:].any()
    assert gf2_rank(_bitmask_rows(factor.t)) == rows
    assert factor.t_bits == tuple(_bitmask_rows(factor.t))


def test_gf2_factor_matches_dense_reference():
    rng = random.Random(22)
    for a in (*_gf2_matrices(rng), *_coboundaries(GF2_LABELS)):
        factor = factor_mod_p(a, 2)
        _check_gf2_factor(a, factor)
        for consistent in (True, False):
            if consistent:
                b = (a @ np.array([rng.randrange(2) for _ in range(a.shape[1])], dtype=np.int64)) % 2
            else:
                b = np.array([rng.randrange(-3, 4) for _ in range(a.shape[0])], dtype=np.int64)
            ref = solve_mod_p_reference(a, b, 2)
            assert ref is not None or not consistent
            assert _same_solution(solve_mod_p(factor, b, 2), ref)
            assert _same_solution(solve_mod_p(a, b, 2), ref)


def test_gf2_factor_of_sd3_torus7_checked_with_bit_arithmetic():
    x = complex_by_label("sd3(torus7)")
    a = coboundary_matrix(x, 1)
    bitrows, _ = coboundary_bitrows(x, 1)
    factor = factor_mod_p(a, 2)
    rank = len(factor.pivots)
    assert rank == gf2_rank(bitrows)
    assert gf2_rank(list(factor.t_bits)) == a.shape[0]
    pivot_bits = sum(1 << c for c in factor.pivots)
    for i, t_row in enumerate(factor.t_bits):
        # Row i of T A: the XOR of A's rows that row i of T picks.
        row, rest = 0, t_row
        while rest:
            low = rest & -rest
            row ^= bitrows[low.bit_length() - 1]
            rest ^= low
        if i < rank:
            # The RREF row of pivot i: that pivot's bit, no other pivot bit,
            # nothing left of it.
            c = factor.pivots[i]
            assert row & pivot_bits == 1 << c and row & ((1 << c) - 1) == 0
        else:
            assert row == 0


def test_gf2_verdict_keeps_t_by_columns_only():
    # A Z2-kernel verdict solves against the GF(2) factor of delta^1 and
    # reads T's columns alone; the dense T and its rows are views that only
    # tests derive, and they must still describe the same factor.
    x = complex_by_label("sd1(torus7)")
    ext = builtin_extension("z4_over_z2")
    obstruction_class(random_cocycle(x, ext.base, 5), ext)
    factor = _coboundary_factor(x, 1, 2)
    assert len(factor.t_cols) == factor.rows
    assert "t" not in vars(factor) and "t_bits" not in vars(factor)
    _check_gf2_factor(coboundary_matrix(x, 1), factor)


def test_nullspace_mod_p():
    rng = random.Random(6)
    for p in (2, 3, 5):
        for _ in range(40):
            a = _random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6), 0, p)
            basis = nullspace_mod_p(a, p)
            assert len(basis) == a.shape[1] - rank_mod_p(a, p)
            for v in basis:
                assert not np.any((a @ v) % p)
            if basis:
                stacked = np.array(basis)
                assert rank_mod_p(stacked, p) == len(basis)


def test_gfp_span_incremental():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.choice((2, 3))
        cols = rng.randrange(1, 7)
        span = GfpSpan(cols, p)
        rows = []
        for _ in range(rng.randrange(1, 9)):
            v = np.array([rng.randrange(p) for _ in range(cols)])
            rows.append(v)
            span.insert(v)
        assert span.rank == rank_mod_p(np.array(rows), p)


def test_gfp_span_rejects_outside_vector():
    span = GfpSpan(3, 2)
    assert span.insert(np.array([1, 1, 0]))
    assert not span.insert(np.array([1, 1, 0]))
    assert span.insert(np.array([0, 0, 1]))
    assert span.insert(np.array([1, 0, 0]))
    assert span.rank == 3


def test_smith_normal_form_properties():
    rng = random.Random(8)
    for _ in range(100):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 7)
        a = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(a)
        assert abs(bareiss_det(snf.u)) == 1
        assert abs(bareiss_det(snf.v)) == 1
        assert int_matmul(int_matmul(snf.u, a), snf.v) == [list(row) for row in snf.s]
        diag = snf.diagonal()
        assert all(d >= 0 for d in diag)
        for i in range(len(diag) - 1):
            if diag[i] != 0:
                assert diag[i + 1] % diag[i] == 0 or diag[i + 1] == 0
            else:
                assert diag[i + 1] == 0
        for i, row in enumerate(snf.s):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0


def test_smith_normal_form_known_case():
    snf = smith_normal_form([[2, 0], [0, 3]])
    assert snf.diagonal() == [1, 6]
    assert snf.torsion() == [6]
    snf = smith_normal_form([[0, 0], [0, 0]])
    assert snf.diagonal() == [0, 0]
    assert snf.torsion() == []


def test_smith_normal_form_stops_on_coefficient_growth():
    # Entries of this matrix grow past 700,000 bits within four pivots; the
    # elimination ran for minutes before the bound on entry size.
    a = [
        [11, 15, -13, -19, -2],
        [0, 20, -17, 8, 19],
        [-2, 18, 12, 6, -10],
        [-20, -11, -5, -15, 18],
        [-10, 18, 9, -5, -8],
        [19, 14, 10, -5, -11],
        [12, 0, -18, 0, -3],
    ]
    start = time.perf_counter()
    with pytest.raises(CapExceededError) as info:
        smith_normal_form(a)
    assert time.perf_counter() - start < 2
    assert info.value.cap == linalg._SNF_MAX_BITS < info.value.needed


def _assert_same_as_reference(a):
    got = smith_normal_form(a)
    want = smith_normal_form_reference(a)
    assert got.rows == want["rows"] and got.cols == want["cols"]
    assert got.s == want["s"]
    assert got.u == want["u"]
    assert got.v == want["v"]


def test_smith_normal_form_matches_dense_reference_on_random_matrices():
    rng = random.Random(13)
    for shape in ((0, 0), (0, 4), (4, 0)):
        _assert_same_as_reference(np.zeros(shape, dtype=np.int64))
    for _ in range(300):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        a = _random_matrix(rng, rows, cols, -5, 6)
        if rng.random() < 0.5:
            a[rng.randrange(rows), :] = 0
            a[:, rng.randrange(cols)] = 0
        _assert_same_as_reference(a)


def test_smith_normal_form_matches_reference_when_pivot_does_not_divide():
    # each first pivot leaves an entry it does not divide, so a row is folded in
    for a in ([[2, 0], [0, 3]], [[2, 4], [6, 3]], [[0, 4, 0], [6, 0, 0], [0, 0, 10]]):
        _assert_same_as_reference(a)


@pytest.mark.parametrize("label", LABELS)
def test_smith_normal_form_matches_reference_on_coboundaries(label):
    x = complex_by_label(label)
    for p in (0, 1):
        _assert_same_as_reference(coboundary_matrix(x, p))


def test_solve_mod_m_consistent_systems():
    rng = random.Random(9)
    for m in (4, 6, 8, 12):
        for _ in range(30):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            a = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
            snf = smith_normal_form(a)
            x0 = [rng.randrange(m) for _ in range(cols)]
            b = [sum(r * x for r, x in zip(row, x0)) % m for row in a]
            x = solve_mod_m(snf, b, m)
            assert x is not None
            got = [sum(r * xi for r, xi in zip(row, x)) % m for row in a]
            assert got == b


def test_solve_mod_m_detects_inconsistency():
    rng = random.Random(10)
    for m in (4, 6):
        for _ in range(40):
            rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
            a = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
            b = [rng.randrange(m) for _ in range(rows)]
            x = solve_mod_m(smith_normal_form(a), b, m)
            solvable = exhaustive_solvable_mod(a, b, m)
            assert (x is not None) == solvable
            if x is not None:
                got = [sum(r * xi for r, xi in zip(row, x)) % m for row in a]
                assert got == [bb % m for bb in b]


def test_solve_mod_m_matches_dense_reference():
    rng = random.Random(13)
    for m in (4, 6, 9, 12, 2**31 - 1):
        for k in range(120):
            rows, cols = rng.randrange(0, 6), rng.randrange(0, 6)
            a = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
            snf = smith_normal_form(np.array(a, dtype=np.int64).reshape(rows, cols))
            if k % 2:
                b = [rng.randrange(m) for _ in range(rows)]
            else:
                x0 = [rng.randrange(m) for _ in range(cols)]
                b = [sum(r * x for r, x in zip(row, x0)) % m for row in a]
            assert solve_mod_m(snf, b, m) == solve_mod_m_reference(snf, b, m)
            seed = rng.randrange(1 << 30)
            got = sample_kernel_mod_m(snf, m, random.Random(seed))
            assert got == sample_kernel_mod_m_reference(snf, m, random.Random(seed))


@pytest.mark.parametrize("label", ("torus7", "rp2_6", "sd1(rp2_6)"))
def test_solve_mod_m_matches_dense_reference_on_coboundaries(label):
    x = complex_by_label(label)
    rng = random.Random(label)
    for degree in (0, 1):
        mat = coboundary_matrix(x, degree)
        snf = smith_normal_form(mat)
        for m in (4, 6, 8):
            x0 = [rng.randrange(m) for _ in range(mat.shape[1])]
            for b in (
                [int(v) % m for v in mat @ np.array(x0, dtype=np.int64)],
                [rng.randrange(m) for _ in range(mat.shape[0])],
            ):
                assert solve_mod_m(snf, b, m) == solve_mod_m_reference(snf, b, m)


@pytest.mark.parametrize("label", ("torus7", "klein", "sd1(rp2_6)"))
def test_solve_mod_m_matches_dense_reference_for_large_moduli(label):
    # With m = 2^31 - 2 the entries of U and V reduced mod m, and those of
    # b and z, reach 2^31: without the limb split a row's products
    # overflow int64.
    x = complex_by_label(label)
    rng = random.Random(label)
    for degree in (0, 1):
        mat = coboundary_matrix(x, degree)
        snf = smith_normal_form(mat)
        for m in (4, 6, 12, 2**31 - 2):
            for _ in range(2):
                x0 = np.array([rng.randrange(m) for _ in range(mat.shape[1])], dtype=object)
                consistent = [int(v) % m for v in mat.astype(object) @ x0]
                other = [rng.randrange(m) for _ in range(mat.shape[0])]
                for b in (consistent, other, np.array(consistent, dtype=np.int64)):
                    got = solve_mod_m(snf, b, m)
                    assert got == solve_mod_m_reference(snf, list(b), m)
                    assert got is None or all(type(v) is int for v in got)
                seed = rng.randrange(1 << 30)
                got = sample_kernel_mod_m(snf, m, random.Random(seed))
                assert got == sample_kernel_mod_m_reference(snf, m, random.Random(seed))


def test_solve_mod_m_keeps_multipliers_beyond_int64_exact():
    # The row log of this matrix holds a multiplier of about 5.9e21, and
    # the solve applies it to b as a Python int.
    big = 2**70
    a = np.array([[1, big, 3], [2, 2 * big + 1, 7], [5, 4, big + 2]], dtype=object)
    assert max(abs(k) for k in smith_normal_form(a).row_log[0][2::3]) > 2**72
    for m in (4, 6, 12, 2**31 - 1):
        snf, ref = smith_normal_form(a), smith_normal_form(a)
        for b in ([0, 0, 0], [1, 2, 3], [2, 0, 1], [big, -big, 3]):
            assert solve_mod_m(snf, b, m) == solve_mod_m_reference(ref, b, m)
        got = sample_kernel_mod_m(snf, m, random.Random(m))
        assert got == sample_kernel_mod_m_reference(ref, m, random.Random(m))


@pytest.mark.parametrize(
    "a, hole",
    (([[0, 2, 0], [0, 0, 3]], 0), ([[1, 0, 0], [0, 0, 1]], 1), ([[1, 0, 0], [0, 1, 0]], 2)),
    ids=("first", "middle", "last"),
)
def test_solve_mod_m_reads_a_v_image_row_without_entries_as_zero(a, hole):
    # Coordinate `hole` of x is touched by kernel columns of V only, so its
    # row of V's image part has no entries: the product gives 0 there, not
    # the next row's first product.
    for m in (4, 6, 12, 2**31 - 1):
        snf, ref = smith_normal_form(a), smith_normal_form(a)
        assert hole not in snf.v_image_csr.hit_rows.tolist()
        assert any(ref.v[hole])
        for b in ([0, 0], [1, 2], [3, 1], [2, 5]):
            assert solve_mod_m(snf, b, m) == solve_mod_m_reference(ref, b, m)


def test_snf_views_leave_fields_and_equality_alone():
    a = np.array([[2, 4], [6, 8], [1, 3]])
    snf, again = smith_normal_form(a), smith_normal_form(a)
    solve_mod_m(snf, [0, 0, 0], 4)
    assert snf == again and hash(snf) == hash(again)
    assert (snf.s, snf.u, snf.v) == (again.s, again.u, again.v)


def test_library_never_builds_the_dense_snf_views():
    x = complex_by_label("sd1(torus7)")
    cohomology(x, 1, Z2)
    cohomology(x, 2, Z2)
    random_cocycle(x, cyclic_group(4), seed=5)
    rng = random.Random(14)
    f = coboundary(Cochain(x, 1, Z4, [(rng.randrange(4),) for _ in range(x.dim_count(1))]))
    assert is_coboundary(f) is not None
    misses = _coboundary_snf.cache_info().misses
    snfs = [_coboundary_snf(x, degree) for degree in (0, 1, 2)]
    assert _coboundary_snf.cache_info().misses == misses
    for snf in snfs:
        assert not {"s", "u", "v"} & vars(snf).keys()
    want = smith_normal_form_reference(coboundary_matrix(x, 1))
    assert snfs[1].u == want["u"]
    assert "u" in vars(snfs[1])


def test_smith_form_builds_u_and_v_only_when_read():
    # A Z2 verdict reads only the diagonal of delta^1's Smith form; a Z4
    # solve applies the row log to b and replays V's image columns only,
    # and a kernel draw replays the full V.  No library path builds U.
    x = complex_by_label("sd1(torus7)")
    ext = builtin_extension("z4_over_z2")
    assert obstruction_class(identity_cocycle(x, ext.base), ext).trivial
    cohomology(x, 2, Z2)
    misses = _coboundary_snf.cache_info().misses
    snf = _coboundary_snf(x, 1)
    assert _coboundary_snf.cache_info().misses == misses
    assert not {"u_csr", "v_csr", "v_image_csr"} & vars(snf).keys()
    rng = random.Random(15)
    f = coboundary(Cochain(x, 1, Z4, [(rng.randrange(4),) for _ in range(x.dim_count(1))]))
    assert is_coboundary(f) is not None
    assert "v_image_csr" in vars(snf) and not {"u_csr", "v_csr"} & vars(snf).keys()
    random_cocycle(x, cyclic_group(4), seed=5)
    assert "v_csr" in vars(snf) and "u_csr" not in vars(snf)
    want = smith_normal_form_reference(coboundary_matrix(x, 1))
    assert (snf.s, snf.u, snf.v) == (want["s"], want["u"], want["v"])


# The ladder's rung sizes: every pivot but one clears its row in one step
# there, which logs 8,781 column operations on delta^1 of sd2(rp2_6).  The
# dense reference takes about 1.5 s on that matrix.
@pytest.mark.parametrize("label, degree", (("sd1(klein)", 0), ("sd1(klein)", 1), ("sd2(rp2_6)", 1)))
def test_smith_normal_form_matches_reference_on_ladder_rungs(label, degree):
    _assert_same_as_reference(coboundary_matrix(complex_by_label(label), degree))


@pytest.mark.parametrize("v_first", (True, False))
def test_u_and_v_replay_alike_in_either_order(v_first):
    # A kernel draw reads V alone and a solve reads U and V; whichever
    # comes first, both replay to the reference's U and V.
    mat = coboundary_matrix(complex_by_label("sd1(klein)"), 1)
    want = smith_normal_form_reference(mat)
    rng = random.Random(16)
    for m in (4, 6):
        snf = smith_normal_form(mat)
        seed = rng.randrange(1 << 30)
        x0 = np.array([rng.randrange(m) for _ in range(mat.shape[1])])
        b = (mat @ x0 % m).tolist()
        if v_first:
            kernel = sample_kernel_mod_m(snf, m, random.Random(seed))
            assert "u_csr" not in vars(snf)
            solved = solve_mod_m(snf, b, m)
        else:
            solved = solve_mod_m(snf, b, m)
            kernel = sample_kernel_mod_m(snf, m, random.Random(seed))
        assert (snf.s, snf.u, snf.v) == (want["s"], want["u"], want["v"])
        assert solved is not None and solved == solve_mod_m_reference(snf, b, m)
        assert kernel == sample_kernel_mod_m_reference(snf, m, random.Random(seed))


def test_sample_kernel_mod_m_lands_in_kernel_and_covers():
    rng = random.Random(11)
    a = [[2]]
    snf = smith_normal_form(a)
    seen = set()
    for _ in range(50):
        x = sample_kernel_mod_m(snf, 4, rng)
        assert (2 * x[0]) % 4 == 0
        seen.add(x[0])
    assert seen == {0, 2}


def test_sample_kernel_mod_m_general():
    rng = random.Random(12)
    a = [[1, 2, 0], [0, 2, 2]]
    snf = smith_normal_form(a)
    kernel = {
        x
        for x in product(range(6), repeat=3)
        if all(sum(r * xi for r, xi in zip(row, x)) % 6 == 0 for row in a)
    }
    seen = set()
    for _ in range(400):
        x = tuple(v % 6 for v in sample_kernel_mod_m(snf, 6, rng))
        assert x in kernel
        seen.add(x)
    assert seen == kernel


def test_invariant_factors():
    assert invariant_factors([]) == ()
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([4, 6]) == (2, 12)
    assert invariant_factors([2, 2]) == (2, 2)
    assert invariant_factors([2, 4, 8]) == (2, 4, 8)
    assert invariant_factors([6, 10]) == (2, 30)
    got = invariant_factors([9, 3, 4, 2])
    assert got == (6, 36)
    for i in range(len(got) - 1):
        assert got[i + 1] % got[i] == 0
