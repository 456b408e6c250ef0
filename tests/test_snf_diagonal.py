"""The Smith form's diagonal pass against its logged elimination.

`smith_normal_form` computes the diagonal alone, by unit pivots in
Markowitz order (`linalg._diagonal`), and runs the logged elimination
(`linalg._eliminate`) on the whole matrix only when a solve or a kernel
draw first reads the logs.  Invariant factors are unique, so the two
diagonals must agree wherever both finish, and the paths that read only
the diagonal must never run the logged elimination.  Needs hypothesis;
without it the module is skipped.
"""

import random
from collections import Counter

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings

from cechlift import cochain, linalg
from cechlift.coefgroup import Z2, AbelianGroup
from cechlift.cochain import Cochain, _coboundary_snf, coboundary, coboundary_matrix, is_coboundary
from cechlift.errors import CapExceededError, InternalCheckError
from cechlift.fingroup import builtin_extension, cyclic_group
from cechlift.linalg import sample_kernel_mod_m, smith_normal_form, solve_mod_m
from cechlift.obstruct import identity_cocycle, obstruction_class, random_cocycle
from dense_views import dense_snf
from oracles import smith_diagonal_by_minors
from snf_reference import smith_normal_form_reference
from sparse import systems
from subdivision import LABELS, complex_by_label

Z4 = AbelianGroup((4,))

# The benchmark ladder's rungs.
RUNGS = ("sd1(rp2_6)", "sd2(rp2_6)", "sd1(torus7)", "sd2(torus7)", "sd1(klein)")

# Draws 45 and 502 of the dense sweep below.  On the first only the
# diagonal pass passes _SNF_MAX_BITS, on the second only the logged one.
DIAGONAL_PASS_OVER_CAP = (
    (7, 14, 16, -3, 12, -8),
    (18, -9, 19, 5, 19, 5),
    (18, 6, -1, -9, 5, -20),
    (10, -13, 17, -15, 18, -15),
    (-20, -1, 19, -9, -19, 7),
)
LOGGED_RUN_OVER_CAP = (
    (-4, -15, 7, 4, 19, -9),
    (15, 10, 19, -3, -5, -12),
    (-18, 4, 7, -10, 4, -11),
    (17, 3, 5, -2, -11, -17),
    (-1, 15, 9, -15, -4, -17),
)


def _logged_diagonal(a):
    return linalg._eliminate(a)[0]


def _run(run, a):
    """(run(a), None), or (None, the CapExceededError it raises)."""
    try:
        return run(a), None
    except CapExceededError as exc:
        return None, exc


# ------------------------------------------------------------------ parity ----


@pytest.mark.parametrize("label", tuple(dict.fromkeys((*LABELS, *RUNGS))))
def test_diagonal_pass_matches_the_logged_diagonal_on_coboundaries(label):
    x = complex_by_label(label)
    for degree in (0, 1):
        a = coboundary_matrix(x, degree)
        assert linalg._diagonal(a) == _logged_diagonal(a)


def test_diagonal_pass_matches_the_logged_diagonal_on_a_dense_sweep():
    # Random matrices up to 7 x 7 with entries in [-20, 20]: the two passes
    # take different steps, so either can pass the cap alone.  Where both
    # finish they agree; where the diagonal pass stops, smith_normal_form
    # raises as the logged elimination does, or finishes with its diagonal.
    rng = random.Random(23)
    seen = Counter()
    for _ in range(600):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        a = np.array([[rng.randrange(-20, 21) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
        diag, diagonal_stop = _run(linalg._diagonal, a)
        logged, logged_stop = _run(_logged_diagonal, a)
        seen[diagonal_stop is None, logged_stop is None] += 1
        if diagonal_stop is None:
            assert logged_stop is not None or diag == logged
            continue
        snf, stop = _run(smith_normal_form, a)
        if logged_stop is None:
            assert stop is None and snf.diag == logged
        else:
            assert stop is not None and stop.needed == logged_stop.needed
    assert len(seen) == 4


@settings(max_examples=300, deadline=None)
@given(systems())
def test_diagonal_pass_matches_the_logged_diagonal_on_small_systems(system):
    # No matrix of this domain comes near the cap in either pass.
    a = system[0]
    assert linalg._diagonal(a) == _logged_diagonal(a)


# -------------------------------------------------------- who runs it when ----


@pytest.fixture
def eliminations(monkeypatch):
    """The matrix handed to every call of linalg._eliminate while the test runs."""
    calls = []
    real = linalg._eliminate

    def spy(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    return calls


def _diagonal_reads(x):
    """A Z2-kernel verdict, then Z2 and Z4 cohomology in degrees 0..2, on x;
    returns the cached Smith forms of delta^0..delta^2 they used."""
    ext = builtin_extension("z4_over_z2")
    assert obstruction_class(identity_cocycle(x, ext.base), ext).trivial
    for degree in (0, 1, 2):
        for coefficients in (Z2, Z4):
            cochain.cohomology(x, degree, coefficients)
    misses = _coboundary_snf.cache_info().misses
    snfs = [_coboundary_snf(x, degree) for degree in (0, 1, 2)]
    assert _coboundary_snf.cache_info().misses == misses
    return snfs


def test_diagonal_reads_never_run_the_logged_elimination(eliminations):
    # sd1(torus7) has no torsion, so the diagonal pass leaves no block for
    # the logged elimination either.
    _diagonal_reads(complex_by_label("sd1(torus7)"))
    assert eliminations == []


def test_a_cohomology_that_reads_the_row_log_trips_the_spy(eliminations, monkeypatch):
    real = cochain.cohomology

    def reading_row_log(x, p, coefficients=Z2):
        _coboundary_snf(x, p).row_log
        return real(x, p, coefficients)

    monkeypatch.setattr(cochain, "cohomology", reading_row_log)
    snfs = _diagonal_reads(complex_by_label("sd1(torus7)"))
    assert any(m is snfs[1].matrix for m in eliminations)


def test_z4_solves_run_the_logged_elimination_once_per_form_and_kernel_draws_reuse_it(eliminations):
    x = complex_by_label("sd1(torus7)")
    snfs = _diagonal_reads(x)
    rng = random.Random(24)
    for _ in range(3):
        for degree in (0, 1):
            f = coboundary(Cochain(x, degree, Z4, [(rng.randrange(4),) for _ in range(x.dim_count(degree))]))
            assert is_coboundary(f) is not None
    assert [id(m) for m in eliminations] == [id(snfs[0].matrix), id(snfs[1].matrix)]
    # A kernel draw on delta^1's Smith form reads the column log the solves built.
    random_cocycle(x, cyclic_group(4), seed=5)
    assert len(eliminations) == 2


def test_a_wrong_diagonal_pass_fails_the_first_log_read(monkeypatch):
    # delta^1 of sd1(rp2_6) has invariant factor 2; a diagonal pass that
    # reports 4 goes unseen until the logged elimination runs.
    real = linalg._diagonal
    monkeypatch.setattr(linalg, "_diagonal", lambda m: tuple(4 if d == 2 else d for d in real(m)))
    snf = smith_normal_form(coboundary_matrix(complex_by_label("sd1(rp2_6)"), 1))
    assert 4 in snf.diag
    with pytest.raises(InternalCheckError, match="diagonal"):
        solve_mod_m(snf, [0] * snf.rows, 4)
    with pytest.raises(InternalCheckError, match="diagonal"):
        snf.col_log


# ------------------------------------------------------------ held matrix ----


def test_later_writes_to_the_callers_array_leave_the_logs_alone():
    rows = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    want = smith_normal_form_reference(rows)
    # A writable array, and a read-only view of one: both are copied.
    for as_view in (False, True):
        owner = np.array(rows)
        a = owner.view() if as_view else owner
        a.setflags(write=not as_view)
        snf = smith_normal_form(a)
        owner[:] = 1
        got = dense_snf(snf)
        assert (got.s, got.u, got.v) == (want["s"], want["u"], want["v"])
    # A read-only array that owns its data, as a cached coboundary is, is
    # held as it is.
    a = coboundary_matrix(complex_by_label("torus7"), 1)
    assert smith_normal_form(a).matrix is a


def test_equality_reads_the_held_matrix_and_runs_no_elimination(eliminations):
    # Unimodular, so the diagonal pass leaves no block to eliminate.
    a = smith_normal_form([[1, 2], [3, 5]])
    assert a == smith_normal_form(np.array([[1, 2], [3, 5]], dtype=np.int16))
    # Same diagonal and hash, other matrix: unequal.
    other = smith_normal_form([[2, 1], [5, 3]])
    assert a.diag == other.diag and hash(a) == hash(other) and a != other
    assert eliminations == []


# ---------------------------------------------------------------- the cap ----


def test_a_diagonal_pass_over_the_cap_runs_the_logged_elimination_at_once(eliminations):
    a = np.array(DIAGONAL_PASS_OVER_CAP)
    assert _run(linalg._diagonal, a)[1] is not None
    snf = smith_normal_form(a)
    assert eliminations[-1] is snf.matrix
    calls = len(eliminations)
    got = dense_snf(snf)
    assert len(eliminations) == calls
    want = smith_normal_form_reference(a)
    assert (got.s, got.u, got.v) == (want["s"], want["u"], want["v"])
    assert snf.diagonal() == smith_diagonal_by_minors(a.tolist(), *a.shape)


def test_a_logged_run_over_the_cap_raises_at_the_first_log_read():
    a = np.array(LOGGED_RUN_OVER_CAP)
    snf = smith_normal_form(a)
    assert snf.diagonal() == smith_diagonal_by_minors(a.tolist(), *a.shape)
    for read in (
        lambda: snf.row_log,
        lambda: solve_mod_m(snf, [1] * snf.rows, 4),
        lambda: sample_kernel_mod_m(snf, 4, random.Random(0)),
    ):
        with pytest.raises(CapExceededError) as info:
            read()
        assert info.value.cap == linalg._SNF_MAX_BITS < info.value.needed
