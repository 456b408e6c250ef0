"""Simplicial cochains with finite abelian coefficients, and their cohomology.

The coboundary follows the usual alternating-sign convention,

    (delta f)(v0, ..., v_{p+1}) = sum_j (-1)^j f(v0, ..., vj dropped, ..., v_{p+1}),

so delta of a 0-cochain g on an edge (a, b) is g(b) - g(a).  Coefficient
factors never interact, which lets every question split into one cyclic
factor at a time: prime factors go through GF(p) elimination, composite
ones through the integer Smith normal form.

A cochain stores its values once, as a read-only (simplices x rank) int64
array, range-tested once on construction; the coboundary, the solves, the
arithmetic, equality and hashing all use it.  `values`, the same values as
a tuple of residue tuples of Python ints, is a view built on first read,
for the file and JSON forms; no verdict reads it.

Cohomology with arbitrary finite abelian coefficients is assembled from
integral data (Betti numbers and torsion of the underlying chain complex)
by the universal-coefficient rules Hom(Z, Zm) = Zm, Hom(Zd, Zm) =
Ext(Zd, Zm) = Z_gcd(d,m).  When the coefficients are a sum of copies of
one prime field the space additionally carries a dimension and a basis of
cocycle representatives, and the two routes are checked against each
other on every call.  The representatives are the nullspace vectors of
delta^p that are independent of im delta^{p-1} and of the ones kept before
them.  The GF(p) factor T of delta^{p-1}, cached per complex, degree and
prime and shared with the solves, projects C^p onto C^p / im delta^{p-1}
by dropping its first rank rows, and the choice is made there (see
`_gfp_class_basis`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .coefgroup import AbelianGroup, Z2, parse_group
from .errors import CapExceededError
from .linalg import (
    GfpFactor,
    GfpSpan,
    Snf,
    _is_prime,
    factor_mod_p,
    invariant_factors,
    nullspace_mod_p,
    rank_mod_p,
    smith_normal_form,
    solve_mod_m,
    solve_mod_p,
)
from .nerve import SimplicialComplex, complex_digest, simplices_of_dim

__all__ = [
    "Cochain",
    "CohomologySpace",
    "CohomologyClass",
    "zero_cochain",
    "coboundary",
    "coboundary_matrix",
    "is_cocycle",
    "is_coboundary",
    "cohomology",
    "classes_equal",
    "enumerate_classes",
    "DEFAULT_ENUM_CAP",
    "read_cochain",
    "write_cochain",
]

DEFAULT_ENUM_CAP = 2 ** 16


@dataclass(frozen=True, eq=False, init=False)
class Cochain:
    """A p-cochain: one coefficient-group element per canonical p-simplex.

    `values` may be given as a sequence of residue tuples or as an
    (n x rank) integer array; `array` stores them as a read-only int64
    array.  Equality and hashing compare base, degree, group and the array's
    contents.
    """

    base: SimplicialComplex
    degree: int
    group: AbelianGroup
    array: np.ndarray = field(repr=False)

    def __init__(self, base: SimplicialComplex, degree: int, group: AbelianGroup, values):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "group", group)
        self.__post_init__(values)

    def __post_init__(self, values):
        expected = len(simplices_of_dim(self.base, self.degree))
        if len(values) != expected:
            raise ValueError(
                f"degree-{self.degree} cochain needs {expected} values, got {len(values)}"
            )
        object.__setattr__(self, "array", _checked_rows(values, self.group, expected))

    @cached_property
    def values(self) -> tuple[tuple[int, ...], ...]:
        """The values as a tuple of residue tuples of Python ints."""
        return tuple(map(tuple, self.array.tolist()))

    def __eq__(self, other):
        if type(other) is not Cochain:
            return NotImplemented
        return (
            self.base == other.base
            and self.degree == other.degree
            and self.group == other.group
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        return hash((self.base, self.degree, self.group, self.array.tobytes()))

    def _compatible(self, other: "Cochain") -> None:
        if self.base is not other.base and self.base.simplices != other.base.simplices:
            raise ValueError("cochains live on different complexes")
        if self.degree != other.degree or self.group != other.group:
            raise ValueError("cochain degree or coefficients mismatch")

    def _reduced(self, arr: np.ndarray) -> "Cochain":
        return Cochain(self.base, self.degree, self.group, arr % _moduli(self.group))

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return self._reduced(self.array + other.array)

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return self._reduced(self.array - other.array)

    def __neg__(self) -> "Cochain":
        return self._reduced(-self.array)

    def is_zero(self) -> bool:
        return not self.array.any()


def _moduli(group: AbelianGroup) -> np.ndarray:
    return np.array(group.factors, dtype=np.int64)


def _checked_rows(values, group: AbelianGroup, n: int) -> np.ndarray:
    """values as a read-only (n x rank) int64 array, range-tested in one
    vectorized pass.  On a bad value, AbelianGroup.check of the first bad
    one raises its own message."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged rows
        arr = np.array(None)
    if arr.size == 0 and n * group.rank == 0:
        out = np.zeros((n, group.rank), dtype=np.int64)
    elif (
        arr.dtype.kind in "iub"
        and arr.shape == (n, group.rank)
        and not ((arr < 0) | (arr >= _moduli(group))).any()
    ):
        out = arr.astype(np.int64)
    else:
        for v in values:
            group.check(v)
        raise ValueError(f"cochain values must be integer residue tuples for factors {group.factors}")
    out.setflags(write=False)
    return out


def zero_cochain(complex_: SimplicialComplex, degree: int, group: AbelianGroup) -> Cochain:
    n = len(simplices_of_dim(complex_, degree))
    return Cochain(complex_, degree, group, np.zeros((n, group.rank), dtype=np.int64))


@lru_cache(maxsize=None)
def coboundary_matrix(complex_: SimplicialComplex, p: int) -> np.ndarray:
    """Signed incidence matrix of delta: C^p -> C^{p+1}, shape (#(p+1)-simplices, #p-simplices).

    The matrix is cached and shared by every caller, so it is read-only.
    """
    rows = simplices_of_dim(complex_, p + 1)
    cols = simplices_of_dim(complex_, p)
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    if rows and cols:
        # Face j of each row simplex, sign (-1)^j, stored in one scatter.
        index = complex_._index
        faces = [index[s[:j] + s[j + 1 :]] for s in rows for j in range(p + 2)]
        signs = np.tile((-1) ** np.arange(p + 2), len(rows))
        mat[np.repeat(np.arange(len(rows)), p + 2), faces] = signs
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _coboundary_snf(complex_: SimplicialComplex, p: int) -> Snf:
    return smith_normal_form(coboundary_matrix(complex_, p))


@lru_cache(maxsize=None)
def _coboundary_factor(complex_: SimplicialComplex, p: int, prime: int) -> GfpFactor:
    return factor_mod_p(coboundary_matrix(complex_, p), prime)


def coboundary(f: Cochain) -> Cochain:
    out = coboundary_matrix(f.base, f.degree) @ f.array
    return Cochain(f.base, f.degree + 1, f.group, out % _moduli(f.group))


def is_cocycle(f: Cochain) -> bool:
    return coboundary(f).is_zero()


def is_coboundary(f: Cochain) -> Optional[Cochain]:
    """A cochain g with delta g = f, or None.  The witness is the elimination
    routine's first solution, so it is deterministic; prime factors are
    solved against a GF(p) factorization of delta cached per complex."""
    n = len(simplices_of_dim(f.base, f.degree - 1))
    witness = np.zeros((n, f.group.rank), dtype=np.int64)
    for j, m in enumerate(f.group.factors):
        b = f.array[:, j]
        if _is_prime(m):
            x = solve_mod_p(_coboundary_factor(f.base, f.degree - 1, m), b, m)
        else:
            x = solve_mod_m(_coboundary_snf(f.base, f.degree - 1), b, m)
        if x is None:
            return None
        witness[:, j] = x
    return Cochain(f.base, f.degree - 1, f.group, witness)


# ------------------------------------------------------------ cohomology ----


@dataclass(frozen=True)
class CohomologySpace:
    """H^p of a complex with fixed finite abelian coefficients.

    invariant_factors always describes the group.  dimension and basis are
    filled in when the coefficients are a sum of copies of a single prime
    field; basis entries are cocycle representatives of a basis of classes.
    """

    base: SimplicialComplex
    degree: int
    coefficients: AbelianGroup
    invariant_factors: tuple[int, ...]
    prime: Optional[int]
    dimension: Optional[int]
    basis: Optional[tuple[Cochain, ...]]

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n


@dataclass(frozen=True)
class CohomologyClass:
    """A cohomology class, carried by an explicit cocycle representative."""

    representative: Cochain
    space: CohomologySpace

    def __post_init__(self):
        if not is_cocycle(self.representative):
            raise ValueError("representative is not a cocycle")

    def is_trivial(self) -> bool:
        return is_coboundary(self.representative) is not None

    def same_class_as(self, other: "CohomologyClass") -> bool:
        return classes_equal(self.representative, other.representative)


def _integral_rank(complex_: SimplicialComplex, p: int) -> int:
    diag = _coboundary_snf(complex_, p).diagonal()
    return sum(1 for d in diag if d != 0)


def _gfp_class_basis(complex_: SimplicialComplex, p: int, prime: int) -> list[np.ndarray]:
    """Vectors in C^p representing a basis of H^p over GF(prime).

    The basis is the greedy one: of the nullspace vectors N_0, N_1, ... of
    delta^p, in `nullspace_mod_p`'s order, N_k is kept when it is independent
    of im delta^{p-1} and of the vectors kept before it.  A `GfpSpan` makes
    that choice in the quotient C^p / im delta^{p-1}, through the cached
    factor T of delta^{p-1}, the one its solves use.  T delta^{p-1} is in
    reduced row echelon form with rank r, so its column space is the
    vectors that vanish from row r on; T is invertible, so y lies in
    im delta^{p-1} + span(S) exactly when (T y)[r:] lies in the span of the
    (T s)[r:], s in S.  The span is fed the projections (T N_k)[r:], of
    length #p-simplices - r; once it fills the quotient no later vector can
    be kept.  In the top degree the quotient is H^p itself, so a few
    inserts settle the basis.
    """
    up = coboundary_matrix(complex_, p)
    factor = _coboundary_factor(complex_, p - 1, prime)
    image_rank = len(factor.pivots)
    span = GfpSpan(factor.rows - image_rank, prime)
    reps = []
    for vec in nullspace_mod_p(up, prime):
        if span.rank == span.dim:
            break
        if span.insert(factor._times(vec, image_rank)):
            reps.append(vec % prime)
    expected = up.shape[1] - rank_mod_p(up, prime) - image_rank
    if len(reps) != expected:
        raise AssertionError("cohomology basis extraction lost rank")
    return reps


@lru_cache(maxsize=None)
def cohomology(complex_: SimplicialComplex, p: int, coefficients: AbelianGroup = Z2) -> CohomologySpace:
    """Compute H^p(complex; coefficients); results are cached per complex."""
    if p < 0:
        raise ValueError("degree must be non-negative")
    n_p = complex_.dim_count(p)
    betti = n_p - _integral_rank(complex_, p) - _integral_rank(complex_, p - 1)
    tors_here = _coboundary_snf(complex_, p).torsion()
    tors_below = _coboundary_snf(complex_, p - 1).torsion() if p >= 1 else []

    orders: list[int] = []
    for m in coefficients.factors:
        orders.extend([m] * betti)
        orders.extend(gcd(d, m) for d in tors_here)
        orders.extend(gcd(d, m) for d in tors_below)
    factors = invariant_factors(o for o in orders if o > 1)

    prime = None
    dimension = None
    basis = None
    fs = coefficients.factors
    if fs and all(f == fs[0] for f in fs) and _is_prime(fs[0]):
        prime = fs[0]
        vecs = _gfp_class_basis(complex_, p, prime)
        dimension = len(vecs) * len(fs)
        chains = []
        for slot in range(len(fs)):
            for v in vecs:
                vals = np.zeros((n_p, len(fs)), dtype=np.int64)
                vals[:, slot] = v
                chains.append(Cochain(complex_, p, coefficients, vals))
        basis = tuple(chains)
        if factors != (prime,) * dimension:
            raise AssertionError(
                f"universal-coefficient factors {factors} disagree with GF({prime}) dimension {dimension}"
            )

    return CohomologySpace(
        base=complex_,
        degree=p,
        coefficients=coefficients,
        invariant_factors=factors,
        prime=prime,
        dimension=dimension,
        basis=basis,
    )


def classes_equal(f: Cochain, g: Cochain) -> bool:
    """Do two cocycles represent the same cohomology class?"""
    for name, c in (("first", f), ("second", g)):
        if not is_cocycle(c):
            raise ValueError(f"{name} argument is not a cocycle")
    f._compatible(g)
    return is_coboundary(f - g) is not None


def enumerate_classes(
    complex_: SimplicialComplex,
    p: int,
    coefficients: AbelianGroup = Z2,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[CohomologyClass]:
    """Every class of H^p, one representative each; zero class comes first."""
    space = cohomology(complex_, p, coefficients)
    if space.prime is None:
        raise ValueError(
            "class enumeration needs coefficients that are a sum of copies of one prime field"
        )
    count = space.prime ** space.dimension
    if count > cap:
        raise CapExceededError(count, cap, f"enumerating H^{p} classes")
    out = []
    for combo in itertools.product(range(space.prime), repeat=space.dimension):
        rep = zero_cochain(complex_, p, coefficients)
        for k, b in zip(combo, space.basis):
            if k:
                rep = rep + b._reduced(k * b.array)
        out.append(CohomologyClass(representative=rep, space=space))
    return out


# ---------------------------------------------------------------- file I/O ----


def write_cochain(path, f: Cochain) -> None:
    lines = [
        f"degree {f.degree} group {f.group.format()} complex {complex_digest(f.base)}"
    ]
    for simplex, value in zip(simplices_of_dim(f.base, f.degree), f.values):
        lines.append(" ".join(map(str, simplex)) + "  " + " ".join(map(str, value)))
    Path(path).write_text("\n".join(lines) + "\n")


def read_cochain(path, complex_: SimplicialComplex) -> Cochain:
    text = Path(path).read_text().splitlines()
    body = [ln for ln in text if ln.strip() and not ln.lstrip().startswith("#")]
    if not body:
        raise ValueError(f"empty cochain file {path}")
    head = body[0].split()
    if len(head) != 6 or head[0] != "degree" or head[2] != "group" or head[4] != "complex":
        raise ValueError(f"bad cochain header {body[0]!r} in {path}")
    degree = int(head[1])
    group = parse_group(head[3])
    digest = head[5]
    if digest != complex_digest(complex_):
        raise ValueError(
            f"cochain file {path} was written for a different complex (digest {digest})"
        )
    simplices = simplices_of_dim(complex_, degree)
    values: dict[tuple[int, ...], tuple[int, ...]] = {}
    for line in body[1:]:
        toks = line.split()
        if len(toks) != degree + 1 + group.rank:
            raise ValueError(f"bad cochain line {line!r} in {path}")
        simplex = tuple(int(t) for t in toks[: degree + 1])
        value = tuple(int(t) for t in toks[degree + 1 :])
        if simplex not in complex_:
            raise ValueError(f"simplex {simplex} from {path} is not in the complex")
        if simplex in values:
            raise ValueError(f"cochain file {path} gives simplex {simplex} a second time, in line {line!r}")
        values[simplex] = value
    missing = [s for s in simplices if s not in values]
    if missing:
        raise ValueError(f"cochain file {path} is missing values, first gap {missing[0]}")
    return Cochain(complex_, degree, group, tuple(values[s] for s in simplices))
