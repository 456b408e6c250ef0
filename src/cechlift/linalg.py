"""Exact linear algebra helpers: GF(p) elimination and integer Smith normal form.

Every entry point takes integer entries only, and raises ValueError on
any other (a float is not rounded); GF(p) also takes only a prime p up to
2^31 - 1.  Over odd primes a matrix is a numpy int64 array, and
`rref_mod_p` reduces one copy in place, mod p after every pivot's update,
so every entry stays below p and every product below p^2 < 2^63.  Over
GF(2) each row is one Python int, bit c for column c, and elimination
XORs whole rows, as in Ripser and PHAT.  That path returns the same int64
matrices and pivots; a rank counts the pivots of its forward pass alone.

A GF(p) solve goes through a `GfpFactor` of the matrix: `factor_mod_p`
row-reduces [A | I] once, pivoting on A's columns only, and keeps the
right block T, the product of the row operations, so each right-hand side
b costs one product T b.  Over GF(2) T is kept by columns, one int each,
and T b is the XOR of the columns at b's odd entries: one big-int XOR per
nonzero of b, a handful for a sparse obstruction.  Callers that ask many
questions of one matrix keep the factor (cochain caches one per complex,
degree and prime), and the witness is the one a fresh elimination of
[A | b] returns; `factor_mod_p` gives the argument.  The cohomology basis
uses the same cached factor: `GfpSpan` picks the representatives among
the nullspace vectors of the next coboundary in the coordinates T gives
to the quotient by the image.

The Smith normal form works on plain Python ints, so entries can never
overflow, and on sparse rows: dicts of nonzeros, with a column-to-rows
index so each step touches only nonzero entries.  `smith_normal_form`
computes the diagonal at once and holds the matrix, read-only, for the
rest.  The diagonal pass (`_diagonal`) pivots on ±1 entries in Markowitz
order, as Dumas, Heckenbach, Saunders and Welker do for simplicial
homology: the shortest row first, in it the unit whose column is
shortest; it clears that column by row operations and drops the pivot's
row and column.  On the coboundaries of the surfaces here that leaves
nothing, or on a nonorientable one a single row of even entries; what is
left goes through the logged elimination.  A rank or torsion, all a
verdict or a cohomology group asks of the Smith form, reads that
diagonal only.

The logged elimination (`_eliminate`) is a sparse replay of the dense one
kept in the tests as the reference: rows and columns move through
position tables, and its operations and their order are the
reference's, so S, and U and V replayed from its logs, equal the
reference's entry for entry.  It runs on the whole held matrix at the
first read of the logs, and its diagonal must equal the diagonal pass's.
On dense matrices the entries can grow exponentially, so both passes
stop with `CapExceededError` once a pivot or quotient passes
`_SNF_MAX_BITS` bits.  A composite-modulus solve applies the row log to
b itself, the product form of U (Dantzig and Orchard-Hays), skipping
each operation whose source entry is 0, and multiplies by V's image
columns, the ones at nonzero diagonal entries, which it replays from the
column operations they depend on; a kernel draw replays the full V.
V's parts are stored as their nonzeros by rows (CSR), built on first
read; no library path builds U.  Solves and kernel draws take a modulus
m in 1..2^31 - 1, reduce V's values mod m once per modulus, and each
product is one gather and one `np.add.reduceat` over 16-bit limbs, exact
in int64 for such m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, prod
from typing import Optional, Sequence, Union

import numpy as np

from .errors import CapExceededError, InternalCheckError

__all__ = [
    "rref_mod_p",
    "rank_mod_p",
    "GfpFactor",
    "factor_mod_p",
    "solve_mod_p",
    "nullspace_mod_p",
    "GfpSpan",
    "Snf",
    "smith_normal_form",
    "solve_mod_m",
    "sample_kernel_mod_m",
    "invariant_factors",
]


# ---------------------------------------------------------------- GF(p) ----

# Rows updated together per numpy call in an elimination step: bounds the
# temporaries to a block of rows instead of the whole matrix.
_BLOCK_ROWS = 64

# The largest prime GF(p) takes, and the largest modulus of a Smith-form
# solve: every product of two residues, and every 16-bit limb product in
# _matvec_mod and _Csr.matvec_mod, then stays exact in int64.
_MAX_PRIME = 2**31 - 1


# Bounded so that emptying the library's caches reaches it too; trial
# division of 2^31 - 1 alone takes milliseconds.
@lru_cache(maxsize=64)
def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _integers(x, p: Optional[int] = None, ndim: Optional[int] = None) -> np.ndarray:
    """`x` as an integer array, the one input check of this module.  Raises
    ValueError on an entry that is not an integer, or when `x` does not
    have `ndim` dimensions.  No copy when `x` already is an integer array
    whose type holds p; a narrower one is widened to int64, since numpy
    casts p to the array's type in `x % p`.  Python ints, which may be of
    any size, are reduced mod p into int64 when a modulus p is given, and
    stay exact ints otherwise."""
    m = np.asarray(x)
    if ndim is not None and m.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {m.shape}")
    if m.dtype.kind == "O" and all(isinstance(v, (int, np.integer)) for v in m.flat):
        return m if p is None else (m % p).astype(np.int64)
    if m.dtype == np.uint64 and p is not None:
        return m % np.uint64(p)
    if m.dtype.kind in "iu":
        # int64 holds every modulus; np.iinfo costs as much as a small solve.
        if p is not None and m.dtype.itemsize < 8 and p > np.iinfo(m.dtype).max:
            return m.astype(np.int64)
        return m
    if m.dtype.kind == "b" or not m.size:
        return m.astype(np.int64)
    raise ValueError(f"expected integer entries, got dtype {m.dtype}")


def _gfp_matrix(a, p) -> np.ndarray:
    """`a` as a 2-d integer array (see _integers), after checking that p is
    a prime in 2..2^31 - 1; raises ValueError otherwise."""
    if not (isinstance(p, (int, np.integer)) and 2 <= p <= _MAX_PRIME and _is_prime(int(p))):
        raise ValueError(f"GF(p) needs a prime p in 2..2^31 - 1, got {p!r}")
    return _integers(a, p, ndim=2)


def _pack_rows(m: np.ndarray) -> list[int]:
    """Each row of an integer matrix as an int with bit c set when entry c is odd."""
    rows, cols = m.shape
    width = (cols + 7) // 8
    if not width:
        return [0] * rows
    out = []
    for k in range(0, rows, _BLOCK_ROWS):
        # The cast to uint8 keeps each entry's lowest bit, and packbits is
        # many times faster on uint8 than on wider types.
        low = m[k : k + _BLOCK_ROWS].astype(np.uint8) & 1
        buf = np.packbits(low, axis=1, bitorder="little").tobytes()
        out.extend(int.from_bytes(buf[i : i + width], "little") for i in range(0, len(buf), width))
    return out


def _unpack_rows(bits: Sequence[int], cols: int) -> np.ndarray:
    """The int64 0/1 matrix whose row i has bit c of bits[i] in column c;
    inverse of _pack_rows.  Unpacks a block of rows at a time into the
    output, so no full-size uint8 copy is made."""
    out = np.empty((len(bits), cols), dtype=np.int64)
    width = (cols + 7) // 8
    if not width:
        return out
    for k in range(0, len(bits), _BLOCK_ROWS):
        buf = b"".join(v.to_bytes(width, "little") for v in bits[k : k + _BLOCK_ROWS])
        block = np.frombuffer(buf, dtype=np.uint8).reshape(-1, width)
        out[k : k + block.shape[0]] = np.unpackbits(block, axis=1, count=cols, bitorder="little")
    return out


def _forward_gf2(bits: Sequence[int], mask: int) -> tuple[dict[int, int], list[int]]:
    """Forward elimination over GF(2) on one int per row: each row is keyed
    on its lowest set bit within `mask`, so every pivot row is zero left of
    its pivot there.  Returns {pivot column: its row} and the rows that
    reduced to zero within `mask`, in input order; the rank is the number
    of pivots."""
    lead: dict[int, int] = {}  # pivot column -> the row whose lowest masked bit it is
    rest: list[int] = []
    for v in bits:
        w = v & mask
        while w:
            c = (w & -w).bit_length() - 1
            row = lead.get(c)
            if row is None:
                lead[c] = v
                break
            v ^= row
            w = v & mask
        else:
            rest.append(v)
    return lead, rest


def _rref_gf2(m: np.ndarray, pivot_cols: Optional[int]) -> tuple[np.ndarray, list[int]]:
    """rref_mod_p over GF(2), on one int per row.

    After the forward pass (`_forward_gf2`), back substitution runs from the
    last pivot to the first: XOR with a finished pivot row clears that
    row's pivot bit and brings in only non-pivot bits, so each pivot bit of
    a row costs one XOR.  The pivot rows come first in column order, the
    rows that reduced to zero on the pivot columns after them in input
    order.  Every step is invertible, so the result is the input times an
    invertible matrix, and the unique RREF when every column is pivoted
    on.  Only the int rows and the int64 result are full width.
    """
    rows, cols = m.shape
    mask = (1 << (cols if pivot_cols is None else min(pivot_cols, cols))) - 1
    lead, rest = _forward_gf2(_pack_rows(m), mask)
    pivots = sorted(lead)
    pivot_bits = 0
    for c in pivots:
        pivot_bits |= 1 << c
    for c in reversed(pivots):
        v = lead[c]
        # Every other pivot bit of v lies right of c, on a finished row.
        extra = (v & pivot_bits) ^ (1 << c)
        while extra:
            low = extra & -extra
            v ^= lead[low.bit_length() - 1]
            extra ^= low
        lead[c] = v
    return _unpack_rows([lead[c] for c in pivots] + rest, cols), pivots


def rref_mod_p(a, p: int, *, pivot_cols: Optional[int] = None) -> tuple[np.ndarray, list[int]]:
    """Row-reduce a copy of `a` mod the prime `p`; returns (rref, pivot columns).

    With `pivot_cols`, only the first `pivot_cols` columns are pivoted on;
    the columns after them are carried along by the same row operations.
    Those columns come out in reduced row echelon form; the carried ones,
    and the rows past the rank, depend on the order of elimination, which
    differs between GF(2) and odd primes.
    """
    m = _gfp_matrix(a, p)
    if p == 2:
        return _rref_gf2(m, pivot_cols)
    m = np.array(m, dtype=np.int64)
    np.remainder(m, p, out=m)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols if pivot_cols is None else min(pivot_cols, cols)):
        if r == rows:
            break
        hits = np.nonzero(m[r:, c])[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        # Rows at positions >= r are zero left of c, so the pivot row is too
        # and the update only needs columns >= c.
        prow = m[r, c:]
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        for k in range(0, others.size, _BLOCK_ROWS):
            blk = others[k : k + _BLOCK_ROWS]
            sub = m[blk, c:]
            sub -= m[blk, c, None] * prow
            np.remainder(sub, p, out=sub)
            m[blk, c:] = sub
        pivots.append(c)
        r += 1
    return m, pivots


def rank_mod_p(a, p: int) -> int:
    """Rank of `a` mod the prime p.  Over GF(2) it counts the pivots of the
    forward pass alone, with no back substitution and no int64 result."""
    m = _gfp_matrix(a, p)
    if p == 2:
        return len(_forward_gf2(_pack_rows(m), (1 << m.shape[1]) - 1)[0])
    return len(rref_mod_p(m, p)[1])


@dataclass(frozen=True, eq=False)
class GfpFactor:
    """Row operations reducing a rows x cols matrix A mod the prime p.

    T is invertible and T A mod p is the reduced row echelon form of A, with
    its pivots at the listed columns and zero rows from the rank on.  T is
    stored once: for odd primes as the int64 array `t_dense`, over GF(2)
    as `t_cols`, one int per column of T with bit i for row i.  A solve
    reads T b and nothing else: over GF(2) the XOR of the columns at b's
    odd entries, one big-int XOR per nonzero of b; for odd primes one
    product with the read-only `t_dense`.
    """

    pivots: tuple[int, ...]
    p: int
    rows: int
    cols: int
    t_dense: Optional[np.ndarray] = field(default=None, repr=False)
    t_cols: Optional[tuple[int, ...]] = field(default=None, repr=False)

    @cached_property
    def _pivot_index(self) -> np.ndarray:
        return np.array(self.pivots, dtype=np.intp)

    def _xor_cols(self, b: np.ndarray) -> int:
        """T b over GF(2) as an int, bit i for row i: the XOR of T's columns
        at the odd entries of b."""
        tb = 0
        cols = self.t_cols
        for j in np.flatnonzero(b & 1).tolist():
            tb ^= cols[j]
        return tb

    def _times(self, b: np.ndarray, start: int = 0) -> np.ndarray:
        """(T b)[start:] mod p, for b of integers in 0..p-1."""
        if self.t_cols is None:
            return _matvec_mod(self.t_dense[start:], b, self.p)
        return _bits_to_array(self._xor_cols(b) >> start, self.rows - start)


def _bits_to_array(v: int, n: int) -> np.ndarray:
    """Bits 0..n-1 of v as an int64 0/1 array."""
    buf = np.frombuffer(v.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(buf, count=n, bitorder="little").astype(np.int64)


def factor_mod_p(a, p: int) -> GfpFactor:
    """Reduce [A mod p | I], pivoting on A's columns only, and keep T, the
    right block of the result.

    Why T b gives the same witness as eliminating [A | b]: the steps that
    pivot on A's columns depend only on those columns, so they are exactly
    the steps the elimination of [A | b] performs, and applied to b they
    produce its augmented column.  Once A's columns are exhausted the
    elimination stops.  Pivoting on I's columns as well would only add
    rows at positions >= rank (zero on A's side) into other rows, and on a
    consistent b those rows of T b are zero, so such steps would change
    neither the answer nor the invertibility of T.  T A has zero rows from
    the rank on, so b is consistent iff (T b)[rank:] == 0, and then
    x[pivots] = (T b)[:rank] is the same first solution, free variables 0.
    Any other T with those properties gives the same x: for b = A y, row i
    of T b is row i of T A times y, the same RREF row whatever T is.
    """
    m = _gfp_matrix(a, p)
    rows, cols = m.shape
    # [A mod p | I] in the narrowest type that holds 0..p-1: rref_mod_p's
    # working copy is then the only full-width one alive.
    small = np.zeros((rows, cols + rows), dtype=np.min_scalar_type(p - 1))
    # Written into `small` with no full-size temporary; over GF(2) the lowest
    # bit is the residue, and much cheaper than a remainder.
    if p == 2:
        np.bitwise_and(m, 1, out=small[:, :cols], casting="unsafe")
    else:
        np.remainder(m, p, out=small[:, :cols], casting="unsafe")
    del m
    np.fill_diagonal(small[:, cols:], 1)
    reduced, pivots = rref_mod_p(small, p, pivot_cols=cols)
    del small
    if p == 2:
        # T's columns are the rows of its transpose, taken from a uint8 copy
        # of T: transposing bytes is cheaper than transposing int64 entries.
        t_transposed = reduced[:, cols:].astype(np.uint8).T.copy()
        del reduced
        return GfpFactor(tuple(pivots), p, rows, cols, t_cols=tuple(_pack_rows(t_transposed)))
    t = np.ascontiguousarray(reduced[:, cols:])
    del reduced
    t.setflags(write=False)
    return GfpFactor(tuple(pivots), p, rows, cols, t_dense=t)


def _matvec_mod(t: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """t @ b mod p, exact in int64 for entries of t and b in 0..2^31 - 1.

    b is split into 16-bit limbs, so each product is below 2^31 * 2^16 =
    2^47 and a row of t sums fewer than 2^16 of them without overflow; a t
    with 2^16 rows would take 32 GiB, far past anything built here.  p is
    a modulus up to 2^31, or an array of them broadcast against the rows
    of t @ b.
    """
    hi, lo = b >> 16, b & 0xFFFF
    return ((t @ hi) % p * 0x10000 + (t @ lo) % p) % p


def solve_mod_p(a: Union[GfpFactor, np.ndarray], b, p: int) -> Optional[np.ndarray]:
    """First solution of a x = b mod prime p (free variables set to 0), or None.

    `a` is the matrix or its `GfpFactor` mod p; given the matrix, it is
    factored first.  b must hold integers.  A solve reads T b only (see
    `GfpFactor`): b is consistent when T b is zero from the rank on, and
    then x at the pivot columns is T b below the rank.  Over GF(2) T b is
    one int, so the test is a shift and x reads its low `rank` bits.
    """
    f = a if isinstance(a, GfpFactor) else factor_mod_p(a, p)
    if f.p != p:
        raise ValueError(f"factor is mod {f.p}, not mod {p}")
    rhs = _integers(np.reshape(b, -1), p)
    if rhs.shape[0] != f.rows:
        raise ValueError("right-hand side length does not match row count")
    rank = len(f.pivots)
    x = np.zeros(f.cols, dtype=np.int64)
    if f.t_cols is not None:
        tb = f._xor_cols(rhs)
        if tb >> rank:
            return None
        x[f._pivot_index] = _bits_to_array(tb, rank)
        return x
    tb = f._times(np.asarray(rhs, dtype=np.int64) % p)
    if tb[rank:].any():
        return None
    x[f._pivot_index] = tb[:rank]
    return x


def nullspace_mod_p(a, p: int) -> list[np.ndarray]:
    """Basis of the right nullspace of `a` mod prime p, one vector per free
    column of its reduced form, in column order: 1 at the free column and
    -R[i, free] at the i-th pivot column of the reduced form R."""
    m = _gfp_matrix(a, p)
    rref, pivots = rref_mod_p(m, p)
    free = np.ones(m.shape[1], dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    q = rref[: len(pivots)][:, free]
    del rref  # before the basis is allocated, to keep the peak down
    np.negative(q, out=q)
    np.remainder(q, p, out=q)
    basis = np.zeros((free.size, m.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = q.T
    return list(basis)


class GfpSpan:
    """Incremental span tracker over GF(p), used to pick coset representatives."""

    def __init__(self, dim: int, p: int):
        self.dim = dim
        self.p = p
        self._rows: list[np.ndarray] = []
        self._lead: list[int] = []

    def insert(self, vec) -> bool:
        """Reduce `vec` against the span; add it and return True if independent."""
        v = _integers(vec, self.p).astype(np.int64) % self.p
        for row, lead in zip(self._rows, self._lead):
            if v[lead]:
                v = (v - v[lead] * row) % self.p
        hits = np.nonzero(v)[0]
        if hits.size == 0:
            return False
        lead = int(hits[0])
        v = (v * pow(int(v[lead]), self.p - 2, self.p)) % self.p
        self._rows.append(v)
        self._lead.append(lead)
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)


# ------------------------------------------------------ Smith normal form ----


@dataclass(frozen=True, eq=False)
class _Csr:
    """Nonzeros of a matrix by rows: the rows that have any, the offset of
    each such row's first entry, and every entry's column and exact value."""

    hit_rows: np.ndarray
    starts: np.ndarray
    columns: np.ndarray
    values: tuple[int, ...]
    rows: int

    @classmethod
    def from_rows(cls, rows: Sequence[dict[int, int]]) -> "_Csr":
        """From one {column: nonzero value} dict per row."""
        counts = np.array([len(r) for r in rows], dtype=np.int64)
        columns = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(counts.sum()))
        values = tuple(chain.from_iterable(r.values() for r in rows))
        hit_rows = np.flatnonzero(counts)
        starts = (np.cumsum(counts) - counts)[hit_rows]
        return cls(hit_rows=hit_rows, starts=starts, columns=columns, values=values, rows=len(rows))

    @cached_property
    def _by_modulus(self) -> dict[int, np.ndarray]:
        return {}

    def matvec_mod(self, x: np.ndarray, m: int) -> np.ndarray:
        """This matrix times x mod m, for x in 0..m-1.  The values are
        reduced mod m as Python ints, so an entry of any size is exact, once
        per modulus.  Exact in int64 by the 16-bit limb split of
        _matvec_mod: each product is below 2^47, and a row holds fewer than
        2^16 entries.  A row without entries gives 0 (reduceat would repeat
        the next row's first product for it, so it is left out)."""
        values = self._by_modulus.get(m)
        if values is None:
            values = self._by_modulus[m] = np.array([v % m for v in self.values], dtype=np.int64)
        out = np.zeros(self.rows, dtype=np.int64)
        if self.columns.size:
            xs = x[self.columns]
            hi = np.add.reduceat(values * (xs >> 16), self.starts) % m
            lo = np.add.reduceat(values * (xs & 0xFFFF), self.starts) % m
            out[self.hit_rows] = (hi * 0x10000 + lo) % m
        return out


# The log of a Smith form's row or column operations: `ops` holds three ints
# per operation, in order, flat to keep it small, and `order` is the line at
# each final position, lines named by their index in A.  (dst, src, k) adds
# k times line src to line dst; (i, i, -2), line i plus -2 times itself,
# negates it by the same rule.
_OpLog = tuple[list[int], tuple[int, ...]]


def _replay(ops: list[int], order: tuple[int, ...], count: Optional[int] = None) -> list[dict[int, int]]:
    """A logged elimination's operations applied to the identity, as one
    {index: nonzero entry} dict for each of the first `count` final
    positions (all by default): rows of U, or columns of V.  Only the
    operations those lines depend on are replayed, marked in one backward
    pass: an operation counts when it writes a line needed at that point,
    and its source is needed from there back.  So a line written after it
    was a source (a Euclidean swap does that) takes those later writes only
    if it is needed after them."""
    wanted = order[:count]
    needed = set(wanted)
    marked = []
    for at in range(len(ops) - 3, -1, -3):
        if ops[at] in needed:
            marked.append(at)
            needed.add(ops[at + 1])
    lines = {i: {i: 1} for i in needed}
    for at in reversed(marked):
        dst, src, k = ops[at : at + 3]
        line = lines[dst]
        # line dst += k * line src; (i, i, -2) negates line i in place.
        for key, x in lines[src].items():
            y = line.get(key, 0) + k * x
            if y:
                line[key] = y
            else:
                del line[key]
    return [lines[i] for i in wanted]


@dataclass(frozen=True, eq=False)
class Snf:
    """S = U A V with U, V unimodular; S diagonal with divisibility down the diagonal.

    S is stored as its diagonal, computed by `smith_normal_form`, and A as
    `matrix`, read-only.  A rank or torsion reads the diagonal alone.  U
    and V are kept as `row_log` and `col_log`, the logs of the row and
    column operations of `_eliminate` on A, run once at the first read of
    either; a diagonal that differs from the one held raises
    `InternalCheckError`, and a pivot or quotient past `_SNF_MAX_BITS`
    raises `CapExceededError` there.  A solve applies the row log to its
    right-hand side and reads `v_image_csr`, V's columns at the nonzero
    diagonal entries; a kernel draw reads the full V, `v_csr`.  Both are
    cached properties replayed from the column log on first read.
    Equality compares rows, cols, diag and A's entries, and the hash
    covers rows, cols and diag, so neither runs an elimination.
    """

    rows: int
    cols: int
    diag: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Snf):
            return NotImplemented
        return (self.rows, self.cols, self.diag) == (other.rows, other.cols, other.diag) and np.array_equal(
            self.matrix, other.matrix
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.diag))

    @cached_property
    def _logs(self) -> tuple[_OpLog, _OpLog]:
        diag, row_log, col_log = _eliminate(self.matrix)
        if diag != self.diag:
            at = next(i for i, (x, y) in enumerate(zip(diag, self.diag)) if x != y)
            raise InternalCheckError(
                f"Smith form diagonal entry {at}: the logged elimination gives {diag[at]}, "
                f"the diagonal pass {self.diag[at]}"
            )
        return row_log, col_log

    @property
    def row_log(self) -> _OpLog:
        return self._logs[0]

    @property
    def col_log(self) -> _OpLog:
        return self._logs[1]

    @cached_property
    def v_csr(self) -> _Csr:
        return self._v_columns(self.cols)

    @cached_property
    def v_image_csr(self) -> _Csr:
        return self._v_columns(len(self.diag) - self.diag.count(0))

    @cached_property
    def _row_order(self) -> np.ndarray:
        """The row at each final position, as an index array for solves."""
        return np.array(self.row_log[1], dtype=np.intp)

    def _v_columns(self, count: int) -> _Csr:
        """V's first `count` columns, by rows: a cols x count matrix."""
        vrow: list[dict] = [{} for _ in range(self.cols)]
        for j, col in enumerate(_replay(*self.col_log, count)):
            for i, x in col.items():
                vrow[i][j] = x
        return _Csr.from_rows(vrow)

    def diagonal(self) -> list[int]:
        return list(self.diag)

    def torsion(self) -> list[int]:
        return [d for d in self.diag if d > 1]

    @cached_property
    def _by_modulus(self) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return {}

    def _mod(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The diagonal mod m as int64 arrays (g, mm, inv), for solves.  For
        each diagonal position i (m past the diagonal, up to max(rows,
        cols)): g = gcd(d_i mod m, m), mm = m / g, and inv, the inverse of
        d_i / g mod mm; d_i z = r (mod m) is solvable iff g | r, with least
        solution z = (r / g) inv mod mm."""
        view = self._by_modulus.get(m)
        if view is None:
            diag = [d % m for d in self.diag] + [0] * (max(self.rows, self.cols) - len(self.diag))
            g = [gcd(d, m) for d in diag]
            mm = [m // x for x in g]
            inv = [pow(d // x, -1, n) for d, x, n in zip(diag, g, mm)]
            view = self._by_modulus[m] = tuple(np.array(v, dtype=np.int64) for v in (g, mm, inv))
        return view


# Bit length past which a pivot or quotient of either Smith-form pass stops
# it.  On the coboundaries of the builtins, of their first and second
# subdivisions and of sd^3(torus7) none passes 2 bits.  Dense integer
# matrices can grow their entries exponentially: a 7 x 5 one with entries
# below 21 ran for minutes without finishing, and now raises in
# milliseconds.  The diagonal pass and the logged one take different
# steps, so one can pass the bound where the other does not: of 3,000
# random matrices up to 7 x 7 with entries in [-20, 20], 264-283 pass it
# in both, 29-34 in the diagonal pass alone and 23-43 in the logged one
# alone (three seeds), each within a second.  `smith_normal_form` runs the logged pass at once when
# the diagonal pass stops, so it raises where that pass does; otherwise
# the error comes from the first read of the logs.
_SNF_MAX_BITS = 1 << 16


def _snf_too_big(x: int) -> CapExceededError:
    return CapExceededError(x.bit_length(), _SNF_MAX_BITS, "smith_normal_form entry", "bits")


def _sparse(m: np.ndarray) -> tuple[list[dict], list[set]]:
    """The nonzeros of an integer matrix as one {column: value} dict per
    row, values as Python ints, and for each column the set of rows with
    a nonzero there."""
    rows, cols = m.shape
    srow: list[dict] = [{} for _ in range(rows)]
    incol: list[set] = [set() for _ in range(cols)]
    # Over the flat array: np.nonzero on a 2-d one is several times slower.
    flat = m.ravel()
    hits = np.flatnonzero(flat != 0)
    nz_r, nz_c = np.divmod(hits, cols)
    for r, c, x in zip(nz_r.tolist(), nz_c.tolist(), flat[hits].tolist()):
        srow[r][c] = x
        incol[c].add(r)
    return srow, incol


def smith_normal_form(a) -> Snf:
    """Smith normal form of an integer matrix: the diagonal now, U and V as
    logs of operations on first read (see `Snf`).

    The matrix is held read-only: copied unless it is a read-only array
    that owns its data, as the cached coboundaries are, so no later write
    by the caller reaches the logs.  The diagonal comes from `_diagonal`;
    when that pass stops on `_SNF_MAX_BITS`, `_eliminate` runs at once and
    raises where it does, or gives the diagonal and the logs together.
    """
    m = _integers(a, ndim=2)
    if m.flags.writeable or m.base is not None:
        m = m.copy()
        m.setflags(write=False)
    try:
        return Snf(*m.shape, _diagonal(m), m)
    except CapExceededError:
        diag, row_log, col_log = _eliminate(m)
    snf = Snf(*m.shape, diag, m)
    # Seeds the cached property, which would run the same elimination again.
    vars(snf)["_logs"] = (row_log, col_log)
    return snf


def _diagonal(m: np.ndarray) -> tuple[int, ...]:
    """The diagonal of the Smith normal form of m, with no logs.

    Unit pivots in Markowitz order first: take the shortest row that holds
    a ±1 entry, in it the ±1 entry whose column is shortest, clear that
    column by row operations, and drop the pivot's row and column; a
    column operation would clear the rest of the row without touching
    any other.  Rows wait in a heap by length; a row changed by an
    operation is pushed again, and an entry whose length is out of date is
    skipped.  Each pivot is a unit of the diagonal.  The rows and columns
    left with entries, usually none, form a block that `_eliminate`
    reduces.  The diagonal is the units, then the block's nonzero entries,
    then zeros: the invariant factors are unique, so it is the one
    `_eliminate` gives on m.  Raises CapExceededError once a multiplier of
    the unit pivots, or a pivot or quotient of the block's elimination,
    passes `_SNF_MAX_BITS` bits.
    """
    rows, cols = m.shape
    srow, incol = _sparse(m)
    units = 0
    heap = [(len(row), r) for r, row in enumerate(srow) if row]
    heapify(heap)
    while heap:
        n, r = heappop(heap)
        prow = srow[r]
        if n != len(prow):
            continue
        pc = None
        for c, x in prow.items():
            if (x == 1 or x == -1) and (pc is None or len(incol[c]) < len(incol[pc])):
                pc = c
        if pc is None:
            continue
        x = prow[pc]
        for i in [i for i in incol[pc] if i != r]:
            row = srow[i]
            # row i -= (its entry / the pivot) * row r; the pivot is its own inverse.
            k = -row[pc] * x
            if k.bit_length() > _SNF_MAX_BITS:
                raise _snf_too_big(k)
            for c, y in prow.items():
                z = row.get(c, 0) + k * y
                if z:
                    if c not in row:
                        incol[c].add(i)
                    row[c] = z
                else:
                    del row[c]
                    incol[c].discard(i)
            if row:
                heappush(heap, (len(row), i))
        for c in prow:
            incol[c].discard(r)
        srow[r] = {}
        units += 1
    left = [r for r in range(rows) if srow[r]]
    block_diag: tuple[int, ...] = ()
    if left:
        at = {c: j for j, c in enumerate(sorted({c for r in left for c in srow[r]}))}
        block = np.zeros((len(left), len(at)), dtype=object)
        for i, r in enumerate(left):
            for c, x in srow[r].items():
                block[i, at[c]] = x
        block_diag = tuple(d for d in _eliminate(block)[0] if d)
    return (1,) * units + block_diag + (0,) * (min(rows, cols) - units - len(block_diag))


def _eliminate(m: np.ndarray) -> tuple[tuple[int, ...], _OpLog, _OpLog]:
    """The logged Smith-form elimination of m: (diagonal, row log, column log).

    Pivot on the entry of least absolute value (first in row-major order),
    clear its row and column by Euclidean steps, swapping in any remainder,
    and fold in the first row the pivot does not divide until it divides
    the whole remaining block; finally make the pivot positive.

    S rows are dicts keyed by original column index; swaps only update the
    position tables row_at/rowpos and col_at/colpos.  Each row operation,
    sign flip and column operation is appended to a log by row or column
    id, so an elimination does no work on U or V.  A unit pivot alone in
    its column clears its row in one step: every column operation would
    leave a zero.
    """
    rows, cols = m.shape
    srow, incol = _sparse(m)
    row_ops: list[int] = []
    col_ops: list[int] = []
    row_at, rowpos = list(range(rows)), list(range(rows))
    col_at, colpos = list(range(cols)), list(range(cols))

    def swap_rows(i, j):
        ri, rj = row_at[i], row_at[j]
        row_at[i], row_at[j] = rj, ri
        rowpos[ri], rowpos[rj] = j, i

    def swap_cols(i, j):
        ci, cj = col_at[i], col_at[j]
        col_at[i], col_at[j] = cj, ci
        colpos[ci], colpos[cj] = j, i

    def add_row(src, dst, k):
        # row dst += k * row src, by row id
        d = srow[dst]
        for c, x in srow[src].items():
            y = d.get(c, 0) + k * x
            if y:
                if c not in d:
                    incol[c].add(dst)
                d[c] = y
            else:
                del d[c]
                incol[c].discard(dst)
        row_ops.extend((dst, src, k))

    def add_col(src, dst, k):
        # column dst += k * column src, by column id
        hits = incol[dst]
        for r in incol[src]:
            row = srow[r]
            y = row.get(dst, 0) + k * row[src]
            if y:
                row[dst] = y
                hits.add(r)
            else:
                del row[dst]
                hits.discard(r)
        col_ops.extend((dst, src, k))

    # Invariant: rows at positions >= t have no entries in columns at positions < t.
    t = 0
    while t < min(rows, cols):
        best = pi = pj = 0
        for pos in range(t, rows):
            for c, x in srow[row_at[pos]].items():
                ax = x if x > 0 else -x
                if not best or ax < best or (ax == best and pos == pi and colpos[c] < pj):
                    best, pi, pj = ax, pos, colpos[c]
            if best == 1:
                break
        if not best:
            break
        if best.bit_length() > _SNF_MAX_BITS:
            raise _snf_too_big(best)
        swap_rows(t, pi)
        swap_cols(t, pj)
        dirty = True
        while dirty:
            dirty = False
            # Clearing position i (a row here, a column below) moves or
            # changes only positions t and i, so the positions still to
            # visit are the ones listed up front.
            c = col_at[t]
            for i in sorted(rowpos[r] for r in incol[c] if rowpos[r] > t):
                r = row_at[i]
                q = srow[r][c] // srow[row_at[t]][c]
                if q:
                    if q.bit_length() > _SNF_MAX_BITS:
                        raise _snf_too_big(q)
                    add_row(row_at[t], r, -q)
                if c in srow[r]:
                    swap_rows(t, i)
                    dirty = True
            r, pc = row_at[t], col_at[t]
            prow = srow[r]
            if prow[pc] in (1, -1) and len(incol[pc]) == 1:
                # Column pc holds only the unit pivot, so each column
                # operation below would zero one entry of the pivot row and
                # touch nothing else: log them, then drop those entries.
                for j in sorted(colpos[c] for c in prow if c != pc):
                    c = col_at[j]
                    q = prow[c] // prow[pc]
                    if q.bit_length() > _SNF_MAX_BITS:
                        raise _snf_too_big(q)
                    col_ops.extend((c, pc, -q))
                    incol[c].discard(r)
                srow[r] = {pc: prow[pc]}
                break
            for j in sorted(colpos[c] for c in prow if colpos[c] > t):
                c = col_at[j]
                q = prow[c] // prow[col_at[t]]
                if q:
                    if q.bit_length() > _SNF_MAX_BITS:
                        raise _snf_too_big(q)
                    add_col(col_at[t], c, -q)
                if c in prow:
                    swap_cols(t, j)
                    dirty = True
        pivot = srow[row_at[t]][col_at[t]]
        if pivot not in (1, -1):
            # pivot must divide every remaining entry; fold a bad row in and retry
            offender = next(
                (row_at[i] for i in range(t + 1, rows) if any(x % pivot for x in srow[row_at[i]].values())),
                None,
            )
            if offender is not None:
                add_row(offender, row_at[t], 1)
                continue
        if pivot < 0:
            r = row_at[t]
            srow[r] = {c: -x for c, x in srow[r].items()}
            row_ops.extend((r, r, -2))
        t += 1

    diag = tuple(srow[row_at[t]].get(col_at[t], 0) for t in range(min(rows, cols)))
    return diag, (row_ops, tuple(row_at)), (col_ops, tuple(col_at))


def _modulus(m) -> int:
    """m as an int; ValueError unless it is an integer in 1..2^31 - 1."""
    if not (isinstance(m, (int, np.integer)) and 1 <= m <= _MAX_PRIME):
        raise ValueError(f"a modulus must be an integer in 1..2^31 - 1, got {m!r}")
    return int(m)


def solve_mod_m(snf: Snf, b, m: int) -> Optional[list[int]]:
    """Solve A x = b (mod m) given the SNF of A; least solution, or None.

    With S = U A V, solve S z = U b row by row and return x = V z.  A solve
    reads the row log, the diagonal and V's image columns, nothing else;
    the first read of the logs runs the logged elimination (see `Snf`).
    U b is the row log applied to b mod m, on Python ints, skipping every
    operation whose source entry is 0, then read in the final row order
    (`Snf._row_order`); U itself is never built.  z is 0 wherever the
    diagonal is, so x reads only V's image columns.  m must be an integer
    in 1..2^31 - 1.
    """
    m = _modulus(m)
    rhs = _integers(b, m, ndim=1)
    if rhs.shape[0] != snf.rows:
        raise ValueError("right-hand side length does not match row count")
    line = rhs.tolist()
    step = iter(snf.row_log[0])
    for dst, src, k in zip(step, step, step):
        if line[src]:
            line[dst] = (line[dst] + k * line[src]) % m
    # Entries never written keep b's values, which fit in int64 as b's did.
    ub = np.array(line, dtype=np.int64)[snf._row_order] % m
    g, mm, inv = (v[: snf.rows] for v in snf._mod(m))
    if (ub % g).any():
        return None
    # Rows with d = 0 mod m have g = m, mm = 1, so z = 0; V's image part reads z below the rank only.
    return snf.v_image_csr.matvec_mod((ub // g) * inv % mm, m).tolist()


def sample_kernel_mod_m(snf: Snf, m: int, rng) -> list[int]:
    """Uniform random solution of A x = 0 (mod m) given the SNF of A: V z
    for a random z with S z = 0 (mod m), through the full V; m as for
    `solve_mod_m`."""
    m = _modulus(m)
    g, mm, _ = snf._mod(m)
    # solutions of d z = 0 mod m are the multiples of m/g
    steps = zip(g[: snf.cols].tolist(), mm[: snf.cols].tolist())
    z = np.array([rng.randrange(k) * n for k, n in steps], dtype=np.int64)
    return snf.v_csr.matvec_mod(z, m).tolist()


# ------------------------------------------------------- invariant factors ----


def _prime_power_split(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders) -> tuple[int, ...]:
    """Collapse a multiset of cyclic orders into invariant-factor form d1 | d2 | ..."""
    powers: dict[int, list[int]] = {}  # prime -> its prime powers in the orders
    for n in _integers(list(orders), ndim=1).tolist():
        if n < 1:
            raise ValueError(f"cyclic order must be positive, got {n}")
        for p, e in _prime_power_split(n).items():
            powers.setdefault(p, []).append(p**e)
    # The k-th largest factor is the product of each prime's k-th largest power.
    width = max(map(len, powers.values()), default=0)
    ranked = [sorted(q, reverse=True) + [1] * (width - len(q)) for q in powers.values()]
    return tuple(sorted(prod(k) for k in zip(*ranked)))
