"""Independent reference implementations used to cross-check the package.

Everything here is written against the package's grain on purpose: ranks
come from bitmask elimination over GF(2) or a naive textbook pass for odd
primes, lift counting enumerates and partitions every candidate with raw
Cayley-table arithmetic, determinants use the Bareiss algorithm over exact
integers, and matrix products are plain Python triple loops.  Nothing in
this module calls cechlift.linalg.
"""

from itertools import combinations, product
from math import gcd

from cechlift.nerve import simplices_of_dim


def gf2_rank(rows):
    """Rank of a GF(2) matrix whose rows are integer bitmasks."""
    pivots = {}
    rank = 0
    for row in rows:
        cur = row
        while cur:
            h = cur.bit_length() - 1
            if h in pivots:
                cur ^= pivots[h]
            else:
                pivots[h] = cur
                rank += 1
                break
    return rank


def gf2_span(generators):
    """Every GF(2) combination of the generator bitmasks, as a set."""
    span = {0}
    for g in generators:
        span |= {x ^ g for x in span}
    return span


def naive_rank_mod_p(mat, p):
    """Row reduction over Z/p with plain Python integers, p prime."""
    rows = [[x % p for x in row] for row in mat]
    if not rows or not rows[0]:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def coboundary_bitrows(complex_, p):
    """GF(2) coboundary matrix out of degree p: one bitmask row per
    (p+1)-simplex, one bit per p-face.  Returns (rows, number of columns)."""
    lower = simplices_of_dim(complex_, p)
    upper = simplices_of_dim(complex_, p + 1)
    idx = {s: i for i, s in enumerate(lower)}
    rows = []
    for s in upper:
        bits = 0
        for face in combinations(s, len(s) - 1):
            bits |= 1 << idx[face]
        rows.append(bits)
    return rows, len(lower)


def coboundary_rows_signed(complex_, p):
    """Signed coboundary matrix out of degree p as lists of ints."""
    lower = simplices_of_dim(complex_, p)
    upper = simplices_of_dim(complex_, p + 1)
    idx = {s: i for i, s in enumerate(lower)}
    rows = []
    for s in upper:
        row = [0] * len(lower)
        for j in range(len(s)):
            face = s[:j] + s[j + 1 :]
            row[idx[face]] += (-1) ** j
        rows.append(row)
    return rows, len(lower)


def cohomology_dim_gf2(complex_, p):
    """dim H^p(X; Z/2) by rank-nullity from the bitmask elimination."""
    up_rows, n_p = coboundary_bitrows(complex_, p)
    rank_up = gf2_rank(up_rows)
    rank_down = 0
    if p > 0:
        down_rows, _ = coboundary_bitrows(complex_, p - 1)
        rank_down = gf2_rank(down_rows)
    return n_p - rank_up - rank_down


def cohomology_dim_mod_p(complex_, degree, prime):
    """dim H^degree(X; Z/prime) from the naive signed elimination."""
    up_rows, n_p = coboundary_rows_signed(complex_, degree)
    rank_up = naive_rank_mod_p(up_rows, prime) if up_rows else 0
    rank_down = 0
    if degree > 0:
        down_rows, _ = coboundary_rows_signed(complex_, degree - 1)
        rank_down = naive_rank_mod_p(down_rows, prime) if down_rows else 0
    return n_p - rank_up - rank_down


def bareiss_det(mat):
    """Determinant of a square integer matrix, fraction-free."""
    n = len(mat)
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_diagonal_by_minors(mat, rows, cols):
    """The Smith normal form's diagonal from determinantal divisors: with
    d_k the gcd of all k x k minors (d_0 = 1), entry k is d_k / d_{k-1}
    while d_k is nonzero, and 0 from the rank on.  Exponential in the
    size; for matrices up to about 7 x 7."""
    diag, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                d = gcd(d, bareiss_det([[mat[i][j] for j in cs] for i in rs]))
        if d == 0:
            break
        diag.append(d // prev)
        prev = d
    return diag + [0] * (min(rows, cols) - len(diag))


def int_matmul(a, b):
    """Exact integer matrix product as nested lists."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def exhaustive_solvable_mod(a_rows, b, m):
    """Whether a x = b (mod m) has a solution, by trying every x."""
    n = len(a_rows[0]) if a_rows else 0
    for x in product(range(m), repeat=n):
        if all(
            sum(c * xi for c, xi in zip(row, x)) % m == bb % m
            for row, bb in zip(a_rows, b)
        ):
            return True
    return False


def all_lifts(s, ext):
    """Every edge assignment in the total group that projects onto the
    cocycle and satisfies the lifted triangle condition.

    Enumerates the full product of fibers and filters, so it is only usable
    when kernel_order ** edge_count is small.  Edges and triangles come out
    of the complex in ascending vertex order, so no inverses are needed.
    """
    total = ext.total
    edges = s.base.edges()
    eidx = {e: i for i, e in enumerate(edges)}
    fibers = [
        [v for v in total.elements() if ext.projection(v) == s.value(a, b)]
        for a, b in edges
    ]
    tris = s.base.triangles()
    found = []
    for combo in product(*fibers):
        if all(
            total.mul(combo[eidx[(a, b)]], combo[eidx[(b, l)]]) == combo[eidx[(a, l)]]
            for a, b, l in tris
        ):
            found.append(tuple(combo))
    return found


def lift_class_count(s, ext):
    """Number of equivalence classes of lifts, where two lifts are
    equivalent when their kernel-valued difference cochain is the
    coboundary of some vertex assignment.  Fully exhaustive."""
    lifts = all_lifts(s, ext)
    if not lifts:
        return 0
    total = ext.total
    kernel = ext.kernel
    edges = s.base.edges()
    cobs = set()
    for assign in product(list(kernel.elements()), repeat=s.base.vertex_count):
        cobs.add(tuple(kernel.sub(assign[a], assign[b]) for a, b in edges))
    reps = []
    for g in lifts:
        in_old_class = False
        for r in reps:
            t = tuple(
                ext.kernel_element_of(total.mul(total.inv(rv), gv))
                for rv, gv in zip(r, g)
            )
            if t in cobs:
                in_old_class = True
                break
        if not in_old_class:
            reps.append(g)
    return len(reps)
