"""Reference verdicts that never call cechlift.linalg.

- Lifting verdicts come from exhaustive search (brute_force_lift, pure
  total-group arithmetic) on the unsubdivided base; subdivision keeps the
  verdict, so it is pulled back to every rung.
- For Z2 kernels, a verdict also follows from the raw per-triangle defect
  and a GF(2) bitmask test of membership in the image of delta^1.
- Cohomology of a complex comes from a small integer diagonalization here
  and the universal-coefficient rules.
- Every returned lift is re-checked with raw Cayley-table lookups.
"""

from __future__ import annotations

from math import gcd

from cechlift import brute_force_lift

from inputs import closure

NO_CAP = 1 << 200


def tables(group):
    return group.table.tolist()


def lift_ok(edges, triangles, cocycle_values, ext, lift_values) -> bool:
    """Raw re-check of a lift: each edge value projects onto the cocycle and
    each sorted triangle (a, b, l) multiplies out exactly."""
    if lift_values is None or len(lift_values) != len(edges):
        return False
    proj = ext.projection.map
    if any(proj[v] != c for v, c in zip(lift_values, cocycle_values)):
        return False
    t = tables(ext.total)
    pos = {e: i for i, e in enumerate(edges)}
    for a, b, l in triangles:
        if t[lift_values[pos[(a, b)]]][lift_values[pos[(b, l)]]] != lift_values[pos[(a, l)]]:
            return False
    return True


def brute_verdict(s, ext) -> bool:
    """True when the cocycle lifts, by exhaustive search; a found lift is re-checked raw."""
    found = brute_force_lift(s, ext, cap=NO_CAP)
    if found is None:
        return False
    if not lift_ok(s.base.edges(), s.base.triangles(), s.values, ext, found.values):
        raise RuntimeError("brute-force reference returned a lift that fails the raw check")
    return True


class Gf2Image:
    """Image of delta^1 mod 2 on one complex, for Z2-kernel verdicts."""

    def __init__(self, edges, triangles):
        self.triangles = list(triangles)
        tri_pos = {t: i for i, t in enumerate(self.triangles)}
        cols: dict[tuple[int, int], int] = {e: 0 for e in edges}
        for t in self.triangles:
            a, b, c = t
            for e in ((a, b), (a, c), (b, c)):
                cols[e] |= 1 << tri_pos[t]
        self.pivots: dict[int, int] = {}
        for vec in cols.values():
            self._reduce(vec, insert=True)

    def _reduce(self, vec, insert=False) -> int:
        while vec:
            bit = vec.bit_length() - 1
            if bit not in self.pivots:
                if insert:
                    self.pivots[bit] = vec
                return vec
            vec ^= self.pivots[bit]
        return 0

    def contains(self, vec) -> bool:
        return self._reduce(vec) == 0


def z2_defect_bits(edges, triangles, values, ext) -> int:
    """Bitmask over triangles of the raw obstruction defect for a Z2 kernel,
    with the least-element section (any section gives the same class)."""
    if ext.kernel.factors != (2,):
        raise ValueError("z2_defect_bits needs a Z2 kernel")
    t = tables(ext.total)
    proj = ext.projection.map
    e_total = ext.total.identity
    sect = {}
    for x in range(ext.total.order):
        sect.setdefault(proj[x], x)
    sect[ext.base.identity] = e_total
    inv = [row.index(e_total) for row in t]
    zero, one = ext.embed
    pos = {e: i for i, e in enumerate(edges)}
    bits = 0
    for i, (a, b, l) in enumerate(triangles):
        ab, bl, al = (sect[values[pos[e]]] for e in ((a, b), (b, l), (a, l)))
        x = t[t[bl][inv[al]]][ab]
        if x == one:
            bits |= 1 << i
        elif x != zero:
            raise RuntimeError(f"defect over {(a, b, l)} is outside the kernel")
    return bits


def z2_verdict(image: Gf2Image, edges, values, ext) -> bool:
    return image.contains(z2_defect_bits(edges, image.triangles, values, ext))


# ----------------------------------------------------------- cohomology ----


def _diagonal(rows: list[list[int]]) -> list[int]:
    """Nonzero entries of a diagonal form of an integer matrix under
    unimodular row and column operations.  No divisibility order is
    needed: only the cokernel's isomorphism type is used."""
    m = [row[:] for row in rows]
    diag = []
    while True:
        m = [row for row in m if any(row)]
        if not m:
            return diag
        _, pi, pj = min((abs(x), i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x)
        p = m[pi][pj]
        for i, row in enumerate(m):
            q = row[pj] // p
            if i != pi and q:
                m[i] = [x - q * y for x, y in zip(row, m[pi])]
        for j, x in enumerate(m[pi]):
            q = x // p
            if j != pj and q:
                for row in m:
                    row[j] -= q * row[pj]
        if any(row[pj] for i, row in enumerate(m) if i != pi) or any(
            x for j, x in enumerate(m[pi]) if j != pj
        ):
            continue
        diag.append(abs(p))
        del m[pi]
        for row in m:
            del row[pj]


def _coboundary_rows(simplices_by_dim, p) -> list[list[int]]:
    lower = simplices_by_dim.get(p, [])
    upper = simplices_by_dim.get(p + 1, [])
    idx = {s: i for i, s in enumerate(lower)}
    rows = []
    for s in upper:
        row = [0] * len(lower)
        for j in range(len(s)):
            row[idx[s[:j] + s[j + 1:]]] = (-1) ** j
        rows.append(row)
    return rows


def _prime_powers(n: int) -> dict[int, int]:
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders) -> list[int]:
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        for p, e in _prime_powers(n).items():
            by_prime.setdefault(p, []).append(e)
    width = max((len(v) for v in by_prime.values()), default=0)
    out = []
    for k in range(width):
        f = 1
        for p, es in by_prime.items():
            es = sorted(es, reverse=True)
            if k < len(es):
                f *= p ** es[k]
        out.append(f)
    return sorted(f for f in out if f > 1)


def cohomology_factors(facets, p: int, m: int) -> list[int]:
    """Invariant factors of H^p(X; Z_m): Hom(H_p, Z_m) + Ext(H_{p-1}, Z_m)."""
    by_dim: dict[int, list] = {}
    for s in closure(facets):
        by_dim.setdefault(len(s) - 1, []).append(s)
    here = _diagonal(_coboundary_rows(by_dim, p))
    below = _diagonal(_coboundary_rows(by_dim, p - 1)) if p >= 1 else []
    betti = len(by_dim.get(p, [])) - len(here) - len(below)
    orders = [m] * betti
    orders += [gcd(d, m) for d in here + below if d > 1]
    return invariant_factors(o for o in orders if o > 1)


def euler_characteristic(facets) -> int:
    return sum((-1) ** (len(s) - 1) for s in closure(facets))
