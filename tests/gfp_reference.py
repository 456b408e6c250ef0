"""Reference solvers: the dense GF(p) elimination and Smith-form solve, kept frozen.

`solve_mod_p_reference` row-reduces the augmented matrix [A | b] from
scratch on every call; `solve_mod_m_reference` and
`sample_kernel_mod_m_reference` multiply through the dense U and V of a
Smith normal form.  cechlift.linalg solves against a cached factorization
and sparse views of U and V instead, and promises the same answers as
these routines, None included.  This module does not import cechlift; the
Smith form is read through its fields s, u, v, rows, cols.
"""

from math import gcd

import numpy as np


def rref_mod_p_reference(a, p):
    m = np.asarray(a, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
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
        for j in range(rows):
            if j != r and m[j, c]:
                m[j] = (m[j] - m[j, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def solve_mod_p_reference(a, b, p):
    """First solution of a x = b mod prime p (free variables 0), or None."""
    m = np.asarray(a, dtype=np.int64)
    rhs = np.asarray(b, dtype=np.int64).reshape(-1, 1)
    aug, pivots = rref_mod_p_reference(np.hstack([m, rhs]), p)
    if m.shape[1] in pivots:
        return None
    x = np.zeros(m.shape[1], dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = aug[r, m.shape[1]]
    return x


def solve_mod_m_reference(snf, b, m):
    """Least solution of A x = b (mod m) through the dense U and V of A's Smith form."""
    b = [int(x) for x in b]
    ub = [sum(snf.u[i][k] * b[k] for k in range(snf.rows)) % m for i in range(snf.rows)]
    z = [0] * snf.cols
    diag = [snf.s[i][i] for i in range(min(snf.rows, snf.cols))]
    for i in range(snf.rows):
        d = diag[i] % m if i < len(diag) else 0
        rhs = ub[i]
        if d == 0:
            if rhs % m:
                return None
            continue
        g = gcd(d, m)
        if rhs % g:
            return None
        mm = m // g
        z[i] = (rhs // g) * pow(d // g, -1, mm) % mm
    return [sum(snf.v[i][k] * z[k] for k in range(snf.cols)) % m for i in range(snf.cols)]


def sample_kernel_mod_m_reference(snf, m, rng):
    """Random solution of A x = 0 (mod m) through the dense V of A's Smith form."""
    z = [0] * snf.cols
    diag = [snf.s[i][i] for i in range(min(snf.rows, snf.cols))]
    for i in range(snf.cols):
        d = diag[i] % m if i < len(diag) else 0
        g = gcd(d, m) if d else m
        z[i] = rng.randrange(g) * (m // g)
    return [sum(snf.v[i][k] * z[k] for k in range(snf.cols)) % m for i in range(snf.cols)]
