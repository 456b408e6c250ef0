"""Reference integer Smith normal form: the dense elimination, kept frozen.

This is the straightforward dense version of the algorithm that
cechlift.linalg.smith_normal_form carries out on sparse storage.  The
library promises the same S, U and V as this routine on every matrix, and
the tests hold it to that.  It returns a plain dict of the Snf fields and
does not import cechlift.
"""

import numpy as np


def smith_normal_form_reference(a) -> dict:
    m = np.asarray(a, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    rows, cols = m.shape
    s = [[int(x) for x in row] for row in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row_dst += k * row_src
        s[dst] = [x + k * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, k):
        for row in s:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def pivot_at(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(s[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        return best

    t = 0
    while True:
        best = pivot_at(t)
        if best is None:
            break
        _, pi, pj = best
        swap_rows(t, pi)
        swap_cols(t, pj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    add_row(t, i, -q)
                    if s[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    add_col(t, j, -q)
                    if s[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # pivot must divide every remaining entry; fold a bad row in and retry
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if s[i][j] % s[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
        if t == min(rows, cols):
            break

    freeze = lambda mat: tuple(tuple(row) for row in mat)
    return {"s": freeze(s), "u": freeze(u), "v": freeze(v), "rows": rows, "cols": cols}
