"""Dense views of a GF(p) factor's T and of a Smith form's S, U and V.

The library keeps T by columns over GF(2), and U and V only as logs of the
elimination's operations; verdicts read no more than that.  Tests compare
the dense matrices with the frozen references, and build them here.
`dense_snf` replays each log in full onto the identity, every operation in
order, with no skipping, so it checks the library's selective replay
(`check_selective_replay`) rather than sharing it.
"""

from types import SimpleNamespace

import numpy as np

from cechlift import linalg


def _replay_all(log, size: int) -> list[list[int]]:
    """The lines of the size x size identity after every logged operation,
    listed in the log's final order: rows of U, or columns of V.  (dst, src,
    k) adds k times line src to line dst."""
    ops, order = log
    lines = [[int(i == j) for j in range(size)] for i in range(size)]
    for at in range(0, len(ops), 3):
        dst, src, k = ops[at : at + 3]
        lines[dst] = [x + k * y for x, y in zip(lines[dst], lines[src])]
    return [lines[i] for i in order]


def dense_snf(snf) -> SimpleNamespace:
    """rows, cols and S, U, V as tuples of rows, the fields the frozen
    references read."""
    s = tuple(tuple(snf.diag[i] if i == j else 0 for j in range(snf.cols)) for i in range(snf.rows))
    u = tuple(map(tuple, _replay_all(snf.row_log, snf.rows)))
    v = tuple(zip(*_replay_all(snf.col_log, snf.cols)))
    return SimpleNamespace(rows=snf.rows, cols=snf.cols, s=s, u=u, v=v)


def check_selective_replay(snf) -> None:
    """linalg._replay marks only the column operations that V's first
    `count` columns need; for every count those columns must equal the
    full replay's, entry for entry."""
    want = [{i: x for i, x in enumerate(col) if x} for col in zip(*dense_snf(snf).v)]
    assert linalg._replay(*snf.col_log) == want
    for count in range(snf.cols + 1):
        assert linalg._replay(*snf.col_log, count) == want[:count]


def dense_t(factor) -> np.ndarray:
    """T as a rows x rows int64 array: `t_dense` itself for odd primes,
    unpacked from `t_cols` (bit i of column j is T[i, j]) over GF(2)."""
    if factor.t_dense is not None:
        return factor.t_dense
    width = (factor.rows + 7) // 8
    buf = b"".join(c.to_bytes(width, "little") for c in factor.t_cols)
    cols = np.frombuffer(buf, dtype=np.uint8).reshape(len(factor.t_cols), width)
    return np.unpackbits(cols, axis=1, count=factor.rows, bitorder="little").T.astype(np.int64)
