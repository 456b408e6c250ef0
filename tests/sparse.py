"""Draws and sweeps for the Smith-form property tests.

`systems` draws small integer matrices with right-hand sides.  The
obstructions a verdict solves for are sparse: a defect has a handful of
nonzero triangles out of hundreds.  The sparse draws and the fixed sweep
exercise solves where they read the fewest columns and log entries.
"""

import numpy as np
from hypothesis import strategies as st

MODULI = (4, 6, 8, 9, 12)


@st.composite
def systems(draw):
    """A matrix up to 5 x 5 with entries in [-6, 6], a vector x0 per
    modulus for a consistent b, a random b per modulus and a draw seed."""
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    entries = draw(st.lists(st.integers(-6, 6), min_size=rows * cols, max_size=rows * cols))
    vectors = st.lists(st.integers(0, 35), min_size=cols, max_size=cols)
    x0s = draw(st.lists(vectors, min_size=len(MODULI), max_size=len(MODULI)))
    rhs = st.lists(st.integers(-40, 40), min_size=rows, max_size=rows)
    bs = draw(st.lists(rhs, min_size=len(MODULI), max_size=len(MODULI)))
    return np.array(entries, dtype=np.int64).reshape(rows, cols), x0s, bs, draw(st.integers(0, 2**30))


@st.composite
def sparse_rhs(draw, rows, values):
    """b of length `rows`: zero, one-hot, or at most three entries drawn
    from `values` (any sign) at any rows."""
    b = np.zeros(rows, dtype=np.int64)
    kind = draw(st.sampled_from(("zero", "one-hot", "few")))
    if rows and kind == "one-hot":
        b[draw(st.integers(0, rows - 1))] = 1
    elif rows and kind == "few":
        for i in draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=3)):
            b[i] = draw(values)
    return b


# delta^1 of the nerves the benchmark's warm verdicts run on, or like them.
SWEEP_LABELS = ("sd1(rp2_6)", "sd1(klein)", "sd2(torus7)")


def sparse_sweep(a, scale=1):
    """Fixed sparse right-hand sides for A: zero; one-hots at the first,
    middle and last rows; A's first, middle and last columns and the
    difference of two, which are consistent; and three nonzeros of mixed
    sign.  Every entry is multiplied by `scale`."""
    rows, cols = a.shape
    yield np.zeros(rows, dtype=np.int64)
    for i in (0, rows // 2, rows - 1):
        b = np.zeros(rows, dtype=np.int64)
        b[i] = scale
        yield b
    for j in (0, cols // 2, cols - 1):
        yield scale * a[:, j]
    yield scale * (a[:, 1] - a[:, cols - 2])
    b = np.zeros(rows, dtype=np.int64)
    b[[1, rows // 3, rows - 2]] = (-scale, 3 * scale, -5 * scale)
    yield b
