"""Reference cohomology basis: the GfpSpan construction, kept frozen.

`gfp_class_basis_reference(up, down, prime)` inserts every column of
delta^{p-1} into an incremental span tracker, then inserts the nullspace
vectors of delta^p in order and keeps each one the tracker finds
independent.  `nullspace_reference` is the per-entry loop the nullspace
used to be built with.  cechlift promises the same vectors, in the same
order, whether or not it has the GF(p) factor of delta^{p-1} at hand.
This module does not import cechlift.
"""

import numpy as np

from gfp_reference import rref_mod_p_reference


def nullspace_reference(a, p):
    """Basis of the right nullspace of `a` mod prime p, one vector per free column."""
    m = np.asarray(a, dtype=np.int64)
    rref, pivots = rref_mod_p_reference(m, p)
    cols = m.shape[1]
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-rref[r, f]) % p
        basis.append(v)
    return basis


class SpanReference:
    """Incremental span tracker over GF(p)."""

    def __init__(self, p):
        self.p = p
        self.rows = []
        self.leads = []

    def insert(self, vec):
        """Reduce `vec` against the span; add it and return True if independent."""
        v = np.asarray(vec, dtype=np.int64) % self.p
        for row, lead in zip(self.rows, self.leads):
            if v[lead]:
                v = (v - v[lead] * row) % self.p
        hits = np.nonzero(v)[0]
        if hits.size == 0:
            return False
        lead = int(hits[0])
        self.rows.append(v * pow(int(v[lead]), self.p - 2, self.p) % self.p)
        self.leads.append(lead)
        return True


def gfp_class_basis_reference(up, down, prime):
    """(vectors in C^p representing a basis of H^p over GF(prime), rank of
    delta^{p-1} mod prime), given delta^p (`up`) and delta^{p-1} (`down`)."""
    up = np.asarray(up, dtype=np.int64)
    down = np.asarray(down, dtype=np.int64)
    span = SpanReference(prime)
    for col in range(down.shape[1]):
        span.insert(down[:, col])
    image_rank = len(span.rows)
    reps = [vec % prime for vec in nullspace_reference(up, prime) if span.insert(vec)]
    return reps, image_rank
