"""The set-based face closure that `cechlift.nerve.build_complex` once ran,
kept as the reference the array build is held to.  It imports nothing from
cechlift.

`closure(maximal, cap)` validates the facets, closes them under faces with
a set of tuples, sorts each dimension, and takes the facets as the
simplices that are no codimension-1 face.  It returns the vertex count, the
per-dimension simplex tuples, the facets and the simplex -> index dict.
"""

from itertools import combinations

MAX_SIMPLICES = 2**22


class CapExceeded(RuntimeError):
    pass


def closure(maximal, cap=MAX_SIMPLICES):
    facets_in = []
    for raw in maximal:
        verts = [int(v) for v in raw]
        if not verts:
            raise ValueError("empty simplex")
        if any(v < 0 for v in verts):
            raise ValueError(f"negative vertex in {raw}")
        s = tuple(sorted(verts))
        if len(set(s)) != len(s):
            raise ValueError(f"repeated vertex in simplex {raw}")
        facets_in.append(s)
    if not facets_in:
        raise ValueError("a complex needs at least one simplex")

    vertices = set().union(*facets_in)
    vertex_count = max(vertices) + 1
    if len(vertices) != vertex_count:
        # The smallest index not used lies in 0..len(vertices).
        first = next(v for v in range(len(vertices) + 1) if v not in vertices)
        raise ValueError(
            f"vertex indices must be contiguous from 0; {vertex_count - len(vertices)} "
            f"of 0..{vertex_count - 1} missing, the first {first}"
        )

    widest = max(map(len, facets_in))
    if 2**widest - 1 > cap:
        raise CapExceeded(2**widest - 1)
    faces = set()
    for s in facets_in:
        for k in range(1, len(s) + 1):
            faces.update(combinations(s, k))
        if len(faces) > cap:
            raise CapExceeded(len(faces))

    by_dim = {}
    for s in faces:
        by_dim.setdefault(len(s) - 1, []).append(s)
    simplices = {p: tuple(sorted(v)) for p, v in sorted(by_dim.items())}

    # The closure is face-closed, so a simplex lies in a bigger one exactly
    # when it is a codimension-1 face of some simplex of the closure.
    inner = {s[:j] + s[j + 1 :] for s in faces if len(s) > 1 for j in range(len(s))}
    facets = tuple(sorted(faces - inner, key=lambda s: (len(s), s)))
    index = {s: i for simps in simplices.values() for i, s in enumerate(simps)}
    return vertex_count, simplices, facets, index
