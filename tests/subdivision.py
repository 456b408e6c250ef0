"""Barycentric subdivision, for tests that need bigger nerves of known type.

A vertex of sd(X) is a simplex of X and a facet of sd(X) is a full flag
v0 < {v0, v1} < ... < F of a facet F of X, so sd(X) is homeomorphic to X
and has the same cohomology.
"""

from itertools import combinations, permutations

from cechlift.nerve import BUILTIN_COMPLEXES, SimplicialComplex, build_complex, builtin_complex


def barycentric_subdivision(x: SimplicialComplex) -> SimplicialComplex:
    faces = sorted(
        {face for f in x.facets for k in range(1, len(f) + 1) for face in combinations(f, k)},
        key=lambda s: (len(s), s),
    )
    index = {s: i for i, s in enumerate(faces)}
    flags = [
        [index[tuple(sorted(order[:k]))] for k in range(1, len(order) + 1)]
        for f in x.facets
        for order in permutations(f)
    ]
    return build_complex(flags)


# Builtins plus two first subdivisions, the largest nerves that exhaustive
# oracles in the tests still handle quickly.
LABELS = (*BUILTIN_COMPLEXES, "sd1(rp2_6)", "sd1(torus7)")


def complex_by_label(label: str) -> SimplicialComplex:
    """The builtin complex `name`, or its k-th barycentric subdivision for `sdk(name)`."""
    if label.startswith("sd") and label.endswith(")"):
        k, name = label[2:-1].split("(")
        x = builtin_complex(name)
        for _ in range(int(k)):
            x = barycentric_subdivision(x)
        return x
    return builtin_complex(label)
