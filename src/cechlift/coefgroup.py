"""Finite abelian coefficient groups, written additively.

A group is a tuple of cyclic factor orders and an element is a tuple of
residues, one per factor.  The trivial group is the empty product: no
factors, single element ().  Homomorphisms are stored by their images on
the standard generators (1 in one slot, 0 elsewhere) and are checked for
well-definedness when built.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "AbelianGroup",
    "AbelianHom",
    "direct_sum",
    "fusion_hom_mod2",
    "identity_hom",
    "parse_group",
    "Z2",
    "MAX_CYCLIC_ORDER",
]

Element = tuple[int, ...]

_LITERAL = re.compile(r"^Z(\d+)$")

# Largest cyclic factor accepted.  Below 2^31 the int64 products in GF(p)
# elimination cannot overflow, and trial division of an order takes at most
# about 46k steps.
MAX_CYCLIC_ORDER = 2**31 - 1


@dataclass(frozen=True)
class AbelianGroup:
    """Direct sum of cyclic groups Z_{n1} + ... + Z_{nk}, elements are residue tuples."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if any(n < 2 for n in self.factors):
            raise ValueError(f"cyclic factors must be at least 2, got {self.factors}")
        if any(n > MAX_CYCLIC_ORDER for n in self.factors):
            raise ValueError(
                f"cyclic factors must be at most 2^31 - 1 = {MAX_CYCLIC_ORDER}, got {self.factors}"
            )

    @property
    def order(self) -> int:
        n = 1
        for f in self.factors:
            n *= f
        return n

    @property
    def rank(self) -> int:
        return len(self.factors)

    def check(self, a: Sequence[int]) -> Element:
        try:
            a = tuple(int(x) for x in a)
        except TypeError:
            raise ValueError(f"element {a!r} is not a residue tuple for factors {self.factors}") from None
        if len(a) != len(self.factors):
            raise ValueError(f"element {a} has wrong length for factors {self.factors}")
        if any(not 0 <= x < n for x, n in zip(a, self.factors)):
            raise ValueError(f"element {a} out of range for factors {self.factors}")
        return a

    def zero(self) -> Element:
        return (0,) * len(self.factors)

    def add(self, a: Sequence[int], b: Sequence[int]) -> Element:
        a, b = self.check(a), self.check(b)
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def neg(self, a: Sequence[int]) -> Element:
        a = self.check(a)
        return tuple((-x) % n for x, n in zip(a, self.factors))

    def sub(self, a: Sequence[int], b: Sequence[int]) -> Element:
        return self.add(a, self.neg(b))

    def scale(self, k: int, a: Sequence[int]) -> Element:
        a = self.check(a)
        return tuple((k * x) % n for x, n in zip(a, self.factors))

    def elements(self) -> Iterator[Element]:
        """All elements in lexicographic order; this is the canonical enumeration."""
        return itertools.product(*(range(n) for n in self.factors))

    def element_index(self, a: Sequence[int]) -> int:
        """Position of `a` in the canonical enumeration (mixed-radix value)."""
        a = self.check(a)
        idx = 0
        for x, n in zip(a, self.factors):
            idx = idx * n + x
        return idx

    def format(self) -> str:
        if not self.factors:
            return "Z1"
        return "x".join(f"Z{n}" for n in self.factors)


Z2 = AbelianGroup((2,))


def parse_group(text: str) -> AbelianGroup:
    """Parse a literal like Z2, Z4 or Z2xZ4 into an AbelianGroup.  A bad
    literal raises ValueError naming it once and saying why."""
    parts = text.strip().split("x")
    factors = []
    for part in parts:
        m = _LITERAL.match(part.strip())
        if not m:
            raise ValueError(f"bad group literal {text!r}: each factor must read Z<n>, got {part.strip()!r}")
        n = int(m.group(1))
        if n < 1:
            raise ValueError(
                f"bad group literal {text!r}: a cyclic factor must be at least 1, got {part.strip()!r}"
            )
        if n > 1:
            factors.append(n)
    return AbelianGroup(tuple(factors))


@dataclass(frozen=True)
class AbelianHom:
    """Homomorphism fixed by generator images; well-definedness checked on build."""

    domain: AbelianGroup
    codomain: AbelianGroup
    images: tuple[Element, ...]

    def __post_init__(self):
        if len(self.images) != self.domain.rank:
            raise ValueError("need one image per domain generator")
        for n, img in zip(self.domain.factors, self.images):
            self.codomain.check(img)
            if any(x != 0 for x in self.codomain.scale(n, img)):
                raise ValueError(
                    f"image {img} of an order-{n} generator does not have order dividing {n}"
                )

    def __call__(self, a: Sequence[int]) -> Element:
        a = self.domain.check(a)
        out = self.codomain.zero()
        for x, img in zip(a, self.images):
            out = self.codomain.add(out, self.codomain.scale(x, img))
        return out

    def compose(self, inner: "AbelianHom") -> "AbelianHom":
        """Returns self after inner."""
        if inner.codomain != self.domain:
            raise ValueError("composition domain mismatch")
        return AbelianHom(inner.domain, self.codomain, tuple(self(img) for img in inner.images))

    def is_surjective(self) -> bool:
        return len({self(a) for a in self.domain.elements()}) == self.codomain.order

    def kernel_elements(self) -> list[Element]:
        zero = self.codomain.zero()
        return [a for a in self.domain.elements() if self(a) == zero]


def identity_hom(g: AbelianGroup) -> AbelianHom:
    images = []
    for i in range(g.rank):
        images.append(tuple(int(i == j) for j in range(g.rank)))
    return AbelianHom(g, g, tuple(images))


def direct_sum(groups: Sequence[AbelianGroup]) -> tuple[AbelianGroup, list[AbelianHom], list[AbelianHom]]:
    """Concatenated direct sum, with the injections and projections for each summand."""
    factors = tuple(f for g in groups for f in g.factors)
    total = AbelianGroup(factors)
    injections = []
    projections = []
    offset = 0
    for g in groups:
        k = g.rank
        inj_images = []
        for i in range(k):
            img = [0] * total.rank
            img[offset + i] = 1
            inj_images.append(tuple(img))
        injections.append(AbelianHom(g, total, tuple(inj_images)))
        proj_images = []
        for i in range(total.rank):
            img = [0] * k
            if offset <= i < offset + k:
                img[i - offset] = 1
            proj_images.append(tuple(img))
        projections.append(AbelianHom(total, g, tuple(proj_images)))
        offset += k
    return total, injections, projections


def fusion_hom_mod2(n: int) -> AbelianHom:
    """The mod-2 sum (x1, ..., xn) -> x1 + ... + xn from a sum of n copies of Z2 to Z2."""
    if n < 1:
        raise ValueError("need at least one summand")
    domain = AbelianGroup((2,) * n)
    return AbelianHom(domain, Z2, ((1,),) * n)
