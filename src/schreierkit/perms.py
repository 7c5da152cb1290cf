"""Finite permutations and homomorphisms from a free group into a symmetric
group.

Permutations act on the right: ``i`` under ``p * q`` is ``q[p[i]]``, i.e.
apply ``p`` first.  This matches the coset-table convention (coset times
generator) used throughout the package.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import ClassVar, Sequence

from .errors import AlphabetMismatch, ImageTooLarge, InvalidHom, InvalidPermutation
from .words import Alphabet, FreeWord

DEFAULT_IMAGE_CEILING = 10000


@dataclass(frozen=True)
class Perm:
    """A permutation of ``[0, n)`` stored as its image list."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise InvalidPermutation(
                f"not a bijection on [0, {len(self.images)}): {self.images!r}"
            )

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __getitem__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        # apply self first, then other
        return Perm(tuple(other.images[i] for i in self.images))

    def inverse(self) -> "Perm":
        out = [0] * len(self.images)
        for i, j in enumerate(self.images):
            out[j] = i
        return Perm(tuple(out))

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))


@dataclass(frozen=True)
class FiniteQuotientHom:
    """A homomorphism from the free group on ``alphabet`` into S_degree,
    given by one permutation per generator; the inverse columns are stored
    alongside.  Count and degree errors raise :attr:`invalid`."""

    alphabet: Alphabet
    gen_images: tuple[Perm, ...]

    invalid: ClassVar[type[Exception]] = InvalidHom

    def __post_init__(self) -> None:
        if len(self.gen_images) != self.alphabet.size:
            raise self.invalid(
                f"{self.alphabet.size} generators but {len(self.gen_images)} images"
            )
        degrees = {p.degree for p in self.gen_images}
        if len(degrees) != 1:
            raise self.invalid(f"generator images have mixed degrees: {sorted(degrees)}")
        object.__setattr__(
            self, "_inverses", tuple(p.inverse() for p in self.gen_images)
        )

    @property
    def degree(self) -> int:
        return self.gen_images[0].degree

    def image(self, gen: int, sign: int) -> Perm:
        return self.gen_images[gen] if sign > 0 else self._inverses[gen]

    def step(self, point: int, gen: int, sign: int) -> int:
        """Image of ``point`` under one signed generator."""
        perm = self.gen_images[gen] if sign > 0 else self._inverses[gen]
        return perm.images[point]


def eval_word(h: FiniteQuotientHom, w: FreeWord) -> Perm:
    """Image of a word: the right-action product of its letters' images."""
    if w.alphabet != h.alphabet:
        raise AlphabetMismatch("word and homomorphism use different alphabets")
    acc = list(range(h.degree))
    for gen, sign in w.letters:
        img = h.image(gen, sign).images
        acc = [img[i] for i in acc]
    return Perm(tuple(acc))


def kills_relators(h: FiniteQuotientHom, relators: Sequence[FreeWord]) -> bool:
    """True iff every relator maps to the identity permutation, so that the
    homomorphism factors through the presented group."""
    return all(eval_word(h, rel).is_identity for rel in relators)


def image_closure(
    h: FiniteQuotientHom, ceiling: int = DEFAULT_IMAGE_CEILING
) -> list[Perm]:
    """All elements of the image group in deterministic BFS order.

    The first element is the identity; discovery multiplies each known
    element on the right by the generator images in alphabet order, then by
    their inverses in alphabet order.  This order is part of the contract:
    certificates index cosets by it.  Raises :class:`ImageTooLarge` when
    the group has more than ``ceiling`` elements.
    """
    steps = [h.image(g, s).images for s in (1, -1) for g in range(h.alphabet.size)]
    identity = tuple(range(h.degree))
    seen: dict[tuple[int, ...], None] = {identity: None}
    queue: deque[tuple[int, ...]] = deque([identity])
    while queue:
        current = queue.popleft()
        for step in steps:
            nxt = tuple(step[i] for i in current)
            if nxt not in seen:
                if len(seen) >= ceiling:
                    raise ImageTooLarge(ceiling)
                seen[nxt] = None
                queue.append(nxt)
    return [Perm(t) for t in seen]
