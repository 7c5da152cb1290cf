"""Finite permutations and homomorphisms from a free group into a symmetric
group.

A permutation of ``[0, n)`` is its image tuple ``p``: ``i`` goes to
``p[i]``.  Permutations act on the right: ``compose(p, q)`` sends ``i`` to
``q[p[i]]``, i.e. applies ``p`` first.  This matches the coset-table
convention (coset times generator) used throughout the package.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

from .errors import AlphabetMismatch, ImageTooLarge, InvalidHom, InvalidPermutation
from .words import Alphabet, FreeWord, letter_codes

DEFAULT_IMAGE_CEILING = 10000


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The product ``p`` then ``q``: ``i`` goes to ``q[p[i]]``."""
    # a list comprehension builds the tuple faster than a generator
    return tuple([q[i] for i in p])


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation sending ``p[i]`` back to ``i``."""
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


@dataclass(frozen=True)
class FiniteQuotientHom:
    """A homomorphism from the free group on ``alphabet`` into S_degree,
    given by one image tuple per generator.  ``inverse_images`` holds the
    inverse columns, computed on construction and read-only like the rest;
    equality and hashing ignore it, since ``gen_images`` determines it.
    Columns given as other sequences are stored as tuples, so equal
    homomorphisms compare equal and hash alike.  A column that is not a
    bijection raises :class:`InvalidPermutation`; count and degree errors
    raise :attr:`invalid`."""

    alphabet: Alphabet
    gen_images: tuple[tuple[int, ...], ...]
    inverse_images: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    invalid: ClassVar[type[Exception]] = InvalidHom

    def __post_init__(self) -> None:
        # tuple() returns a tuple argument itself, so tuple input costs nothing
        object.__setattr__(self, "gen_images", tuple(map(tuple, self.gen_images)))
        for p in self.gen_images:
            if sorted(p) != list(range(len(p))):
                raise InvalidPermutation(f"not a bijection on [0, {len(p)}): {p!r}")
        if len(self.gen_images) != self.alphabet.size:
            raise self.invalid(
                f"{self.alphabet.size} generators but {len(self.gen_images)} images"
            )
        degrees = {len(p) for p in self.gen_images}
        if len(degrees) != 1:
            raise self.invalid(f"generator images have mixed degrees: {sorted(degrees)}")
        object.__setattr__(self, "inverse_images", tuple(map(inverse, self.gen_images)))

    @property
    def degree(self) -> int:
        return len(self.gen_images[0])

    def step(self, point: int, gen: int, sign: int) -> int:
        """Image of ``point`` under one signed generator."""
        perm = self.gen_images[gen] if sign > 0 else self.inverse_images[gen]
        return perm[point]


def kills(codes: Sequence[int], columns: Sequence) -> bool:
    """True iff the word with letter codes ``codes`` maps to the identity,
    where ``columns[k]`` is the column of code ``k`` (see
    :mod:`~schreierkit.words`).  Point 0 is traced first, before the path is
    built: a word that does not die usually moves it already."""
    y = 0
    for k in codes:
        y = columns[k][y]
    if y:
        return False
    path = [columns[k] for k in codes]
    for x in range(1, len(columns[0])):
        y = x
        for column in path:
            y = column[y]
        if y != x:
            return False
    return True


def kills_relators(h: FiniteQuotientHom, relators: Sequence[FreeWord]) -> bool:
    """True iff every relator maps to the identity permutation, so that the
    homomorphism factors through the presented group.  Raises
    :class:`AlphabetMismatch` at the first relator reached over another
    alphabet."""
    columns = [c for pair in zip(h.gen_images, h.inverse_images) for c in pair]
    for rel in relators:
        if rel.alphabet != h.alphabet:
            raise AlphabetMismatch("word and homomorphism use different alphabets")
        if not kills(letter_codes(rel.letters), columns):
            return False
    return True


def image_closure(h: FiniteQuotientHom) -> list[tuple[int, ...]]:
    """All elements of the image group in deterministic BFS order.

    The first element is the identity; discovery multiplies each known
    element on the right by the generator images in alphabet order, then by
    their inverses in alphabet order.  This order is part of the contract:
    certificates index cosets by it.  Raises :class:`ImageTooLarge` when
    the group has more than :data:`DEFAULT_IMAGE_CEILING` elements.
    """
    steps = h.gen_images + h.inverse_images
    identity = tuple(range(h.degree))
    seen: dict[tuple[int, ...], None] = {identity: None}
    queue: deque[tuple[int, ...]] = deque([identity])
    while queue:
        current = queue.popleft()
        for step in steps:
            nxt = compose(current, step)
            if nxt not in seen:
                if len(seen) >= DEFAULT_IMAGE_CEILING:
                    raise ImageTooLarge(DEFAULT_IMAGE_CEILING)
                seen[nxt] = None
                queue.append(nxt)
    return list(seen)
