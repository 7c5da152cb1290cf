"""Freely reduced words over a finite symmetrized alphabet.

A word is a sequence of letters, each a generator ``g`` together with a
sign ``s``; the letter's code is ``2g + (s < 0)`` (:func:`letter_codes`), so
``k ^ 1`` is the code of its inverse, and lists of columns are indexed by it.
Every :class:`FreeWord` is stored fully reduced: no letter is adjacent to
its own inverse.  The constructor checks the letters against the alphabet
and rejects an unreduced sequence; :func:`free_reduce` cancels first.  Only
:func:`parse_word` skips the check: its letters are the alphabet's own, and
it cancels a text only when it holds an inverse pair such as ``aA``.

Text syntax: a generator prints as its lowercase name, its inverse as the
same ASCII letter uppercased, juxtaposition is concatenation, and ``"1"``
is the empty word.  There is no whitespace or exponent syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import InvalidAlphabet, InvalidLetter, ParseError, UnreducedWord

_LOWERCASE = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Alphabet:
    """Ordered, pairwise distinct single-character lowercase generator names,
    with tables that equality, hashing and repr ignore: character to letter,
    letter to inverse, letter to character, and the inverse pairs (``aA``)."""

    names: tuple[str, ...]
    letter_of: dict[str, Letter] = field(init=False, repr=False, compare=False)
    inverse_of: dict[Letter, Letter] = field(init=False, repr=False, compare=False)
    char_of: dict[Letter, str] = field(init=False, repr=False, compare=False)
    inverse_pairs: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.names:
            raise InvalidAlphabet("alphabet needs at least one generator")
        if len(set(self.names)) != len(self.names):
            raise InvalidAlphabet(f"duplicate generator names: {self.names!r}")
        for name in self.names:
            if len(name) != 1 or name not in _LOWERCASE:
                raise InvalidAlphabet(
                    f"generator name must be a single lowercase ASCII letter: {name!r}"
                )
        letter_of = {}
        for g, name in enumerate(self.names):
            letter_of[name], letter_of[name.upper()] = Letter(g, 1), Letter(g, -1)
        inverse_of = {y: letter_of[ch.swapcase()] for ch, y in letter_of.items()}
        object.__setattr__(self, "letter_of", letter_of)
        object.__setattr__(self, "inverse_of", inverse_of)
        object.__setattr__(self, "char_of", {y: ch for ch, y in letter_of.items()})
        object.__setattr__(self, "inverse_pairs", tuple(ch + ch.swapcase() for ch in letter_of))

    def __eq__(self, other: object) -> bool:
        # the dataclass comparison, after the identity test that settles
        # the common case of one shared alphabet
        if self is other:
            return True
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.names == other.names

    @classmethod
    def of(cls, names: str) -> "Alphabet":
        """Alphabet from a string of generator names, e.g. ``Alphabet.of("ab")``."""
        return cls(tuple(names))

    @classmethod
    def first(cls, size: int) -> "Alphabet":
        """Alphabet on the first ``size`` letters a, b, c, ..."""
        return cls(tuple(_LOWERCASE[:size]))

    @property
    def size(self) -> int:
        return len(self.names)


class Letter(NamedTuple):
    """One generator occurrence: generator index plus sign (+1 or -1)."""

    gen: int
    sign: int

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)


def _check_letters(alphabet: Alphabet, letters: Iterable[Letter]) -> None:
    size = alphabet.size
    for gen, sign in letters:
        if not 0 <= gen < size:
            raise InvalidLetter(f"generator index {gen} outside alphabet of size {size}")
        if sign not in (1, -1):
            raise InvalidLetter(f"letter sign must be +1 or -1, got {sign}")


def is_reduced(letters: Iterable[Letter]) -> bool:
    """True when no letter is immediately followed by its inverse."""
    prev_gen = prev_sign = None
    for gen, sign in letters:
        if gen == prev_gen and sign == -prev_sign:  # type: ignore[operator]
            return False
        prev_gen, prev_sign = gen, sign
    return True


@dataclass(frozen=True)
class FreeWord:
    """An immutable freely reduced word.  The constructor validates the
    letters and their reducedness, so a caller that concatenates parts it
    has argued cannot cancel (as the Schreier basis does) is still checked."""

    alphabet: Alphabet
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        _check_letters(self.alphabet, self.letters)
        if not is_reduced(self.letters):
            raise UnreducedWord(f"letters are not freely reduced: {self.letters!r}")

    @classmethod
    def _trusted(cls, alphabet: Alphabet, letters: tuple[Letter, ...]) -> FreeWord:
        """Build unchecked from the alphabet's own letters, proved reduced."""
        w = object.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "letters", letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return "".join(map(self.alphabet.char_of.__getitem__, self.letters))


def empty_word(alphabet: Alphabet) -> FreeWord:
    return FreeWord(alphabet, ())


def letter_codes(letters: Iterable[Letter]) -> tuple[int, ...]:
    """The code ``2g + (s < 0)`` of each letter ``(g, s)``, in order."""
    return tuple([2 * g + (s < 0) for g, s in letters])


def _cancel(inverse_of: dict[Letter, Letter], raw: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for ell in raw:
        if out and out[-1] == inverse_of[ell]:
            out.pop()
        else:
            out.append(ell)
    return tuple(out)


def free_reduce(alphabet: Alphabet, raw: Iterable[Letter]) -> FreeWord:
    """Reduce a raw letter sequence to the unique reduced word for the same
    group element.  Idempotent; a stack pass cancels all adjacent inverse
    pairs, including those exposed by earlier cancellations."""
    raw = tuple(raw)
    # a raw invalid pair that cancels must still raise
    _check_letters(alphabet, raw)
    return FreeWord(alphabet, _cancel(alphabet.inverse_of, raw))


def invert(w: FreeWord) -> FreeWord:
    """Reverse the word and flip every sign; the result is again reduced."""
    inverse_of = w.alphabet.inverse_of
    return FreeWord(w.alphabet, tuple(map(inverse_of.__getitem__, reversed(w.letters))))


def parse_word(text: str, alphabet: Alphabet) -> FreeWord:
    """Parse word syntax and freely reduce the result.

    ``"1"`` and the empty string parse to the empty word.  A non-``str``
    raises :class:`ParseError`, and so does a character other than a
    generator name or its ASCII uppercase, carrying the first one's position.
    """
    if not isinstance(text, str):
        raise ParseError(f"a word must be a string, got {type(text).__name__}")
    if text in ("", "1"):
        return empty_word(alphabet)
    letter_of = alphabet.letter_of
    try:
        raw = tuple(map(letter_of.__getitem__, text))
    except KeyError:
        pos = next(i for i, ch in enumerate(text) if ch not in letter_of)
        message = f"unknown character {text[pos]!r} at position {pos}"
        raise ParseError(message, position=pos) from None
    if any(map(text.__contains__, alphabet.inverse_pairs)):
        raw = _cancel(alphabet.inverse_of, raw)
    return FreeWord._trusted(alphabet, raw)
