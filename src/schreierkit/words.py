"""Freely reduced words over a finite symmetrized alphabet.

A word is a sequence of letters, each a generator together with a sign.
Every :class:`FreeWord` is stored fully reduced: no letter is adjacent to
its own inverse.  Every word is built by the one validating constructor,
which checks the letters against the alphabet and raises
:class:`UnreducedWord` on an unreduced sequence; :func:`free_reduce` and
:func:`parse_word` cancel first.

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
    with the ``2m`` letters interned in tables that equality, hashing and
    repr ignore: character to letter, letter to inverse, letter to character."""

    names: tuple[str, ...]
    letter_of: dict[str, Letter] = field(init=False, repr=False, compare=False)
    inverse_of: dict[Letter, Letter] = field(init=False, repr=False, compare=False)
    char_of: dict[Letter, str] = field(init=False, repr=False, compare=False)

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

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return "".join(map(self.alphabet.char_of.__getitem__, self.letters))


def empty_word(alphabet: Alphabet) -> FreeWord:
    return FreeWord(alphabet, ())


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

    ``"1"`` and the empty string parse to the empty word.  A character
    other than a generator name or its ASCII uppercase raises
    :class:`ParseError` carrying the position of the first such character.
    """
    if text in ("", "1"):
        return empty_word(alphabet)
    letter_of = alphabet.letter_of
    try:
        raw = tuple(map(letter_of.__getitem__, text))
    except KeyError:
        pos = next(i for i, ch in enumerate(text) if ch not in letter_of)
        message = f"unknown character {text[pos]!r} at position {pos}"
        raise ParseError(message, position=pos) from None
    return FreeWord(alphabet, _cancel(alphabet.inverse_of, raw))
