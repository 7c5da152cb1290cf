"""Freely reduced words over a finite symmetrized alphabet.

A word is a sequence of letter codes: generator ``g`` with sign ``s`` has
the code ``2g + (s < 0)``, so ``k >> 1`` is the generator of code ``k``,
``k ^ 1`` is the code of its inverse, and lists of columns are indexed by
it.  Every :class:`FreeWord` is stored fully reduced: no code is followed
by its inverse's.  The constructor checks the codes against the alphabet
and rejects an unreduced sequence; :func:`free_reduce` cancels first.
Only :func:`parse_word` skips the check: its codes are the alphabet's own,
and it cancels a text only when it holds an inverse pair such as ``aA``.

Text syntax: a generator prints as its lowercase name, its inverse as the
same ASCII letter uppercased, juxtaposition is concatenation, and ``"1"``
is the empty word.  There is no whitespace or exponent syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import xor
from typing import Iterable

from .errors import InvalidAlphabet, InvalidLetter, ParseError, UnreducedWord

_LOWERCASE = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Alphabet:
    """Ordered, pairwise distinct single-character lowercase generator names,
    with the two tables that equality, hashing and repr ignore: ``code_of``,
    character to code, and ``chars``, whose ``k``-th character is that of
    code ``k``."""

    names: tuple[str, ...]
    code_of: dict[str, int] = field(init=False, repr=False, compare=False)
    chars: str = field(init=False, repr=False, compare=False)

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
        chars = "".join(name + name.upper() for name in self.names)
        object.__setattr__(self, "chars", chars)
        object.__setattr__(self, "code_of", {ch: k for k, ch in enumerate(chars)})

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


class Letter(int):
    """The code of a letter given by generator and sign, for callers that
    spell words that way: ``Letter(g, s) == 2*g + (s < 0)``.  The library
    itself reads plain codes."""

    def __new__(cls, gen: int, sign: int) -> Letter:
        if type(gen) is not int or gen < 0 or type(sign) is not int or sign not in (1, -1):
            raise InvalidLetter(
                f"a letter is a generator index >= 0 and a sign +1 or -1, got {gen!r}, {sign!r}"
            )
        return super().__new__(cls, 2 * gen + (sign < 0))

    def inverse(self) -> Letter:
        gen, sign = self.__getnewargs__()
        return Letter(gen, -sign)

    def __getnewargs__(self) -> tuple[int, int]:
        # the generator and sign, from which pickle and copy rebuild a letter
        return self >> 1, -1 if self & 1 else 1


def _is_code_type(kind: type) -> bool:
    # an int, or an int subclass such as Letter; bool is not a code
    return issubclass(kind, int) and kind is not bool


def _check_codes(alphabet: Alphabet, codes: tuple) -> None:
    width = 2 * alphabet.size
    # the types first, as min() and max() need them ordered
    if not all(map(_is_code_type, set(map(type, codes)))) or (
        codes and not (min(codes) >= 0 and max(codes) < width)
    ):
        bad = next(k for k in codes if not _is_code_type(type(k)) or not 0 <= k < width)
        raise InvalidLetter(f"letter code {bad!r} is not an integer in 0..{width - 1}")


def is_reduced(codes: Iterable[int]) -> bool:
    """True when no code is immediately followed by its inverse's."""
    codes = tuple(codes)
    return 1 not in map(xor, codes, codes[1:])


@dataclass(frozen=True)
class FreeWord:
    """An immutable freely reduced word, held as its letter codes.  The
    constructor validates the codes and their reducedness, so a caller that
    concatenates parts it has argued cannot cancel (as the Schreier basis
    does) is still checked."""

    alphabet: Alphabet
    codes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # tuple() returns a tuple argument itself, so tuple input costs nothing
        object.__setattr__(self, "codes", tuple(self.codes))
        _check_codes(self.alphabet, self.codes)
        if not is_reduced(self.codes):
            raise UnreducedWord(f"codes are not freely reduced: {self.codes!r}")

    @classmethod
    def _trusted(cls, alphabet: Alphabet, codes: tuple[int, ...]) -> FreeWord:
        """Build unchecked from the alphabet's own codes, proved reduced."""
        w = object.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "codes", codes)
        return w

    def __len__(self) -> int:
        return len(self.codes)

    def __str__(self) -> str:
        if not self.codes:
            return "1"
        return "".join(map(self.alphabet.chars.__getitem__, self.codes))


def empty_word(alphabet: Alphabet) -> FreeWord:
    return FreeWord(alphabet, ())


def _cancel(raw: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for k in raw:
        if out and out[-1] == k ^ 1:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def free_reduce(alphabet: Alphabet, raw: Iterable[int]) -> FreeWord:
    """Reduce a raw code sequence to the unique reduced word for the same
    group element.  Idempotent; a stack pass cancels all adjacent inverse
    pairs, including those exposed by earlier cancellations."""
    raw = tuple(raw)
    # a raw invalid pair that cancels must still raise
    _check_codes(alphabet, raw)
    return FreeWord(alphabet, _cancel(raw))


def invert(w: FreeWord) -> FreeWord:
    """Reverse the word and flip every sign; the result is again reduced."""
    return FreeWord(w.alphabet, tuple([k ^ 1 for k in reversed(w.codes)]))


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
    code_of = alphabet.code_of
    try:
        raw = tuple(map(code_of.__getitem__, text))
    except KeyError:
        pos = next(i for i, ch in enumerate(text) if ch not in code_of)
        message = f"unknown character {text[pos]!r} at position {pos}"
        raise ParseError(message, position=pos) from None
    if not is_reduced(raw):
        raw = _cancel(raw)
    return FreeWord._trusted(alphabet, raw)
