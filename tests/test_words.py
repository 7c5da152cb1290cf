import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreierkit import (
    Alphabet,
    FreeWord,
    InvalidLetter,
    Letter,
    ParseError,
    UnreducedWord,
    empty_word,
    free_reduce,
    invert,
    is_reduced,
    parse_word,
)

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")


def naive_reduce(letters):
    """Oracle: repeat single-pass adjacent cancellation until a fixpoint."""
    current = list(letters)
    while True:
        out = []
        i = 0
        cancelled = False
        while i < len(current):
            if (
                i + 1 < len(current)
                and current[i].gen == current[i + 1].gen
                and current[i].sign == -current[i + 1].sign
            ):
                i += 2
                cancelled = True
            else:
                out.append(current[i])
                i += 1
        current = out
        if not cancelled:
            return tuple(current)


def random_raw(rng, alphabet, max_len):
    return [
        Letter(rng.randrange(alphabet.size), rng.choice((1, -1)))
        for _ in range(rng.randrange(max_len + 1))
    ]


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("A",))
    with pytest.raises(ValueError):
        Alphabet(("ab",))
    assert Alphabet.first(3).names == ("a", "b", "c")


def test_free_reduce_examples():
    assert free_reduce(AB, [Letter(0, 1), Letter(0, -1)]) == empty_word(AB)
    w = free_reduce(ABC, [Letter(0, 1), Letter(1, 1), Letter(1, -1), Letter(2, 1)])
    assert str(w) == "ac"


def test_free_reduce_rejects_bad_letters():
    with pytest.raises(InvalidLetter):
        free_reduce(AB, [Letter(2, 1)])
    with pytest.raises(InvalidLetter):
        free_reduce(AB, [Letter(0, 2)])
    # a bad pair that would cancel is still rejected
    with pytest.raises(InvalidLetter):
        free_reduce(AB, [Letter(2, 1), Letter(2, -1)])


def test_free_reduce_against_fixpoint_oracle():
    rng = random.Random(20240521)
    for _ in range(1000):
        raw = random_raw(rng, ABC, 64)
        reduced = free_reduce(ABC, raw)
        assert reduced.letters == naive_reduce(raw)
        assert free_reduce(ABC, reduced.letters) == reduced  # idempotent
        assert is_reduced(reduced.letters)


def test_invert_examples():
    assert invert(empty_word(AB)) == empty_word(AB)
    w = parse_word("aB", AB)
    assert str(invert(w)) == "bA"


def test_invert_laws():
    rng = random.Random(7)
    for _ in range(200):
        w = free_reduce(AB, random_raw(rng, AB, 24))
        assert invert(invert(w)) == w
        assert free_reduce(AB, w.letters + invert(w).letters) == empty_word(AB)


def test_concat_examples():
    # a product is reduced as the concatenation of its factors' letters
    u, v = parse_word("ab", AB), parse_word("Ba", AB)
    assert str(free_reduce(AB, u.letters + v.letters)) == "aa"
    w = parse_word("abA", AB)
    assert free_reduce(AB, w.letters + empty_word(AB).letters) == w


def test_concat_associativity_against_flat_oracle():
    rng = random.Random(99)
    for _ in range(1000):
        u, v, w = (free_reduce(AB, random_raw(rng, AB, 12)) for _ in range(3))
        flat = free_reduce(AB, u.letters + v.letters + w.letters)
        assert free_reduce(AB, free_reduce(AB, u.letters + v.letters).letters + w.letters) == flat
        assert free_reduce(AB, u.letters + free_reduce(AB, v.letters + w.letters).letters) == flat


def test_concat_length_parity():
    rng = random.Random(5)
    for _ in range(300):
        u = free_reduce(AB, random_raw(rng, AB, 16))
        v = free_reduce(AB, random_raw(rng, AB, 16))
        assert (len(free_reduce(AB, u.letters + v.letters)) - len(u) - len(v)) % 2 == 0


def test_prefixes_properties():
    # an initial segment of a reduced word is reduced, so a representative
    # is its parent's letters plus one with no re-reduction
    rng = random.Random(31)
    for _ in range(300):
        w = free_reduce(ABC, random_raw(rng, ABC, 20))
        for i in range(len(w)):
            assert is_reduced(w.letters[:i])
            assert free_reduce(ABC, w.letters[:i]).letters == w.letters[:i]


def test_parse_examples():
    assert str(parse_word("abA", AB)) == "abA"
    assert parse_word("1", AB) == empty_word(AB)
    assert parse_word("", AB) == empty_word(AB)
    assert parse_word("aA", AB) == empty_word(AB)


def test_parse_error_position():
    with pytest.raises(ParseError) as info:
        parse_word("abx", AB)
    assert info.value.position == 2


def test_parse_rejects_kelvin_sign():
    # U+212A lowercases to "k" and is uppercase, but only ASCII spells inverses
    ak = Alphabet.of("ak")
    assert str(parse_word("akK", ak)) == "a"
    with pytest.raises(ParseError) as info:
        parse_word("ak\u212a", ak)
    assert info.value.position == 2


def test_parse_matches_free_reduce_on_random_text():
    rng = random.Random(1414)
    for _ in range(500):
        text = "".join(rng.choice("abcABC") for _ in range(rng.randrange(30)))
        letters = [Letter("abc".index(ch.lower()), 1 if ch.islower() else -1) for ch in text]
        assert parse_word(text, ABC) == free_reduce(ABC, letters)
        # a character outside the alphabet, even one that would cancel
        pos = rng.randrange(len(text) + 1)
        bad = rng.choice("dDx-")
        with pytest.raises(ParseError) as info:
            parse_word(text[:pos] + bad + text[pos:], ABC)
        assert info.value.position == pos


def test_print_parse_roundtrip():
    rng = random.Random(13)
    for _ in range(300):
        w = free_reduce(ABC, random_raw(rng, ABC, 24))
        assert parse_word(str(w), ABC) == w


def test_constructor_rejects_unreduced():
    with pytest.raises(ValueError):
        FreeWord(AB, (Letter(0, 1), Letter(0, -1)))


def test_alphabet_equality_hash_and_repr_ignore_letter_tables():
    first, second = Alphabet.of("ab"), Alphabet(("a", "b"))
    assert first.inverse_of is not second.inverse_of
    assert first == second and hash(first) == hash(second)
    assert repr(first) == "Alphabet(names=('a', 'b'))"
    assert [f.name for f in fields(Alphabet) if f.compare or f.repr or f.init] == ["names"]
    assert first != Alphabet.of("ba")
    assert first == first and not first != first
    assert first != ("a", "b") and hash(first) == hash((("a", "b"),))


raw_letters_strategy = st.lists(
    st.tuples(st.integers(-1, 3), st.sampled_from((1, -1, 1, -1, 0, 2, -2, True))).flatmap(
        lambda t: st.sampled_from((t, Letter(*t)))
    ),
    max_size=12,
)


def _outcome(call):
    try:
        call()
    except Exception as exc:  # compare class and message
        return type(exc), str(exc)
    return None


@settings(max_examples=250)
@given(raw_letters_strategy)
def test_constructor_raises_exactly_when_reference_checks_do(raw):
    letters = tuple(raw)

    def reference():  # the letter rules, spelled out one letter and one pair at a time
        for gen, sign in letters:
            if not 0 <= gen < 3:
                raise InvalidLetter(f"generator index {gen} outside alphabet of size 3")
            if sign not in (1, -1):
                raise InvalidLetter(f"letter sign must be +1 or -1, got {sign}")
        for (g, s), (h, t) in zip(letters, letters[1:]):
            if g == h and s == -t:
                raise UnreducedWord(f"letters are not freely reduced: {letters!r}")

    expected = _outcome(reference)
    assert _outcome(lambda: FreeWord(ABC, letters)) == expected
    if expected is None or expected[0] is UnreducedWord:
        assert is_reduced(letters) == (expected is None)


letters_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from((1, -1))).map(lambda t: Letter(*t)),
    max_size=40,
)


@settings(max_examples=300)
@given(letters_strategy)
def test_reduction_idempotent_hypothesis(raw):
    once = free_reduce(ABC, raw)
    assert free_reduce(ABC, once.letters) == once
    assert once.letters == naive_reduce(raw)


@settings(max_examples=200)
@given(letters_strategy, letters_strategy)
def test_concat_hypothesis(raw_u, raw_v):
    u, v = free_reduce(ABC, raw_u), free_reduce(ABC, raw_v)
    uv = free_reduce(ABC, u.letters + v.letters)
    assert is_reduced(uv.letters)
    assert len(uv) <= len(u) + len(v)
    assert uv == free_reduce(ABC, list(raw_u) + list(raw_v))
