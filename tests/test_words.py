import copy
import pickle
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


def signed(k):
    """The tests' own decoding of a letter code: (generator, sign)."""
    return k >> 1, -1 if k & 1 else 1


def letters(w):
    """The (generator, sign) pairs of ``w``, decoded as :func:`signed` does."""
    return [(k >> 1, -1 if k & 1 else 1) for k in w.codes]


def naive_reduce(codes):
    """Oracle: repeat single-pass adjacent cancellation until a fixpoint,
    on the decoded (generator, sign) pairs."""
    current = list(codes)
    while True:
        out = []
        i = 0
        cancelled = False
        while i < len(current):
            if (
                i + 1 < len(current)
                and signed(current[i])[0] == signed(current[i + 1])[0]
                and signed(current[i])[1] == -signed(current[i + 1])[1]
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
    with pytest.raises(InvalidLetter):
        free_reduce(AB, [4, 5])
    with pytest.raises(InvalidLetter):
        free_reduce(AB, [-1])


@pytest.mark.parametrize("bad", [0.5, 1.0, "a"])
def test_a_code_that_is_not_an_integer_is_rejected(bad):
    # 0.5 used to truncate to generator 0, and printing it raised KeyError
    with pytest.raises(InvalidLetter):
        FreeWord(AB, (bad,))
    with pytest.raises(InvalidLetter):
        FreeWord(AB, (0, bad))
    with pytest.raises(InvalidLetter):
        free_reduce(AB, [bad])
    with pytest.raises(InvalidLetter):
        Letter(bad, 1)
    with pytest.raises(InvalidLetter):
        Letter(0, bad)


def test_constructor_stores_any_code_iterable_as_a_tuple():
    # a list or a generator of codes makes the same hashable word as the
    # tuple; a generator used to be spent by the check and then fail
    w = parse_word("ab", AB)
    for codes in ([0, 2], iter((0, 2)), (k for k in (0, 2)), [Letter(0, 1), Letter(1, 1)]):
        word = FreeWord(AB, codes)
        assert type(word.codes) is tuple
        assert word == w and hash(word) == hash(w) and str(word) == "ab"
    assert FreeWord(AB, iter(())) == empty_word(AB)
    with pytest.raises(InvalidLetter):
        FreeWord(AB, (k for k in (0, 4)))
    with pytest.raises(UnreducedWord):
        FreeWord(AB, [0, 1])


def test_an_invalid_letter_is_a_value_error():
    # as the other constructor errors are, so `except ValueError` catches
    # an out-of-range code too
    assert issubclass(InvalidLetter, ValueError)
    for make in (lambda: FreeWord(AB, (4,)), lambda: free_reduce(AB, [-1]), lambda: Letter(0, 0)):
        with pytest.raises(ValueError):
            make()


def test_letter_is_its_code():
    assert [Letter(g, s) for g in (0, 1) for s in (1, -1)] == [0, 1, 2, 3]
    assert Letter(2, -1) == 2 * 2 + 1 and Letter(2, -1).inverse() == Letter(2, 1) == 4
    assert isinstance(Letter(0, 1).inverse(), Letter)
    assert str(FreeWord(AB, (Letter(0, 1), Letter(1, -1)))) == "aB"
    assert FreeWord(AB, (Letter(0, 1), Letter(1, -1))) == parse_word("aB", AB)
    for gen, sign in ((True, 1), (-1, 1), (0, 0), (0, 2), (0, True)):
        with pytest.raises(InvalidLetter):
            Letter(gen, sign)
    with pytest.raises(InvalidLetter):
        FreeWord(AB, (True,))
    for ell in (Letter(0, 1), Letter(3, -1)):
        for copied in (pickle.loads(pickle.dumps(ell)), copy.deepcopy(ell)):
            assert copied == ell and type(copied) is Letter


def test_constructor_accepts_exactly_the_in_range_reduced_code_tuples():
    rng = random.Random(3232)
    accepted = 0
    for _ in range(3000):
        alphabet = Alphabet.first(rng.randrange(1, 5))
        m = alphabet.size
        codes = tuple(rng.randrange(-1, 2 * m + 1) for _ in range(rng.randrange(7)))
        pairs = [signed(k) for k in codes]
        valid = all(0 <= k < 2 * m for k in codes) and not any(
            g == h and s == -t for (g, s), (h, t) in zip(pairs, pairs[1:])
        )
        try:
            w = FreeWord(alphabet, codes)
        except (InvalidLetter, UnreducedWord):
            assert not valid, codes
            continue
        assert valid, codes
        accepted += 1
        spelled = "".join(
            alphabet.names[g] if s > 0 else alphabet.names[g].upper() for g, s in pairs
        )
        assert str(w) == (spelled or "1")
        assert parse_word(str(w), alphabet) == w
    assert 500 < accepted < 2500


def test_free_reduce_against_fixpoint_oracle():
    rng = random.Random(20240521)
    for _ in range(1000):
        raw = random_raw(rng, ABC, 64)
        reduced = free_reduce(ABC, raw)
        assert reduced.codes == naive_reduce(raw)
        assert free_reduce(ABC, reduced.codes) == reduced  # idempotent
        assert is_reduced(reduced.codes)


def test_invert_examples():
    assert invert(empty_word(AB)) == empty_word(AB)
    w = parse_word("aB", AB)
    assert str(invert(w)) == "bA"


def test_invert_laws():
    rng = random.Random(7)
    for _ in range(200):
        w = free_reduce(AB, random_raw(rng, AB, 24))
        assert invert(invert(w)) == w
        assert free_reduce(AB, w.codes + invert(w).codes) == empty_word(AB)
        assert letters(invert(w)) == [(g, -s) for g, s in reversed(letters(w))]


def test_concat_examples():
    # a product is reduced as the concatenation of its factors' codes
    u, v = parse_word("ab", AB), parse_word("Ba", AB)
    assert str(free_reduce(AB, u.codes + v.codes)) == "aa"
    w = parse_word("abA", AB)
    assert free_reduce(AB, w.codes + empty_word(AB).codes) == w


def test_concat_associativity_against_flat_oracle():
    rng = random.Random(99)
    for _ in range(1000):
        u, v, w = (free_reduce(AB, random_raw(rng, AB, 12)) for _ in range(3))
        flat = free_reduce(AB, u.codes + v.codes + w.codes)
        assert free_reduce(AB, free_reduce(AB, u.codes + v.codes).codes + w.codes) == flat
        assert free_reduce(AB, u.codes + free_reduce(AB, v.codes + w.codes).codes) == flat


def test_concat_length_parity():
    rng = random.Random(5)
    for _ in range(300):
        u = free_reduce(AB, random_raw(rng, AB, 16))
        v = free_reduce(AB, random_raw(rng, AB, 16))
        assert (len(free_reduce(AB, u.codes + v.codes)) - len(u) - len(v)) % 2 == 0


def test_prefixes_properties():
    # an initial segment of a reduced word is reduced, so a representative
    # is its parent's codes plus one with no re-reduction
    rng = random.Random(31)
    for _ in range(300):
        w = free_reduce(ABC, random_raw(rng, ABC, 20))
        for i in range(len(w)):
            assert is_reduced(w.codes[:i])
            assert free_reduce(ABC, w.codes[:i]).codes == w.codes[:i]


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


@pytest.mark.parametrize("value", [["a", "b"], ("a", "A"), 7, None, b"ab"])
def test_parse_rejects_anything_but_a_string(value):
    # a list of letters would pass the inverse-pair test and come out unreduced
    with pytest.raises(ParseError) as info:
        parse_word(value, AB)
    assert info.value.position is None
    assert str(info.value) == f"a word must be a string, got {type(value).__name__}"


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
    assert first.code_of is not second.code_of
    assert first.chars == second.chars == "aAbB"
    assert first.code_of == {"a": 0, "A": 1, "b": 2, "B": 3}
    assert first == second and hash(first) == hash(second)
    assert repr(first) == "Alphabet(names=('a', 'b'))"
    assert [f.name for f in fields(Alphabet) if f.compare or f.repr or f.init] == ["names"]
    assert first != Alphabet.of("ba")
    assert first == first and not first != first
    assert first != ("a", "b") and hash(first) == hash((("a", "b"),))


raw_codes_strategy = st.lists(
    st.one_of(
        st.integers(-2, 7),
        st.sampled_from((0.5, 1.0, "a", True, False, None)),
        st.builds(Letter, st.integers(0, 3), st.sampled_from((1, -1))),
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
@given(raw_codes_strategy)
def test_constructor_raises_exactly_when_reference_checks_do(raw):
    codes = tuple(raw)

    def reference():  # the code rules, spelled out one code and one pair at a time
        for k in codes:
            if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k < 6:
                raise InvalidLetter(f"letter code {k!r} is not an integer in 0..5")
        for (g, s), (h, t) in zip(map(signed, codes), map(signed, codes[1:])):
            if g == h and s == -t:
                raise UnreducedWord(f"codes are not freely reduced: {codes!r}")

    expected = _outcome(reference)
    assert _outcome(lambda: FreeWord(ABC, codes)) == expected
    if expected is None or expected[0] is UnreducedWord:
        assert is_reduced(codes) == (expected is None)


letters_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from((1, -1))).map(lambda t: Letter(*t)),
    max_size=40,
)


@settings(max_examples=300)
@given(letters_strategy)
def test_reduction_idempotent_hypothesis(raw):
    once = free_reduce(ABC, raw)
    assert free_reduce(ABC, once.codes) == once
    assert once.codes == naive_reduce(raw)


@settings(max_examples=200)
@given(letters_strategy, letters_strategy)
def test_concat_hypothesis(raw_u, raw_v):
    u, v = free_reduce(ABC, raw_u), free_reduce(ABC, raw_v)
    uv = free_reduce(ABC, u.codes + v.codes)
    assert is_reduced(uv.codes)
    assert len(uv) <= len(u) + len(v)
    assert uv == free_reduce(ABC, list(raw_u) + list(raw_v))
