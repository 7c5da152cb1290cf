import itertools
import math
import random

import pytest

from schreierkit import (
    Alphabet,
    AlphabetMismatch,
    CosetTable,
    FiniteQuotientHom,
    ImageTooLarge,
    InvalidPermutation,
    Letter,
    Presentation,
    compose,
    free_reduce,
    image_closure,
    inverse,
    invert,
    kills_relators,
    parse_word,
)
from schreierkit.perms import DEFAULT_IMAGE_CEILING, kills
from schreierkit.words import letter_codes

AB = Alphabet.of("ab")


def hom(a_images, b_images):
    return FiniteQuotientHom(AB, (tuple(a_images), tuple(b_images)))


def word_image(h, w):
    """Oracle: the image of ``w`` under ``h`` (a homomorphism or a coset
    table), the right-action product of its letters' columns, composed one
    letter at a time."""
    acc = tuple(range(h.degree))
    for g, s in w.letters:
        column = h.gen_images[g] if s > 0 else h.inverse_images[g]
        acc = tuple(column[i] for i in acc)
    return acc


def columns_by_code(h):
    """The columns of ``h`` indexed by letter code: image, inverse, ..."""
    return [c for g in range(h.alphabet.size) for c in (h.gen_images[g], h.inverse_images[g])]


def random_word(rng, alphabet, max_len):
    raw = [
        Letter(rng.randrange(alphabet.size), rng.choice((1, -1)))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return free_reduce(alphabet, raw)


def test_perm_validation():
    for column in ((0, 0), (1, 2)):
        with pytest.raises(InvalidPermutation, match="not a bijection"):
            FiniteQuotientHom(AB, (column, (0, 1)))
        with pytest.raises(InvalidPermutation, match="not a bijection"):
            CosetTable(AB, ((1, 0), column))


def test_perm_composition_is_right_action():
    p = (1, 0, 2)  # swap 0,1
    q = (0, 2, 1)  # swap 1,2
    # i under compose(p, q): apply p first
    assert compose(p, q) == (2, 0, 1)
    assert compose(q, p) == (1, 2, 0)
    assert compose(p, inverse(p)) == (0, 1, 2)
    assert inverse(p) == p
    assert inverse((1, 2, 0)) == (2, 0, 1)


def test_hom_columns_stored_as_tuples():
    from_lists = FiniteQuotientHom(AB, [[1, 0, 2], [0, 2, 1]])
    from_tuples = hom((1, 0, 2), (0, 2, 1))
    assert from_lists.gen_images == ((1, 0, 2), (0, 2, 1))
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    table = CosetTable(AB, ([1, 0], (0, 1)))
    assert table == CosetTable(AB, ((1, 0), (0, 1)))
    assert hash(table) == hash(CosetTable(AB, ((1, 0), (0, 1))))


def test_hom_shape_validation():
    with pytest.raises(ValueError):
        FiniteQuotientHom(AB, ((0, 1),))
    with pytest.raises(ValueError):
        FiniteQuotientHom(AB, ((0, 1), (0, 1, 2)))


def test_eval_word_examples():
    # a word's image under the swap a -> (0 1): the empty word and aa die, a does not
    h = hom((1, 0), (0, 1))
    for text, image in (("1", (0, 1)), ("aa", (0, 1)), ("a", (1, 0))):
        w = parse_word(text, AB)
        assert word_image(h, w) == image
        assert kills_relators(h, [w]) == (image == (0, 1))
        assert kills(letter_codes(w.letters), columns_by_code(h)) == (image == (0, 1))


def test_letter_codes():
    assert letter_codes(parse_word("aBAb", AB).letters) == (0, 3, 1, 2)
    assert letter_codes(()) == ()


def test_kills_edge_cases():
    # a -> (0 2 1) fixes point 0 but moves 1 and 2: point 0 alone would pass it
    h = hom((0, 2, 1), (1, 2, 0))
    columns = columns_by_code(h)
    assert kills((), columns)
    for text, dies in (("a", False), ("A", False), ("aa", True), ("aB", False), ("bbb", True)):
        codes = letter_codes(parse_word(text, AB).letters)
        assert kills(codes, columns) == dies
    # one point: every word dies
    assert kills((0, 3, 1), columns_by_code(hom((0,), (0,))))


def test_kills_matches_word_image():
    # seeded random words over random homs of degree 1..5, against the
    # composed image; some words must fix point 0 and still not die
    rng = random.Random(29)
    fixes_0_only = 0
    for _ in range(400):
        degree = rng.randrange(1, 6)
        perms = list(itertools.permutations(range(degree)))
        h = hom(rng.choice(perms), rng.choice(perms))
        w = random_word(rng, AB, rng.choice((1, 12)))
        image = word_image(h, w)
        dies = image == tuple(range(degree))
        fixes_0_only += image[0] == 0 and not dies
        assert kills(letter_codes(w.letters), columns_by_code(h)) == dies
    assert fixes_0_only >= 20


def test_kills_relators():
    h = hom((1, 0), (0, 1))
    assert kills_relators(h, [])
    aa = Presentation(AB, (parse_word("aa", AB),))
    assert kills_relators(h, aa.relators)
    h3 = hom((1, 2, 0), (0, 1, 2))
    assert not kills_relators(h3, aa.relators)


def test_kills_relators_alphabet_mismatch():
    # raised at the first relator reached over another alphabet
    h = hom((1, 0), (0, 1))
    foreign = parse_word("c", Alphabet.of("abc"))
    with pytest.raises(AlphabetMismatch):
        kills_relators(h, [parse_word("aa", AB), foreign])
    assert not kills_relators(h, [parse_word("a", AB), foreign])


def test_kills_relators_matches_word_image():
    rng = random.Random(42)
    for degree in (1, 2, 3, 4):
        perms = list(itertools.permutations(range(degree)))
        identity = tuple(range(degree))
        for _ in range(50):
            h = hom(rng.choice(perms), rng.choice(perms))
            u = random_word(rng, AB, 10)
            v = random_word(rng, AB, 10)
            assert word_image(h, invert(u)) == inverse(word_image(h, u))
            uv = free_reduce(AB, u.letters + v.letters)
            assert word_image(h, uv) == compose(word_image(h, u), word_image(h, v))
            assert kills_relators(h, [u]) == (word_image(h, u) == identity)
            assert kills_relators(h, [u, v]) == (
                word_image(h, u) == identity and word_image(h, v) == identity
            )


def test_image_closure_examples():
    trivial = hom((0, 1), (0, 1))
    assert image_closure(trivial) == [(0, 1)]
    two = image_closure(hom((1, 0), (0, 1)))
    assert len(two) == 2
    assert two[0] == (0, 1)


def test_image_closure_s3_against_brute_force():
    h = FiniteQuotientHom(AB, ((1, 0, 2), (0, 2, 1)))
    closure = image_closure(h)
    assert len(closure) == 6
    assert closure[0] == (0, 1, 2)
    # oracle: all 6 permutations of 3 points form the closure
    assert set(closure) == set(itertools.permutations(range(3)))


def test_image_closure_deterministic_order():
    h = FiniteQuotientHom(AB, ((1, 0, 2), (0, 2, 1)))
    assert image_closure(h) == image_closure(h)
    # BFS layer 1 in neighbor order: right-multiply identity by a, then b
    closure = image_closure(h)
    assert closure[1] == (1, 0, 2)
    assert closure[2] == (0, 2, 1)


def test_image_closure_group_axioms_and_lagrange():
    rng = random.Random(2718)
    for _ in range(25):
        degree = rng.randrange(2, 6)
        perms = list(itertools.permutations(range(degree)))
        h = hom(rng.choice(perms), rng.choice(perms))
        closure = image_closure(h)
        assert len(set(closure)) == len(closure)
        elements = set(closure)
        for p in closure:
            assert inverse(p) in elements
        for p in closure[:8]:
            for q in closure[:8]:
                assert compose(p, q) in elements
        assert math.factorial(degree) % len(closure) == 0


def test_image_closure_ceiling():
    # a transposition and an 8-cycle generate S_8, 40320 elements
    h = FiniteQuotientHom(AB, ((1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)))
    with pytest.raises(ImageTooLarge) as info:
        image_closure(h)
    assert info.value.ceiling == DEFAULT_IMAGE_CEILING == 10000
