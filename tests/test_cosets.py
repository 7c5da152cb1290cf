import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schreierkit import (
    BASE,
    Alphabet,
    AlphabetMismatch,
    BadBound,
    CosetTable,
    EmptyWord,
    FiniteQuotientHom,
    FreeWord,
    InvalidTable,
    Letter,
    Presentation,
    contains,
    free_reduce,
    image_closure,
    invert,
    iter_low_index_tables,
    kills_relators,
    parse_word,
    presentation_from_text,
    regular_table,
    surface_presentation,
    table_from_text,
    table_to_text,
)
from schreierkit.cosets import prefix_cosets, tree_edges
from test_perms import columns_by_code, step, word_image
from test_words import letters, signed

AB = Alphabet.of("ab")


def hom(a_images, b_images):
    return FiniteQuotientHom(AB, (tuple(a_images), tuple(b_images)))


TWO = regular_table(hom((1, 0), (0, 1)))


def walk(t, start, w):
    """The coset that ``w`` reaches from ``start``, one oracle ``step`` a
    letter."""
    c = start
    for gen, sign in letters(w):
        c = step(t, c, gen, sign)
    return c


def random_word(rng, alphabet, max_len):
    raw = [
        Letter(rng.randrange(alphabet.size), rng.choice((1, -1)))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return free_reduce(alphabet, raw)


def random_table(rng, alphabet, n):
    """Rejection-sample a transitive table."""
    while True:
        columns = []
        for _ in range(alphabet.size):
            images = list(range(n))
            rng.shuffle(images)
            columns.append(tuple(images))
        try:
            return CosetTable(alphabet, tuple(columns))
        except InvalidTable:
            continue


def reference_canonical_form(t):
    """Oracle: renumber cosets by breadth-first discovery from the base,
    visiting neighbors by (generator ascending, sign +1 before -1)."""
    m = t.alphabet.size
    new_id = {0: 0}
    order = [0]
    for c in order:
        for g in range(m):
            for s in (1, -1):
                d = step(t, c, g, s)
                if d not in new_id:
                    new_id[d] = len(order)
                    order.append(d)
    columns = []
    for g in range(m):
        images = [0] * t.n
        for old, new in new_id.items():
            images[new] = new_id[step(t, old, g, 1)]
        columns.append(tuple(images))
    return CosetTable(t.alphabet, tuple(columns))


def brute_force_low_index(p, n):
    """Oracle: enumerate every assignment of generator permutations, keep the
    transitive relator-killing ones, and deduplicate by canonical form."""
    perms = list(itertools.permutations(range(n)))
    seen = {}
    for assignment in itertools.product(perms, repeat=p.alphabet.size):
        try:
            table = CosetTable(p.alphabet, assignment)
        except InvalidTable:
            continue
        if not kills_relators(table, p.relators):
            continue
        seen[table_to_text(reference_canonical_form(table))] = None
    return sorted(seen)


def test_table_validation():
    with pytest.raises(InvalidTable):
        CosetTable(AB, ((0, 1),))  # missing a column
    with pytest.raises(InvalidTable):
        CosetTable(AB, ((0, 1), (0, 1)))  # not transitive
    with pytest.raises(InvalidTable):
        CosetTable(AB, ((1, 0), (0, 1, 2)))  # mixed degrees


def test_table_needs_a_coset():
    with pytest.raises(InvalidTable, match="at least one coset, got index 0"):
        CosetTable(AB, ((), ()))


def test_regular_table_examples():
    trivial = regular_table(hom((0,), (0,)))
    assert trivial.n == 1
    assert trivial.gen_images == ((0,), (0,))

    assert TWO.n == 2
    assert TWO.gen_images[0] == (1, 0)
    assert TWO.gen_images[1] == (0, 1)

    six = regular_table(FiniteQuotientHom(AB, ((1, 0, 2), (0, 2, 1))))
    assert six.n == 6


def test_regular_table_membership_matches_kernel():
    rng = random.Random(11)
    h = FiniteQuotientHom(AB, ((1, 0, 2), (0, 2, 1)))
    table = regular_table(h)
    for _ in range(200):
        w = random_word(rng, AB, 12)
        assert contains(table, w) == (word_image(h, w) == (0, 1, 2))


def test_trace_examples():
    assert prefix_cosets(TWO, parse_word("1", AB)) == [0]
    assert prefix_cosets(TWO, parse_word("ab", AB)) == [0, 1, 1]
    assert not contains(TWO, parse_word("ab", AB))
    with pytest.raises(AlphabetMismatch):
        prefix_cosets(TWO, parse_word("a", Alphabet.of("abc")))
    with pytest.raises(AlphabetMismatch):
        contains(TWO, parse_word("a", Alphabet.of("abc")))


def test_trace_action_law():
    rng = random.Random(23)
    table = regular_table(FiniteQuotientHom(AB, ((1, 2, 0), (1, 0, 2))))
    for _ in range(200):
        u = random_word(rng, AB, 8)
        v = random_word(rng, AB, 8)
        uv = free_reduce(AB, u.codes + v.codes)
        assert prefix_cosets(table, uv)[-1] == walk(table, prefix_cosets(table, u)[-1], v)


def test_trace_depends_only_on_group_element():
    rng = random.Random(37)
    table = regular_table(FiniteQuotientHom(AB, ((1, 2, 0), (1, 0, 2))))
    for _ in range(100):
        w = random_word(rng, AB, 8)
        # insert cancelling pairs, reduce, compare
        raw = list(w.codes)
        for _ in range(3):
            pos = rng.randrange(len(raw) + 1)
            g = rng.randrange(2)
            s = rng.choice((1, -1))
            raw[pos:pos] = [Letter(g, s), Letter(g, -s)]
        reduced = free_reduce(AB, raw)
        assert reduced == w
        assert prefix_cosets(table, reduced)[-1] == prefix_cosets(table, w)[-1]
        assert contains(table, reduced) == contains(table, w)


def test_contains_examples():
    assert contains(TWO, parse_word("1", AB))
    assert contains(TWO, parse_word("aa", AB))
    assert not contains(TWO, parse_word("a", AB))


def test_contains_subgroup_closure():
    rng = random.Random(3)
    for _ in range(200):
        u = random_word(rng, AB, 10)
        v = random_word(rng, AB, 10)
        if contains(TWO, u) and contains(TWO, v):
            assert contains(TWO, free_reduce(AB, u.codes + v.codes))


def test_prefix_cosets():
    one = regular_table(hom((0,), (0,)))
    assert prefix_cosets(one, parse_word("aa", AB)) == [0, 0, 0]
    assert prefix_cosets(TWO, parse_word("aa", AB)) == [0, 1, 0]
    assert prefix_cosets(TWO, parse_word("aaa", AB)) == [0, 1, 0, 1]  # pigeonhole
    assert prefix_cosets(TWO, parse_word("1", AB)) == [BASE]
    with pytest.raises(AlphabetMismatch):
        prefix_cosets(TWO, parse_word("aa", Alphabet.of("abc")))
    with pytest.raises(AlphabetMismatch):
        prefix_cosets(TWO, parse_word("1", Alphabet.of("abc")))
    # against the definition: each initial segment's image, composed letter
    # by letter by the test-side oracle, applied to the base
    rng = random.Random(733)
    for _ in range(200):
        table = random_table(rng, AB, rng.randrange(1, 6))
        w = random_word(rng, AB, 8)
        expected = [
            word_image(table, FreeWord(AB, w.codes[:i]))[BASE] for i in range(len(w) + 1)
        ]
        assert prefix_cosets(table, w) == expected


def test_is_regular():
    # regular: the columns generate a group of order exactly n
    for table in (regular_table(hom((0,), (0,))), TWO):
        assert len(image_closure(table)) == table.n
    bad = CosetTable(AB, ((1, 2, 0), (1, 0, 2)))
    assert len(image_closure(bad)) == 6 != bad.n  # image is all of S3


def test_is_regular_on_regular_tables():
    rng = random.Random(17)
    for _ in range(20):
        degree = rng.randrange(1, 5)
        perms = list(itertools.permutations(range(degree)))
        h = hom(rng.choice(perms), rng.choice(perms))
        table = regular_table(h)
        assert len(image_closure(table)) == table.n


def test_canonical_form_identifies_renumberings():
    rng = random.Random(61)
    for _ in range(50):
        n = rng.randrange(2, 7)
        table = random_table(rng, AB, n)
        # renumber by a random base-fixing permutation
        relabel = [0] + rng.sample(range(1, n), n - 1)
        columns = []
        for g in range(2):
            images = [0] * n
            for old in range(n):
                images[relabel[old]] = relabel[table.gen_images[g][old]]
            columns.append(tuple(images))
        shuffled = CosetTable(AB, tuple(columns))
        assert reference_canonical_form(shuffled) == reference_canonical_form(table)
        canonical = reference_canonical_form(table)
        assert reference_canonical_form(canonical) == canonical


def test_low_index_free_group_against_brute_force():
    free = Presentation(AB, ())
    for n in (1, 2, 3):
        tables = list(iter_low_index_tables(free, n))
        assert [table_to_text(t) for t in tables] == brute_force_low_index(free, n)
    assert len(list(iter_low_index_tables(free, 2))) == 3
    assert len(list(iter_low_index_tables(free, 3))) == 13  # known count for rank 2


def test_low_index_outputs_are_canonical_and_kill_relators():
    pres = Presentation(AB, (parse_word("abab", AB),))
    for n in (1, 2, 3, 4):
        tables = list(iter_low_index_tables(pres, n))
        texts = [table_to_text(t) for t in tables]
        assert texts == sorted(texts)
        assert len(set(texts)) == len(texts)
        for t in tables:
            assert reference_canonical_form(t) == t
            assert kills_relators(t, pres.relators)
        assert texts == brute_force_low_index(pres, n)


def test_low_index_torus_against_brute_force():
    # relator with inverse letters and nonempty results at every index
    pres = Presentation(AB, (parse_word("abAB", AB),))
    for n in (1, 2, 3):
        tables = list(iter_low_index_tables(pres, n))
        assert [table_to_text(t) for t in tables] == brute_force_low_index(pres, n)
    # index-n subgroups of the rank-2 free abelian quotient: sum of divisors
    assert len(list(iter_low_index_tables(pres, 2))) == 3
    assert len(list(iter_low_index_tables(pres, 3))) == 4


def test_low_index_surface_genus2_index2():
    pres = surface_presentation(2)
    tables = list(iter_low_index_tables(pres, 2))
    assert len(tables) == 15
    # oracle: 4 generators into S2, at least one nontrivial, relator is a
    # product of commutators so it dies automatically
    assert [table_to_text(t) for t in tables] == brute_force_low_index(pres, 2)


@st.composite
def _reduced_words(draw, alphabet, max_len=8):
    """A freely reduced word of 1..max_len letters: a drawn letter that
    would cancel the one before is flipped to repeat it."""
    codes = []
    for _ in range(draw(st.integers(1, max_len))):
        g = draw(st.integers(0, alphabet.size - 1))
        s = draw(st.sampled_from((1, -1)))
        if codes and (g, s) == (signed(codes[-1])[0], -signed(codes[-1])[1]):
            s = -s
        codes.append(Letter(g, s))
    return free_reduce(alphabet, codes)


@st.composite
def _low_index_cases(draw):
    """``ab`` up to index 4 or ``abc`` up to index 3, with 0-3 relators; a
    later relator may be a rotation, the inverse or a power of an earlier
    one."""
    names = draw(st.sampled_from(("ab", "abc")))
    alphabet = Alphabet.of(names)
    n = draw(st.integers(1, 4 if names == "ab" else 3))
    relators = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("new", "rotation", "inverse", "power")))
        if not relators or kind == "new":
            relators.append(draw(_reduced_words(alphabet)))
            continue
        base = draw(st.sampled_from(relators))
        if kind == "rotation":
            i = draw(st.integers(0, len(base) - 1))
            relators.append(free_reduce(alphabet, base.codes[i:] + base.codes[:i]))
        elif kind == "inverse":
            relators.append(invert(base))
        else:
            relators.append(free_reduce(alphabet, base.codes + base.codes))
    return Presentation(alphabet, tuple(relators)), n


def _case(names, n, *relators):
    alphabet = Alphabet.of(names)
    return Presentation(alphabet, tuple(parse_word(r, alphabet) for r in relators)), n


@settings(max_examples=200, deadline=None)
@given(_low_index_cases())
@example(_case("ab", 4, "abA"))  # not cyclically reduced
@example(_case("ab", 4, "abA", "Bab"))  # and a rotation of it
@example(_case("ab", 4, "abab"))  # proper power
@example(_case("abc", 3, "aaa", "cbcbcb"))  # proper powers
@example(_case("ab", 4, "aab", "aba"))  # a relator and its rotation
@example(_case("abc", 3, "abC", "cBA"))  # a relator and its inverse
@example(_case("ab", 4, "a", "bAB"))  # length 1
def test_low_index_matches_brute_force_hypothesis(case):
    pres, n = case
    tables = list(iter_low_index_tables(pres, n))
    assert [table_to_text(t) for t in tables] == brute_force_low_index(pres, n)
    assert_leaf_tables_validate(tables)


def assert_leaf_tables_validate(tables):
    """Tables built from the enumerator's leaf columns, without validation,
    equal the validated construction and carry the right inverses."""
    for t in tables:
        checked = CosetTable(t.alphabet, t.gen_images)
        assert t == checked and hash(t) == hash(checked)
        assert t.columns == checked.columns and list(t.columns) == columns_by_code(t)
        assert type(t.gen_images) is tuple and all(type(c) is tuple for c in t.columns)


@pytest.mark.parametrize(
    "genus, n, count, digest",
    [
        (2, 4, 5275, "d09e3e7ae10dd705dee5e15faba4d40b506b16d26877d70fa747e85f423066b7"),
        (3, 3, 7924, "30e682ec4b62ff28a8139c4f77a3c47412d3a858130ef21ca22d452a8bea0801"),
    ],
)
def test_low_index_surface_grid_pinned(genus, n, count, digest):
    # count is the Mednykh/Hall number; the digest pins the sorted output
    tables = list(iter_low_index_tables(surface_presentation(genus), n))
    assert len(tables) == count
    text = "".join(table_to_text(t) for t in tables)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert_leaf_tables_validate(tables)


@pytest.mark.parametrize("n, count", [(11, 11), (12, 13)])
def test_low_index_order_is_text_order_past_one_digit(n, count):
    # two-digit coset ids: as text 10 sorts before 2, so tuple order differs
    pres = Presentation(AB, (parse_word("aa", AB), parse_word("bb", AB)))
    tables = list(iter_low_index_tables(pres, n, max_index=n))
    assert len(tables) == count
    assert tables == sorted(tables, key=table_to_text)
    assert tables != sorted(tables, key=lambda t: t.gen_images)


INVOLUTIONS = Presentation(AB, (parse_word("aa", AB), parse_word("bb", AB)))


@pytest.mark.parametrize(
    "pres, n, max_index",
    [
        (surface_presentation(2), 4, 8),  # the pinned grid digests
        (surface_presentation(3), 3, 8),
        (INVOLUTIONS, 11, 11),  # text order past one digit
        (INVOLUTIONS, 12, 12),
    ],
    ids=["g2-n4", "g3-n3", "involutions-n11", "involutions-n12"],
)
def test_iter_low_index_tables_agrees_with_list(pres, n, max_index):
    streamed = iter_low_index_tables(pres, n, max_index)
    assert iter(streamed) is streamed
    # taken one at a time, the tables are those of a whole fresh run
    first = next(streamed)
    tables = [first, *streamed]
    assert tables == list(iter_low_index_tables(pres, n, max_index))
    assert_leaf_tables_validate(tables)


def test_iter_low_index_tables_ids_past_one_byte():
    rank_one = Presentation(Alphabet.of("a"), ())
    tables = list(iter_low_index_tables(rank_one, 300, max_index=300))
    cycle = CosetTable(rank_one.alphabet, (tuple(range(1, 300)) + (0,),))
    assert tables == [reference_canonical_form(cycle)]
    assert max(tables[0].gen_images[0]) == 299
    assert_leaf_tables_validate(tables)


def reference_low_index(p, n):
    """Oracle: the slot-order search.  Undefined slots are filled in
    (coset, letter) order to the end, targets are the introduced cosets in
    ascending order and then one fresh coset; after each choice every
    relator rotation is traced from every introduced coset until nothing
    more is deduced.  Leaves are validated and sorted by text."""
    width = 2 * p.alphabet.size
    cols = [[-1] * n for _ in range(width)]
    rotations = set()
    for rel in p.relators:
        codes = tuple(2 * g + (s < 0) for g, s in letters(rel))
        rotations.update(codes[i:] + codes[:i] for i in range(len(codes)))
    found = []
    used = 1

    def scan(rot, alpha, trail):
        f = b = alpha
        i, j = 0, len(rot) - 1
        while i <= j and cols[rot[i]][f] >= 0:
            f, i = cols[rot[i]][f], i + 1
        if i > j:
            return f == alpha
        while j > i and cols[rot[j] ^ 1][b] >= 0:
            b, j = cols[rot[j] ^ 1][b], j - 1
        if j > i:
            return True
        if cols[rot[i] ^ 1][b] >= 0:
            return False
        cols[rot[i]][f], cols[rot[i] ^ 1][b] = b, f
        trail.append((rot[i], f, b))
        return True

    def close(trail):
        while True:
            before = len(trail)
            for rot in rotations:
                for alpha in range(used):
                    if not scan(rot, alpha, trail):
                        return False
            if len(trail) == before:
                return True

    def descend(c, k):
        nonlocal used
        while cols[k][c] >= 0:
            k += 1
            if k == width:
                c, k = c + 1, 0
                if c == used:
                    if used == n:
                        found.append(CosetTable(p.alphabet, tuple(map(tuple, cols[::2]))))
                    return
        for d in range(min(used + 1, n)):
            if cols[k ^ 1][d] >= 0:
                continue
            fresh = d == used
            used += fresh
            cols[k][c], cols[k ^ 1][d] = d, c
            trail = [(k, c, d)]
            if close(trail):
                descend(c, k)
            for kk, src, dst in trail:
                cols[kk][src] = cols[kk ^ 1][dst] = -1
            used -= fresh

    descend(0, 0)
    return sorted(found, key=table_to_text)


def test_slot_order_reference_against_brute_force():
    for pres, n in (
        (Presentation(AB, (parse_word("abAB", AB),)), 3),
        (Presentation(AB, (parse_word("abab", AB),)), 4),
        (Presentation(AB, ()), 3),
    ):
        tables = reference_low_index(pres, n)
        assert [table_to_text(t) for t in tables] == brute_force_low_index(pres, n)


def _random_presentation(seed):
    """``ab`` with one or two short relators, each the square or cube of a
    random word of one or two letters, or the commutator of two such."""
    rng = random.Random(seed)

    def short():
        while not len(word := random_word(rng, AB, 2)):
            pass
        return word

    relators = []
    for _ in range(rng.choice((1, 2))):
        u = short()
        if rng.random() < 0.5:
            relator = u
            for _ in range(rng.choice((1, 2))):
                relator = free_reduce(AB, relator.codes + u.codes)
        else:
            v = short()
            relator = free_reduce(
                AB, u.codes + v.codes + invert(u).codes + invert(v).codes
            )
        if len(relator):
            relators.append(relator)
    return Presentation(AB, tuple(relators))


@pytest.mark.parametrize(
    "pres, n",
    [
        (surface_presentation(1), 8),
        (surface_presentation(2), 3),
        (surface_presentation(4), 2),
        (Presentation(AB, ()), 5),
    ]
    + [(_random_presentation(seed), n) for seed in range(8) for n in (5, 6)],
    ids=["torus-n8", "g2-n3", "g4-n2", "free-ab-n5"]
    + [f"random{seed}-n{n}" for seed in range(8) for n in (5, 6)],
)
def test_low_index_matches_slot_order_reference(pres, n):
    # same tables in the same order as the search that never leaves slot order
    assert list(iter_low_index_tables(pres, n)) == reference_low_index(pres, n)


def test_low_index_higman_empty():
    alphabet = Alphabet.of("abcd")
    relators = tuple(
        parse_word(t, alphabet) for t in ("abABB", "bcBCC", "cdCDD", "daDAA")
    )
    pres = Presentation(alphabet, relators)
    for n in (2, 3):
        assert list(iter_low_index_tables(pres, n)) == []
        assert brute_force_low_index(pres, n) == []


def test_low_index_bounds():
    free = Presentation(AB, ())
    with pytest.raises(BadBound):
        list(iter_low_index_tables(free, 0))
    with pytest.raises(BadBound):
        list(iter_low_index_tables(free, 9))
    # the bound is overridable; rank 1 has exactly one subgroup per index
    rank_one = Presentation(Alphabet.of("a"), ())
    assert len(list(iter_low_index_tables(rank_one, 9, max_index=9))) == 1


def test_low_index_edge_bound():
    # the search recurses about once per table edge it fills, so a table may
    # have at most 512 edges, index times generator count, whatever max_index
    rank_one = Presentation(Alphabet.of("a"), ())
    tables = list(iter_low_index_tables(rank_one, 512, max_index=512))
    cycle = CosetTable(rank_one.alphabet, (tuple(range(1, 512)) + (0,),))
    assert tables == [reference_canonical_form(cycle)]
    with pytest.raises(BadBound, match="gives 513 table edges, more than 512"):
        next(iter_low_index_tables(rank_one, 513, max_index=513))
    with pytest.raises(BadBound, match="index 257 over 2 generators gives 514 table edges"):
        next(iter_low_index_tables(surface_presentation(1), 257, max_index=1000))


def test_table_text_roundtrip():
    text = table_to_text(TWO)
    assert text == "n=2\na: 1 0\nb: 0 1\n"
    assert table_from_text(text) == TWO
    with pytest.raises(InvalidTable):
        table_from_text("a: 1 0\n")
    with pytest.raises(InvalidTable):
        table_from_text("n=2\na: 1 0\nb: 0 2\n")
    with pytest.raises(InvalidTable):
        table_from_text("n=2\na: 0 1\nb: 0 1\n")  # not transitive
    with pytest.raises(InvalidTable, match="index must be positive, got 0"):
        table_from_text("n=0\n")
    with pytest.raises(InvalidTable, match="alphabet needs at least one generator"):
        table_from_text("n=1\n")


def test_table_text_matches_joined_ids():
    """The text is the ids joined by spaces, byte for byte, with one-digit
    and two-digit ids and at 300 cosets, and it reads back to the table."""
    rng = random.Random(1111)
    tables = [random_table(rng, AB, n) for n in (1, 10, 11)]
    cycle = [0] + rng.sample(range(1, 300), 299)
    image = [0] * 300
    for c, d in zip(cycle, cycle[1:] + cycle[:1]):
        image[c] = d
    tables.append(CosetTable(Alphabet.of("a"), (tuple(image),)))
    for t in tables:
        lines = [f"n={t.n}"]
        for name, column in zip(t.alphabet.names, t.gen_images):
            lines.append(f"{name}: " + " ".join(map(str, column)))
        text = table_to_text(t)
        assert text == "\n".join(lines) + "\n"
        assert table_from_text(text) == t


def test_presentation_text_roundtrip():
    pres = Presentation(AB, (parse_word("aa", AB), parse_word("abAB", AB)))
    text = "gens: a b\nrel: aa\nrel: abAB\n"
    assert presentation_from_text(text) == pres
    assert [str(rel) for rel in pres.relators] == ["aa", "abAB"]


def test_presentation_rejects_empty_relator():
    with pytest.raises(EmptyWord):
        Presentation(AB, (parse_word("1", AB),))


def test_presentation_rejects_relator_over_other_alphabet():
    with pytest.raises(AlphabetMismatch):
        Presentation(AB, (parse_word("aa", Alphabet.of("abc")),))


def test_tree_edges_order():
    t = table_from_text("n=4\na: 1 2 0 3\nb: 3 1 2 0\n")
    reached = [True, False, False, False]
    # each edge carries its letter's code: a is 0, A is 1, b is 2
    assert list(tree_edges(t, [BASE], reached)) == [(0, 0, 1), (0, 1, 2), (0, 2, 3)]
    assert [signed(k) for _, k, _ in tree_edges(t, [BASE], [True] + [False] * 3)] == [
        (0, 1), (0, -1), (1, 1)
    ]
    assert reached == [True] * 4
    # a coset marked reached in advance is searched from but never yielded
    reached = [True, False, True, False]
    assert list(tree_edges(t, [0, 2], reached)) == [(0, 0, 1), (0, 2, 3)]
