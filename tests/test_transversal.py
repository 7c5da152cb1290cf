import random
from collections import deque

import pytest

from schreierkit import (
    Alphabet,
    BadSeed,
    CosetTable,
    EmptyWord,
    FiniteQuotientHom,
    InvalidTable,
    Letter,
    NotInSubgroup,
    Perm,
    PrefixesNotSeparated,
    SeedCollision,
    SubgroupBasis,
    basis_through_word,
    basis_to_text,
    check_basis,
    check_transversal,
    concat_reduce,
    contains,
    empty_word,
    evaluate_positions,
    fold_verify,
    free_reduce,
    invert,
    parse_word,
    prefixes,
    regular_table,
    rewrite_in_basis,
    schreier_basis,
    schreier_transversal,
    separates_prefixes,
    trace,
    transversal_to_text,
)

AB = Alphabet.of("ab")
TWO = regular_table(FiniteQuotientHom(AB, (Perm((1, 0)), Perm((0, 1)))))


def random_table(rng, alphabet, n):
    while True:
        columns = []
        for _ in range(alphabet.size):
            images = list(range(n))
            rng.shuffle(images)
            columns.append(Perm(tuple(images)))
        try:
            return CosetTable(alphabet, tuple(columns))
        except InvalidTable:
            continue


def bfs_distances(table):
    """Oracle: coset-graph distance from the base over both edge directions."""
    dist = {0: 0}
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for g in range(table.alphabet.size):
            for s in (1, -1):
                d = table.step(c, g, s)
                if d not in dist:
                    dist[d] = dist[c] + 1
                    queue.append(d)
    return dist


def random_subgroup_word(rng, table, max_tries=2000):
    """A word tracing base -> base whose prefixes hit distinct cosets."""
    alphabet = table.alphabet
    for _ in range(max_tries):
        length = rng.randrange(1, table.n + 1)
        raw = [
            Letter(rng.randrange(alphabet.size), rng.choice((1, -1)))
            for _ in range(length)
        ]
        w = free_reduce(alphabet, raw)
        if len(w) == 0:
            continue
        if contains(table, w) and separates_prefixes(table, w):
            return w
    return None


def test_unseeded_transversal_examples():
    one = regular_table(FiniteQuotientHom(AB, (Perm((0,)), Perm((0,)))))
    assert [str(w) for w in schreier_transversal(one).reps] == ["1"]
    assert [str(w) for w in schreier_transversal(TWO).reps] == ["1", "a"]
    three = CosetTable(AB, (Perm((1, 2, 0)), Perm((0, 1, 2))))
    # BFS visits a before its inverse, so coset 1 gets "a"; coset 2 is one
    # step from the base along the inverse edge and gets "A"
    assert [str(w) for w in schreier_transversal(three).reps] == ["1", "a", "A"]


def test_unseeded_reps_have_minimal_length():
    rng = random.Random(777)
    for _ in range(50):
        table = random_table(rng, Alphabet.first(rng.randrange(1, 4)), rng.randrange(1, 9))
        tr = schreier_transversal(table)
        dist = bfs_distances(table)
        for c, w in enumerate(tr.reps):
            assert len(w) == dist[c]
        assert not check_transversal(tr)


def test_seeded_transversal():
    seed = prefixes(parse_word("aa", AB))
    tr = schreier_transversal(TWO, seed)
    assert [str(w) for w in tr.reps] == ["1", "a"]
    assert not check_transversal(tr)


def test_seed_errors():
    with pytest.raises(BadSeed):
        schreier_transversal(TWO, [parse_word("a", AB)])  # empty word missing
    with pytest.raises(SeedCollision):
        schreier_transversal(
            TWO, [empty_word(AB), parse_word("a", AB), parse_word("A", AB)]
        )


def test_seeded_transversal_random():
    rng = random.Random(909)
    for _ in range(50):
        table = random_table(rng, AB, rng.randrange(2, 7))
        w = random_subgroup_word(rng, table)
        if w is None:
            continue
        seed = prefixes(w)
        tr = schreier_transversal(table, seed)
        assert not check_transversal(tr)
        for p in seed:
            assert tr.reps[trace(table, 0, p)] == p


def test_seeded_reps_are_minimal_extensions():
    """Off-seed representatives append exactly edge-distance-many letters to
    the nearest seeded representative (multi-source BFS oracle)."""
    rng = random.Random(515)
    for _ in range(40):
        table = random_table(rng, AB, rng.randrange(2, 7))
        w = random_subgroup_word(rng, table)
        if w is None:
            continue
        seed = prefixes(w)
        tr = schreier_transversal(table, seed)
        seeded = {trace(table, 0, p): len(p) for p in seed}
        dist = {c: 0 for c in seeded}
        queue = deque(seeded)
        while queue:
            c = queue.popleft()
            for g in range(table.alphabet.size):
                for s in (1, -1):
                    d = table.step(c, g, s)
                    if d not in dist:
                        dist[d] = dist[c] + 1
                        queue.append(d)
        from schreierkit import FreeWord

        for c in range(table.n):
            if c in seeded:
                assert len(tr.reps[c]) == seeded[c]
                continue
            # each off-seed rep extends the rep of a coset one BFS layer in,
            # by exactly one letter and without cancellation
            g, s = tr.reps[c].letters[-1]
            parent = table.step(c, g, -s)
            assert dist[parent] == dist[c] - 1
            assert tr.reps[parent] == FreeWord(AB, tr.reps[c].letters[:-1])


def test_schreier_basis_examples():
    one = regular_table(FiniteQuotientHom(AB, (Perm((0,)), Perm((0,)))))
    rose = schreier_basis(schreier_transversal(one))
    assert [str(u) for u in rose.elements] == ["a", "b"]

    basis = schreier_basis(schreier_transversal(TWO))
    assert [str(u) for u in basis.elements] == ["b", "aa", "abA"]
    assert basis.edge_index == {(0, 1): 0, (1, 0): 1, (1, 1): 2}

    rank_one = Alphabet.of("a")
    flip = regular_table(FiniteQuotientHom(rank_one, (Perm((1, 0)),)))
    single = schreier_basis(schreier_transversal(flip))
    assert [str(u) for u in single.elements] == ["aa"]
    assert len(single.elements) == 2 * (1 - 1) + 1


def test_index_rank_formula_randomized():
    rng = random.Random(4242)
    for _ in range(60):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 9)
        table = random_table(rng, Alphabet.first(m), n)
        basis = schreier_basis(schreier_transversal(table))
        assert len(basis.elements) == n * (m - 1) + 1
        assert not check_basis(basis)
        assert fold_verify(basis)


def test_rewrite_in_basis_examples():
    basis = schreier_basis(schreier_transversal(TWO))
    assert rewrite_in_basis(basis, empty_word(AB)) == []
    assert rewrite_in_basis(basis, parse_word("aa", AB)) == [(1, 1)]
    # aa * (abA)^-1 crosses the aa edge forward and the abA edge backward
    w = concat_reduce(parse_word("aa", AB), invert(parse_word("abA", AB)))
    assert str(w) == "aaaBA"
    assert rewrite_in_basis(basis, w) == [(1, 1), (2, -1)]
    with pytest.raises(NotInSubgroup):
        rewrite_in_basis(basis, parse_word("a", AB))


def test_rewrite_roundtrip_randomized():
    rng = random.Random(31337)
    for _ in range(60):
        table = random_table(rng, Alphabet.first(rng.randrange(1, 4)), rng.randrange(1, 7))
        basis = schreier_basis(schreier_transversal(table))
        for _ in range(5):
            u = random_word_in_subgroup(rng, table)
            seq = rewrite_in_basis(basis, u)
            assert evaluate_positions(basis, seq) == u


def random_word_in_subgroup(rng, table):
    """Any subgroup element: a random word times the inverse of its coset's
    representative."""
    alphabet = table.alphabet
    raw = [
        Letter(rng.randrange(alphabet.size), rng.choice((1, -1)))
        for _ in range(rng.randrange(0, 12))
    ]
    u = free_reduce(alphabet, raw)
    tr = schreier_transversal(table)
    rep = tr.reps[trace(table, 0, u)]
    return concat_reduce(u, invert(rep))


def test_basis_elements_rewrite_to_themselves():
    rng = random.Random(2023)
    for _ in range(30):
        table = random_table(rng, AB, rng.randrange(1, 7))
        basis = schreier_basis(schreier_transversal(table))
        for position, u in enumerate(basis.elements):
            assert rewrite_in_basis(basis, u) == [(position, 1)]


def test_basis_through_word_case1():
    basis, position, matched_inverse = basis_through_word(TWO, parse_word("aa", AB))
    assert (position, matched_inverse) == (1, False)
    assert [str(u) for u in basis.elements] == ["b", "aa", "abA"]
    assert basis.orientation.flipped == frozenset()
    assert basis.elements[basis.edge_index[(1, 0)]] == parse_word("aa", AB)
    assert fold_verify(basis)


def test_basis_through_word_case2():
    table = regular_table(FiniteQuotientHom(AB, (Perm((1, 0)), Perm((1, 0)))))
    w = parse_word("aB", AB)
    basis, position, matched_inverse = basis_through_word(table, w)
    assert basis.orientation.flipped == frozenset({1})
    assert len(basis.elements) == 3
    assert (position, matched_inverse) == (2, False)
    assert basis.elements[position] == w
    assert fold_verify(basis)


def test_basis_through_single_negative_letter():
    one = regular_table(FiniteQuotientHom(AB, (Perm((0,)), Perm((0,)))))
    w = parse_word("A", AB)
    basis, position, matched_inverse = basis_through_word(one, w)
    assert (position, matched_inverse) == (0, False)
    assert basis.elements[position] == w
    assert fold_verify(basis)
    assert not check_basis(basis)


def test_basis_through_word_errors():
    with pytest.raises(EmptyWord):
        basis_through_word(TWO, parse_word("1", AB))
    with pytest.raises(NotInSubgroup):
        basis_through_word(TWO, parse_word("a", AB))
    with pytest.raises(PrefixesNotSeparated):
        basis_through_word(TWO, parse_word("aaaa", AB))  # |w| > n


def test_basis_through_word_randomized():
    rng = random.Random(8686)
    built = 0
    while built < 60:
        m = rng.randrange(1, 4)
        table = random_table(rng, Alphabet.first(m), rng.randrange(1, 6))
        w = random_subgroup_word(rng, table)
        if w is None:
            continue
        built += 1
        basis, position, _ = basis_through_word(table, w)
        assert basis.elements[position] == w
        assert not check_basis(basis)
        assert fold_verify(basis)
        # the through-word sits on its final edge
        from schreierkit import FreeWord

        final = trace(table, 0, FreeWord(w.alphabet, w.letters[:-1]))
        assert basis.edge_index[(final, w.letters[-1].gen)] == position


def test_fold_verify_rejects_tampered_lists():
    basis = schreier_basis(schreier_transversal(TWO))
    duplicated = SubgroupBasis(
        basis.table,
        basis.transversal,
        basis.orientation,
        basis.elements[:-1] + (basis.elements[0],),
        basis.edge_index,
    )
    assert not fold_verify(duplicated)

    shrunk = SubgroupBasis(
        basis.table, basis.transversal, basis.orientation,
        basis.elements[:-1], basis.edge_index,
    )
    assert not fold_verify(shrunk)

    squared = SubgroupBasis(
        basis.table,
        basis.transversal,
        basis.orientation,
        basis.elements[:-1] + (concat_reduce(basis.elements[-1], basis.elements[-1]),),
        basis.edge_index,
    )
    assert not fold_verify(squared)


def test_serialization_formats():
    tr = schreier_transversal(TWO)
    assert transversal_to_text(tr) == "1\na\n"
    basis = schreier_basis(tr)
    assert basis_to_text(basis) == "index=2 rank=3\nb\naa\nabA\n"
