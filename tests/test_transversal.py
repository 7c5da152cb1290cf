import random
from collections import deque
from typing import Sequence

import pytest

from schreierkit import (
    BASE,
    Alphabet,
    AlphabetMismatch,
    CosetTable,
    EmptyWord,
    FiniteQuotientHom,
    FreeWord,
    InvalidTable,
    Letter,
    NotInSubgroup,
    Presentation,
    PrefixesNotSeparated,
    SchreierTransversal,
    SubgroupBasis,
    basis_through_word,
    basis_to_text,
    contains,
    crossings,
    empty_word,
    fold_verify,
    free_reduce,
    invert,
    iter_low_index_tables,
    parse_word,
    regular_table,
    schreier_basis,
    schreier_transversal,
    surface_presentation,
    trace,
    transversal_to_text,
    tree_numbering,
)
from schreierkit.lemma import _basis_invariants, _transversal_valid

AB = Alphabet.of("ab")
TWO = regular_table(FiniteQuotientHom(AB, ((1, 0), (0, 1))))


def random_table(rng, alphabet, n):
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
        if contains(table, w) and separated(table, w):
            return w
    return None


def separated(table, w):
    """Oracle: the initial segments of ``w`` reach pairwise distinct cosets,
    walked here one column lookup at a time."""
    c, seen = 0, {0}
    for g, s in w.letters[:-1]:
        c = table.gen_images[g][c] if s > 0 else table.inverse_images[g][c]
        seen.add(c)
    return len(seen) == len(w)


def initial_segments(w):
    """The empty word up to all but the last letter of ``w``."""
    return [FreeWord(w.alphabet, w.letters[:i]) for i in range(len(w))]


def test_unseeded_transversal_examples():
    one = regular_table(FiniteQuotientHom(AB, ((0,), (0,))))
    assert [str(w) for w in schreier_transversal(one).reps] == ["1"]
    assert [str(w) for w in schreier_transversal(TWO).reps] == ["1", "a"]
    three = CosetTable(AB, ((1, 2, 0), (0, 1, 2)))
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
        assert _transversal_valid(tr)


def test_seeded_transversal():
    tr = schreier_transversal(TWO, parse_word("aa", AB))
    assert [str(w) for w in tr.reps] == ["1", "a"]
    assert _transversal_valid(tr)


def test_seed_errors():
    # the initial segments 1, a, aa of aaa reach the base twice
    with pytest.raises(PrefixesNotSeparated):
        schreier_transversal(TWO, parse_word("aaa", AB))
    with pytest.raises(AlphabetMismatch):
        schreier_transversal(TWO, parse_word("aa", Alphabet.of("abc")))


def test_empty_seed_is_the_unseeded_transversal():
    # the empty word has no initial segment but itself: the base alone
    assert schreier_transversal(TWO, empty_word(AB)) == schreier_transversal(TWO)
    with pytest.raises(AlphabetMismatch):
        schreier_transversal(TWO, empty_word(Alphabet.of("abc")))


def test_seeded_transversal_random():
    rng = random.Random(909)
    for _ in range(50):
        table = random_table(rng, AB, rng.randrange(2, 7))
        w = random_subgroup_word(rng, table)
        if w is None:
            continue
        tr = schreier_transversal(table, w)
        assert _transversal_valid(tr)
        for p in initial_segments(w):
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
        tr = schreier_transversal(table, w)
        seeded = {trace(table, 0, p): len(p) for p in initial_segments(w)}
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
    one = regular_table(FiniteQuotientHom(AB, ((0,), (0,))))
    rose = schreier_basis(schreier_transversal(one))
    assert [str(u) for u in rose.elements] == ["a", "b"]

    basis = schreier_basis(schreier_transversal(TWO))
    assert [str(u) for u in basis.elements] == ["b", "aa", "abA"]
    assert basis.edge_index == {(0, 1): 0, (1, 0): 1, (1, 1): 2}

    rank_one = Alphabet.of("a")
    flip = regular_table(FiniteQuotientHom(rank_one, ((1, 0),)))
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
        assert _basis_invariants(basis)
        assert fold_verify(basis)


def rewrite(table, w):
    """``w`` over the basis of ``schreier_basis(schreier_transversal(table))``:
    its crossings from the base, and the coset where it ends."""
    numbering = tree_numbering(table)
    return crossings(table, numbering, BASE, w)


def reference_evaluate_positions(b, positions):
    """Oracle: multiply out a signed position sequence over the basis
    elements."""
    letters = []
    for position, sign in positions:
        factor = b.elements[position]
        letters += factor.letters if sign > 0 else invert(factor).letters
    return free_reduce(b.table.alphabet, letters)


def test_rewrite_in_basis_examples():
    assert rewrite(TWO, empty_word(AB)) == ([], BASE)
    assert rewrite(TWO, parse_word("aa", AB)) == ([(1, 1)], BASE)
    # aa * (abA)^-1 crosses the aa edge forward and the abA edge backward
    w = free_reduce(AB, parse_word("aa", AB).letters + invert(parse_word("abA", AB)).letters)
    assert str(w) == "aaaBA"
    assert rewrite(TWO, w) == ([(1, 1), (2, -1)], BASE)
    basis = schreier_basis(schreier_transversal(TWO))
    assert reference_evaluate_positions(basis, [(1, 1), (2, -1)]) == w
    # a word outside the subgroup ends away from the base
    assert rewrite(TWO, parse_word("a", AB)) == ([], 1)


def test_schreier_basis_rejects_representatives_over_other_alphabet():
    abc = Alphabet.of("abc")
    tr = SchreierTransversal(TWO, (empty_word(abc), parse_word("a", abc)))
    with pytest.raises(AlphabetMismatch):
        schreier_basis(tr)


def test_rewrite_roundtrip_randomized():
    rng = random.Random(31337)
    for _ in range(60):
        table = random_table(rng, Alphabet.first(rng.randrange(1, 4)), rng.randrange(1, 7))
        basis = schreier_basis(schreier_transversal(table))
        for _ in range(5):
            u = random_word_in_subgroup(rng, table)
            seq, end = rewrite(table, u)
            assert end == BASE
            assert reference_evaluate_positions(basis, seq) == u


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
    return free_reduce(alphabet, u.letters + invert(rep).letters)


def test_basis_elements_rewrite_to_themselves():
    rng = random.Random(2023)
    for _ in range(30):
        table = random_table(rng, AB, rng.randrange(1, 7))
        basis = schreier_basis(schreier_transversal(table))
        for position, u in enumerate(basis.elements):
            assert rewrite(table, u) == ([(position, 1)], BASE)


def test_basis_through_word_case1():
    basis, position = basis_through_word(TWO, parse_word("aa", AB))
    assert position == 1
    assert [str(u) for u in basis.elements] == ["b", "aa", "abA"]
    assert basis.flipped == frozenset()
    assert basis.elements[basis.edge_index[(1, 0)]] == parse_word("aa", AB)
    assert fold_verify(basis)


def test_basis_through_word_case2():
    table = regular_table(FiniteQuotientHom(AB, ((1, 0), (1, 0))))
    w = parse_word("aB", AB)
    basis, position = basis_through_word(table, w)
    assert basis.flipped == frozenset({1})
    assert len(basis.elements) == 3
    assert position == 2
    assert basis.elements[position] == w
    assert fold_verify(basis)


def test_basis_through_single_negative_letter():
    one = regular_table(FiniteQuotientHom(AB, ((0,), (0,))))
    w = parse_word("A", AB)
    basis, position = basis_through_word(one, w)
    assert position == 0
    assert basis.elements[position] == w
    assert fold_verify(basis)
    assert _basis_invariants(basis)


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
        basis, position = basis_through_word(table, w)
        assert basis.elements[position] == w
        assert _basis_invariants(basis)
        assert fold_verify(basis)
        # the through-word sits on its final edge
        final = trace(table, 0, FreeWord(w.alphabet, w.letters[:-1]))
        assert basis.edge_index[(final, w.letters[-1].gen)] == position


def test_basis_through_word_checks_membership_first():
    # aaa neither fixes the base nor separates its prefixes 1, a, aa
    with pytest.raises(NotInSubgroup):
        basis_through_word(TWO, parse_word("aaa", AB))


def closed_path_table(rng, alphabet, n):
    """A table of index ``n`` and a word whose path from the base visits
    every coset once and returns: coset ``i`` steps to ``i+1`` (mod ``n``)
    along the word's ``i``-th letter, and the columns are completed at
    random.  The word is cyclically reduced, so the path's edges never
    give one coset two images under a generator."""
    letters = [Letter(rng.randrange(alphabet.size), rng.choice((1, -1)))]
    while len(letters) < n:
        ell = Letter(rng.randrange(alphabet.size), rng.choice((1, -1)))
        closing = len(letters) == n - 1
        if ell != letters[-1].inverse() and not (closing and ell == letters[0].inverse()):
            letters.append(ell)
    w = FreeWord(alphabet, tuple(letters))
    images: list[dict[int, int]] = [{} for _ in range(alphabet.size)]
    for i, (g, s) in enumerate(w.letters):
        src, dst = (i, (i + 1) % n) if s > 0 else ((i + 1) % n, i)
        images[g][src] = dst
    columns = []
    for column in images:
        free = [d for d in range(n) if d not in column.values()]
        rng.shuffle(free)
        columns.append(tuple(column[c] if c in column else free.pop() for c in range(n)))
    return CosetTable(alphabet, tuple(columns)), w


def test_long_through_word():
    """Paths through every coset of a large table: the reps match the
    prefix-list oracle and the word is its own basis element."""
    n = 2000
    cyclic = CosetTable(Alphabet.of("a"), (tuple((c + 1) % n for c in range(n)),))
    cases = [(cyclic, parse_word("a" * n, cyclic.alphabet))]
    cases.append(closed_path_table(random.Random(4242), AB, 300))
    for table, w in cases:
        assert contains(table, w) and separated(table, w)
        tr = schreier_transversal(table, w)
        assert tr.reps == reference_schreier_transversal(table, initial_segments(w)).reps
        basis, position = basis_through_word(table, w)
        assert basis.elements[position] == w


def test_fold_verify_rejects_tampered_lists():
    basis = schreier_basis(schreier_transversal(TWO))
    duplicated = SubgroupBasis(
        basis.table,
        basis.transversal,
        basis.flipped,
        basis.elements[:-1] + (basis.elements[0],),
        basis.edge_index,
    )
    assert not fold_verify(duplicated)

    shrunk = SubgroupBasis(
        basis.table, basis.transversal, basis.flipped,
        basis.elements[:-1], basis.edge_index,
    )
    assert not fold_verify(shrunk)

    squared = SubgroupBasis(
        basis.table,
        basis.transversal,
        basis.flipped,
        basis.elements[:-1] + (free_reduce(AB, basis.elements[-1].letters * 2),),
        basis.edge_index,
    )
    assert not fold_verify(squared)

    # in the subgroup and of the right count, but bb folds onto b: the
    # folded graph has the right vertex count and too few edges
    assert not fold_verify(with_elements(basis, [parse_word(w, AB) for w in ("b", "aa", "bb")]))

    # over one coset, aB twice folds to two edges joining two vertices: the
    # right edge count with a vertex too many
    one = regular_table(FiniteQuotientHom(AB, ((0,), (0,))))
    rose = schreier_basis(schreier_transversal(one))
    assert not fold_verify(with_elements(rose, [parse_word("aB", AB)] * 2))

    # a basis of the other index-2 subgroup, whose coset graph has the same
    # counts: only the membership of its elements tells them apart
    other = schreier_basis(schreier_transversal(CosetTable(AB, ((0, 1), (1, 0)))))
    assert fold_verify(other)
    assert not fold_verify(with_elements(basis, other.elements))


class _ReferenceUnionFind:
    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def add(self, x: int) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        self.parent[self.find(x)] = self.find(y)


def reference_fold_verify(b: SubgroupBasis) -> bool:
    """Oracle: the quadratic fold that rescans every edge after each fold."""
    t = b.table
    uf = _ReferenceUnionFind()
    base = 0
    uf.add(base)
    next_vertex = 1
    edges: list[tuple[int, int, int]] = []  # (src, gen, dst), src --g--> dst
    for w in b.elements:
        if len(w) == 0:
            return False
        current = base
        for i, (g, s) in enumerate(w.letters):
            target = base if i == len(w.letters) - 1 else next_vertex
            if target == next_vertex:
                uf.add(target)
                next_vertex += 1
            if s > 0:
                edges.append((current, g, target))
            else:
                edges.append((target, g, current))
            current = target

    rank_dropped = False
    while True:
        canon = [(uf.find(u), g, uf.find(v)) for u, g, v in edges]
        out_seen: dict[tuple[int, int], int] = {}
        in_seen: dict[tuple[int, int], int] = {}
        fold_at: tuple[int, int, int, int] | None = None  # (idx_keep, idx_drop, a, b)
        for idx, (u, g, v) in enumerate(canon):
            if (u, g) in out_seen:
                other = out_seen[(u, g)]
                fold_at = (other, idx, canon[other][2], v)
                break
            out_seen[(u, g)] = idx
            if (g, v) in in_seen:
                other = in_seen[(g, v)]
                fold_at = (other, idx, canon[other][0], u)
                break
            in_seen[(g, v)] = idx
        if fold_at is None:
            break
        _, drop, a, c = fold_at
        if uf.find(a) == uf.find(c):
            rank_dropped = True
        else:
            uf.union(a, c)
        edges.pop(drop)
    if rank_dropped:
        return False

    # folded graph: deterministic partial action
    out_map: dict[tuple[int, int], int] = {}
    vertices = {uf.find(base)}
    for u, g, v in edges:
        u, v = uf.find(u), uf.find(v)
        vertices.update((u, v))
        out_map[(u, g)] = v
    if len(vertices) != t.n:
        return False
    # match against the coset graph by following generators from the base
    mapping = {uf.find(base): BASE}
    queue = deque([uf.find(base)])
    while queue:
        u = queue.popleft()
        c = mapping[u]
        for g in range(t.alphabet.size):
            v = out_map.get((u, g))
            if v is None:
                return False  # coset graph is complete; folded graph is not
            expected = t.step(c, g, 1)
            if v in mapping:
                if mapping[v] != expected:
                    return False
            else:
                mapping[v] = expected
                queue.append(v)
    if len(mapping) != t.n or len(set(mapping.values())) != t.n:
        return False
    return True


def with_elements(basis, elements):
    return SubgroupBasis(
        basis.table, basis.transversal, basis.flipped, tuple(elements),
        basis.edge_index,
    )


def nielsen_move(rng, elements):
    """Replace one element by its product with another (or that one's
    inverse) on a random side: a move that keeps a free basis a basis."""
    i, j = rng.sample(range(len(elements)), 2)
    other = elements[j] if rng.random() < 0.5 else invert(elements[j])
    alphabet = other.alphabet
    if rng.random() < 0.5:
        elements[i] = free_reduce(alphabet, elements[i].letters + other.letters)
    else:
        elements[i] = free_reduce(alphabet, other.letters + elements[i].letters)


def tampered_lists(rng, table, elements):
    """Variants of the element list, each with whether it is known to be a
    basis still.  Kept a basis: the list itself, one element inverted,
    shuffled, and (with two elements or more) one element conjugated by
    another and a chain of Nielsen moves.  Tampered: dropped, duplicated,
    squared, a product substituted, a product appended, the empty word
    substituted and (when the index is above 1) a non-member substituted."""
    elements = list(elements)
    k = len(elements)
    i, j = rng.randrange(k), rng.randrange(k)
    alphabet = table.alphabet
    variants = [(elements, True)]
    variants.append((elements[:i] + elements[i + 1:], False))
    variants.append((elements + [elements[i]], False))
    squared = list(elements)
    squared[i] = free_reduce(alphabet, elements[i].letters * 2)
    variants.append((squared, False))
    product = list(elements)
    product[i] = free_reduce(alphabet, elements[i].letters + elements[j].letters)
    variants.append((product, False))
    inverted = list(elements)
    inverted[i] = invert(elements[i])
    variants.append((inverted, True))
    shuffled = list(elements)
    rng.shuffle(shuffled)
    variants.append((shuffled, True))
    variants.append((elements + [product[i]], False))
    emptied = list(elements)
    emptied[i] = empty_word(alphabet)
    variants.append((emptied, False))
    # a generator that moves the base exists exactly when the index is above 1
    movers = [g for g in range(table.alphabet.size) if table.step(BASE, g, 1) != BASE]
    if movers:
        outside = list(elements)
        letter = Letter(rng.choice(movers), 1)
        outside[j] = free_reduce(alphabet, elements[j].letters + (letter,))
        variants.append((outside, False))
    if k >= 2:
        a, c = rng.sample(range(k), 2)
        conjugated = list(elements)
        conjugated[a] = free_reduce(
            alphabet, elements[c].letters + elements[a].letters + invert(elements[c]).letters
        )
        variants.append((conjugated, True))
        chained = list(elements)
        for _ in range(rng.randrange(2, 7)):
            nielsen_move(rng, chained)
        variants.append((chained, True))
    return variants


def test_fold_verify_matches_reference_fold():
    rng = random.Random(6060)
    verdicts = {True: 0, False: 0}
    for _ in range(60):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 31)
        table = random_table(rng, Alphabet.first(m), n)
        bases = [schreier_basis(schreier_transversal(table))]
        w = random_subgroup_word(rng, table, max_tries=200)
        if w is not None:
            bases.append(basis_through_word(table, w)[0])
        for basis in bases:
            for elements, keeps_basis in tampered_lists(rng, table, basis.elements):
                candidate = with_elements(basis, elements)
                verdict = fold_verify(candidate)
                assert verdict == reference_fold_verify(candidate)
                verdicts[verdict] += 1
                if keeps_basis:
                    assert verdict
                if len(elements) > len(basis.elements):
                    assert not verdict  # a dependent list must drop rank
        # a basis of another subgroup of the same index
        stranger = schreier_basis(schreier_transversal(random_table(rng, table.alphabet, n)))
        candidate = with_elements(bases[0], stranger.elements)
        assert fold_verify(candidate) == reference_fold_verify(candidate)
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_fold_verify_when_a_merge_absorbs_the_base():
    # b, aa, abA with b conjugated by aa: reading aa after aabAA merges the
    # base vertex into the one two a-steps along the first loop, so the
    # last element must be read from the merged vertex
    basis = schreier_basis(schreier_transversal(TWO))
    assert [str(u) for u in basis.elements] == ["b", "aa", "abA"]
    conjugated = with_elements(basis, [parse_word(w, AB) for w in ("aabAA", "aa", "abA")])
    assert fold_verify(conjugated)
    assert reference_fold_verify(conjugated)


def test_fold_verify_large_index():
    rng = random.Random(2000)
    table = random_table(rng, AB, 2000)
    basis = schreier_basis(schreier_transversal(table))
    assert fold_verify(basis)
    extra = free_reduce(AB, basis.elements[0].letters + basis.elements[1].letters)
    assert not fold_verify(with_elements(basis, basis.elements + (extra,)))


def test_fold_verify_rejects_other_alphabet():
    basis = schreier_basis(schreier_transversal(TWO))
    abc = Alphabet.of("abc")
    foreign = [parse_word(text, abc) for text in ("b", "Ca", "abA")]
    with pytest.raises(AlphabetMismatch):
        fold_verify(with_elements(basis, foreign))


def test_fold_verify_decides_wrong_count_before_alphabets():
    """A list of the wrong length is rejected before any element is read,
    so a foreign element in it does not raise."""
    basis = schreier_basis(schreier_transversal(TWO))
    elements = list(basis.elements) + [parse_word("Ca", Alphabet.of("abc"))]
    assert not fold_verify(with_elements(basis, elements))


THREE = CosetTable(AB, ((1, 2, 0), (0, 1, 2)))


def transversal_of(table, *texts):
    return SchreierTransversal(table, tuple(parse_word(text, table.alphabet) for text in texts))


def test_check_transversal_conditions():
    assert _transversal_valid(transversal_of(THREE, "1", "a", "A"))
    # one representative per coset
    assert not _transversal_valid(transversal_of(THREE, "1", "a"))
    one = regular_table(FiniteQuotientHom(AB, ((0,), (0,))))
    assert not _transversal_valid(transversal_of(one, "b"))
    assert not _transversal_valid(transversal_of(THREE, "1", "a", "1"))
    reps = (empty_word(AB), parse_word("a", Alphabet.of("abc")), parse_word("A", AB))
    assert not _transversal_valid(SchreierTransversal(THREE, reps))
    # bA reaches coset 2, but b represents no coset: the set is not prefix-closed
    assert not _transversal_valid(transversal_of(THREE, "1", "a", "bA"))


def test_check_basis_conditions():
    basis = schreier_basis(schreier_transversal(TWO))
    assert _basis_invariants(basis)

    def elements(*texts):
        return with_elements(basis, [parse_word(text, AB) for text in texts])

    # too few elements, and the edge index numbers three positions
    assert not _basis_invariants(elements("b", "aa"))
    assert not _basis_invariants(elements("b", "aa", "b"))
    assert not _basis_invariants(elements("b", "aa", "1"))
    assert not _basis_invariants(elements("b", "aa", "a"))
    renumbered = SubgroupBasis(
        basis.table, basis.transversal, basis.flipped, basis.elements,
        {**basis.edge_index, (1, 1): 5},
    )
    assert not _basis_invariants(renumbered)


def reference_check_transversal(tr: SchreierTransversal) -> list[str]:
    """Oracle: the checker that traces every representative and looks each
    one's prefix up in the set of representatives."""
    failures: list[str] = []
    t = tr.table
    if len(tr.reps) != t.n:
        return [f"expected {t.n} representatives, found {len(tr.reps)}"]
    if len(tr.reps[BASE]) != 0:
        failures.append("base representative is not the empty word")
    pool = {w.letters for w in tr.reps if w.alphabet == t.alphabet}
    for c, w in enumerate(tr.reps):
        if w.alphabet != t.alphabet:
            failures.append(f"representative {c} uses a different alphabet")
            continue
        if trace(t, BASE, w) != c:
            failures.append(f"representative {w} does not trace to coset {c}")
        if len(w) > 0 and w.letters[:-1] not in pool:
            failures.append(f"representative set is not prefix-closed at {w}")
    return failures


def tampered_transversals(rng, tr):
    """The transversal itself plus tampered variants: one representative
    replaced by another's plus a letter (valid when it lands on a leaf's
    coset) or by a short random word, two swapped, a nonempty base, one
    dropped, one appended, and one using a generator the table lacks."""
    t = tr.table
    alphabet = t.alphabet
    reps = list(tr.reps)
    n = len(reps)
    c, d = rng.randrange(n), rng.randrange(n)

    def random_letter():
        return Letter(rng.randrange(alphabet.size), rng.choice((1, -1)))

    letter = random_letter()
    variants = [reps]
    extended = list(reps)
    extended[c] = free_reduce(alphabet, reps[d].letters + (letter,))
    variants.append(extended)
    scrambled = list(reps)
    scrambled[c] = free_reduce(alphabet, [random_letter() for _ in range(rng.randrange(4))])
    variants.append(scrambled)
    swapped = list(reps)
    swapped[c], swapped[d] = reps[d], reps[c]
    variants.append(swapped)
    based = list(reps)
    based[BASE] = FreeWord(alphabet, (letter,))
    variants.append(based)
    variants.append(reps[:c] + reps[c + 1:])
    variants.append(reps + [reps[d]])
    wider = Alphabet.first(alphabet.size + 1)
    foreign = list(reps)
    foreign[c] = FreeWord(wider, reps[c].letters + (Letter(alphabet.size, 1),))
    variants.append(foreign)
    return [SchreierTransversal(t, tuple(v)) for v in variants]


def test_check_transversal_matches_reference():
    rng = random.Random(3131)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        table = random_table(rng, Alphabet.first(rng.randrange(1, 4)), rng.randrange(1, 13))
        transversals = [schreier_transversal(table)]
        w = random_subgroup_word(rng, table, max_tries=200)
        if w is not None:
            transversals.append(schreier_transversal(table, w))
        for tr in transversals:
            for candidate in tampered_transversals(rng, tr):
                verdict = _transversal_valid(candidate)
                assert verdict == (not reference_check_transversal(candidate))
                verdicts[verdict] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_serialization_formats():
    tr = schreier_transversal(TWO)
    assert transversal_to_text(tr) == "1\na\n"
    basis = schreier_basis(tr)
    assert basis_to_text(basis) == "index=2 rank=3\nb\naa\nabA\n"


# ---------------------------------------------------------------------------
# the eager word-building transversal and basis, kept as the oracle
# ---------------------------------------------------------------------------


def reference_schreier_transversal(
    t: CosetTable, seed: Sequence[FreeWord] | None = None
) -> SchreierTransversal:
    """Oracle: the transversal as built before the word-free spanning tree,
    one representative word per coset extended letter by letter.

    Build a Schreier transversal, optionally around a seeded prefix path.

    Every seed word becomes the representative of its coset; the seed must
    be prefix-closed and its words must trace to pairwise distinct cosets.
    Remaining cosets are filled breadth-first from the seeded cosets (in
    seed order), extending existing representatives by one letter and
    visiting letters by generator index ascending, sign +1 before -1; the
    first arrival fixes the representative.  Unseeded representatives are
    therefore of minimal length among the words reaching their coset.
    """
    n = t.n
    reps: list[FreeWord | None] = [None] * n
    queue: deque[int] = deque()
    if seed:
        words = list(seed)
        pool = set(words)
        for w in words:
            if w.alphabet != t.alphabet:
                raise AlphabetMismatch("seed word alphabet differs from table alphabet")
            assert len(w) == 0 or FreeWord(w.alphabet, w.letters[:-1]) in pool, (
                f"seed is not prefix-closed: missing prefix of {w}"
            )
        for w in words:
            c = trace(t, BASE, w)
            assert reps[c] is None, f"seed words {reps[c]} and {w} both trace to coset {c}"
            reps[c] = w
            queue.append(c)
    else:
        reps[BASE] = empty_word(t.alphabet)
        queue.append(BASE)
    while queue:
        c = queue.popleft()
        rep = reps[c]
        assert rep is not None
        for g in range(t.alphabet.size):
            for s in (1, -1):
                d = t.step(c, g, s)
                if reps[d] is None:
                    reps[d] = free_reduce(t.alphabet, rep.letters + (Letter(g, s),))
                    queue.append(d)
    return SchreierTransversal(t, tuple(reps))  # type: ignore[arg-type]


def reference_tree_edges(tr: SchreierTransversal, flipped: frozenset[int]) -> set[tuple[int, int]]:
    """Edges consumed by the representatives' final letters, keyed by
    (source coset, generator) along ``g``, or along ``g^-1`` when ``g`` is
    flipped."""
    t = tr.table
    tree: set[tuple[int, int]] = set()
    for c in range(t.n):
        w = tr.reps[c]
        if len(w) == 0:
            continue
        g, s = w.letters[-1]
        parent = t.step(c, g, -s)
        if (s > 0) != (g in flipped):
            tree.add((parent, g))
        else:
            tree.add((c, g))
    return tree


def reference_schreier_basis(
    tr: SchreierTransversal, flipped: frozenset[int] = frozenset()
) -> SubgroupBasis:
    """Oracle: the basis as read off before the shared edge numbering.

    Read off the subgroup basis from a transversal.

    Each non-tree edge ``(c, g)`` contributes the element
    ``rep(c) · g^e · rep(c · g^e)^-1``, with ``e = -1`` when ``g`` is
    flipped and ``e = 1`` otherwise; enumeration order is coset ascending, then
    generator ascending.  All such elements are nonempty and pairwise
    distinct, and there are exactly ``n·(m-1) + 1`` of them.
    """
    t = tr.table
    tree = reference_tree_edges(tr, flipped)
    elements: list[FreeWord] = []
    edge_index: dict[tuple[int, int], int] = {}
    for c in range(t.n):
        for g in range(t.alphabet.size):
            if (c, g) in tree:
                continue
            e = -1 if g in flipped else 1
            d = t.step(c, g, e)
            u = free_reduce(
                t.alphabet, tr.reps[c].letters + (Letter(g, e),) + invert(tr.reps[d]).letters
            )
            edge_index[(c, g)] = len(elements)
            elements.append(u)
    return SubgroupBasis(t, tr, flipped, tuple(elements), edge_index)


def test_words_match_eager_reference():
    """Representatives, elements and edge numbering agree with the eager
    construction on random tables, seeded and unseeded, unflipped and with
    random flips, and for the flipped bases that ``basis_through_word``
    builds for a negative last letter."""
    rng = random.Random(6161)
    seeded = through_flipped = 0
    for _ in range(150):
        m = rng.randrange(1, 4)
        table = random_table(rng, Alphabet.first(m), rng.randrange(1, 31))
        throughs = [None]
        w = random_subgroup_word(rng, table, max_tries=200)
        if w is not None:
            throughs.append(w)
            seeded += 1
        for through in throughs:
            tr = schreier_transversal(table, through)
            seed = None if through is None else initial_segments(through)
            expected = reference_schreier_transversal(table, seed)
            assert tr.reps == expected.reps
            flipped = frozenset(g for g in range(m) if rng.random() < 0.5)
            flip_sets = [frozenset(), flipped]
            if through is not None and through.letters[-1].sign < 0:
                flip_sets.append(frozenset({through.letters[-1].gen}))
                assert basis_through_word(table, through)[0] == schreier_basis(
                    tr, flip_sets[-1]
                )
                through_flipped += 1
            for flips in flip_sets:
                basis = schreier_basis(tr, flips)
                oracle = reference_schreier_basis(expected, flips)
                assert basis.elements == oracle.elements
                assert basis.edge_index == oracle.edge_index
                assert list(basis.edge_index) == list(oracle.edge_index)
    assert seeded > 50
    assert through_flipped > 20


def reference_crossings(
    t: CosetTable,
    edge_index: dict[tuple[int, int], int],
    start: int,
    w: FreeWord,
) -> tuple[list[tuple[int, int]], int]:
    """Oracle: the walker as it read the ``(coset, generator)`` keyed
    ``SubgroupBasis.edge_index`` of an unflipped basis."""
    out: list[tuple[int, int]] = []
    c = start
    for g, s in w.letters:
        d = t.step(c, g, s)
        if s > 0:
            key, sign = (c, g), 1
        else:
            key, sign = (d, g), -1
        position = edge_index.get(key)
        if position is not None:
            out.append((position, sign))
        c = d
    return out, c


def test_crossings_match_reference_walker():
    """The walker over the flat numbering gives the reference's positions
    and end coset for random reduced words from every coset, over the
    unflipped basis of the plain tree and of a tree seeded by a subgroup
    word, each numbered slot by slot from the basis's ``edge_index``."""
    rng = random.Random(4242)
    seeded = 0
    for _ in range(120):
        m = rng.randrange(1, 4)
        alphabet = Alphabet.first(m)
        table = random_table(rng, alphabet, rng.randrange(1, 13))
        bases = [schreier_basis(schreier_transversal(table))]
        w = random_subgroup_word(rng, table, max_tries=200)
        if w is not None:
            bases.append(schreier_basis(schreier_transversal(table, w)))
            seeded += 1
        for basis in bases:
            numbering = flat_numbering(table, basis.edge_index)
            for start in range(table.n):
                for _ in range(4):
                    raw = [
                        Letter(rng.randrange(m), rng.choice((1, -1)))
                        for _ in range(rng.randrange(16))
                    ]
                    word = free_reduce(alphabet, raw)
                    assert crossings(table, numbering, start, word) == reference_crossings(
                        table, basis.edge_index, start, word
                    )
    assert seeded > 40


def flat_numbering(
    t: CosetTable, edge_index: dict[tuple[int, int], int]
) -> list[int | None]:
    """``edge_index`` laid out as :func:`tree_numbering` lays out its
    numbers: slot ``c·m + g`` holds the number of edge ``(c, g)``, or
    ``None`` for a tree edge."""
    m = t.alphabet.size
    return [edge_index.get(divmod(slot, m)) for slot in range(t.n * m)]


def last_letters(tr: SchreierTransversal):
    """The last letter of each representative, ``None`` at the base."""
    return tuple(w.letters[-1] if w.letters else None for w in tr.reps)


def reference_tree_letters(t: CosetTable, through: FreeWord | None = None):
    """Oracle: the transversal's breadth-first search written plainly, one
    ``t.step`` per letter, the seed path first."""
    last: dict[int, tuple[int, int] | None] = {BASE: None}
    queue = deque([BASE])
    if through is not None:
        c = BASE
        for g, s in through.letters[:-1]:
            c = t.step(c, g, s)
            last[c] = (g, s)
            queue.append(c)
    while queue:
        c = queue.popleft()
        for g in range(t.alphabet.size):
            for s in (1, -1):
                d = t.step(c, g, s)
                if d not in last:
                    last[d] = (g, s)
                    queue.append(d)
    return tuple(last[c] for c in range(t.n))


def renumbered(rng, t: CosetTable) -> CosetTable:
    """The same subgroup's table with the cosets other than the base
    relabelled at random, so its numbering is not the canonical one."""
    new = [BASE] + rng.sample(range(1, t.n), t.n - 1)
    columns = []
    for column in t.gen_images:
        image = [0] * t.n
        for c, d in enumerate(column):
            image[new[c]] = new[d]
        columns.append(tuple(image))
    return CosetTable(t.alphabet, tuple(columns))


def test_tree_numbering_matches_three_call_idiom():
    """``tree_numbering`` lays out the ``edge_index`` of the reference
    basis of the reference transversal, and the representatives' last
    letters, seeded or not, are those of a plain breadth-first search, on
    enumerated tables (surface genus 2 at index 3, the free group of rank 2
    at index 4), regular tables of random homomorphisms, and renumbered
    copies of both."""
    rng = random.Random(2323)
    tables = list(iter_low_index_tables(surface_presentation(2), 3, max_index=3))
    tables += iter_low_index_tables(Presentation(AB, ()), 4)
    for _ in range(60):
        alphabet = Alphabet.first(rng.randrange(1, 4))
        degree = rng.randrange(1, 5)
        images = tuple(tuple(rng.sample(range(degree), degree)) for _ in alphabet.names)
        tables.append(regular_table(FiniteQuotientHom(alphabet, images)))
    tables += [renumbered(rng, t) for t in tables if t.n > 2]
    seeded = 0
    for table in tables:
        oracle = reference_schreier_basis(reference_schreier_transversal(table))
        assert tree_numbering(table) == flat_numbering(table, oracle.edge_index)
        assert last_letters(schreier_transversal(table)) == reference_tree_letters(table)
        through = random_subgroup_word(rng, table, max_tries=50)
        if through is not None:
            assert last_letters(schreier_transversal(table, through)) == (
                reference_tree_letters(table, through)
            )
            seeded += 1
    assert len(tables) > 600
    assert seeded > 300
