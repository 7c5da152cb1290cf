import dataclasses
import gc
import random
from dataclasses import replace

import pytest

from schreierkit import (
    BASE,
    Alphabet,
    AlphabetMismatch,
    BadBound,
    BadGenus,
    CosetTable,
    FiniteQuotientHom,
    InvalidTable,
    Letter,
    Presentation,
    RelatorNotKilled,
    SubgroupPresentation,
    SurfaceReport,
    compose,
    crossings,
    free_reduce,
    invert,
    is_reduced,
    iter_low_index_tables,
    parse_word,
    regular_table,
    rewrite_presentation,
    surface_presentation,
    surface_survey,
    table_from_text,
    tree_numbering,
)
from test_perms import word_image
from test_transversal import reference_evaluate_positions
from test_words import signed

AB = Alphabet.of("ab")


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


def perm_order(p):
    q, order = p, 1
    while q != tuple(range(len(p))):
        q, order = compose(q, p), order + 1
    return order


def random_killed_relator(rng, table):
    """A nonempty word acting trivially on every coset: a random word raised
    to the order of its permutation image."""
    alphabet = table.alphabet
    while True:
        raw = [
            Letter(rng.randrange(alphabet.size), rng.choice((1, -1)))
            for _ in range(rng.randrange(1, 4))
        ]
        u = free_reduce(alphabet, raw)
        if len(u) == 0:
            continue
        k = perm_order(word_image(table, u))
        relator = u
        for _ in range(k - 1):
            relator = free_reduce(alphabet, relator.codes + u.codes)
        return relator


def test_surface_presentation_examples():
    torus = surface_presentation(1)
    assert torus.alphabet.names == ("a", "b")
    assert [str(rel) for rel in torus.relators] == ["abAB"]

    genus2 = surface_presentation(2)
    assert genus2.alphabet.size == 4
    assert len(genus2.relators) == 1
    assert len(genus2.relators[0]) == 8
    assert [str(rel) for rel in genus2.relators] == ["abABcdCD"]


def test_surface_presentation_cyclically_reduced():
    for g in range(1, 13):
        relator = surface_presentation(g).relators[0]
        assert len(relator) == 4 * g
        assert is_reduced(relator.codes)
        (g, s), (h, t) = signed(relator.codes[0]), signed(relator.codes[-1])
        assert not (g == h and s == -t)


def test_surface_presentation_bounds():
    with pytest.raises(BadGenus):
        surface_presentation(0)
    with pytest.raises(BadGenus):
        surface_presentation(13)


def test_rewrite_rank_one_power_relator():
    # F(a) realised as <a | a^4> with the index-2 table: basis [aa], and both
    # coset conjugates of the relator rewrite to x0 x0, symbol codes 0 0
    alphabet = Alphabet.of("a")
    pres = Presentation(alphabet, (parse_word("aaaa", alphabet),))
    table = regular_table(FiniteQuotientHom(alphabet, ((1, 0),)))
    sp = rewrite_presentation(pres, table)
    assert sp.generator_count == 1
    assert [str(u) for u in sp.basis.elements] == ["aa"]
    assert sp.relators == ((0, 0), (0, 0))
    assert sp.relator_text(sp.relators[0]) == "x0 x0"


def test_hand_built_empty_relator_prints_as_the_identity():
    # rewrite never yields an empty relator (a closed reduced walk in a
    # folded coset graph leaves the spanning tree), but a presentation built
    # by hand may hold one
    sp = SubgroupPresentation(regular_table(FiniteQuotientHom(AB, ((0,), (0,)))), 2, ((),))
    assert sp.relator_text(()) == "1"
    assert [sp.relator_text(rel) for rel in sp.relators] == ["1"]


def test_rewrite_requires_relators_killed_everywhere():
    # b fixes the base coset but moves coset 1, so it is in the subgroup
    # without its conjugates being there
    table = CosetTable(AB, ((1, 0, 2), (0, 2, 1)))
    pres = Presentation(AB, (parse_word("b", AB),))
    with pytest.raises(RelatorNotKilled) as info:
        rewrite_presentation(pres, table)
    assert info.value.coset in (1, 2)


def test_rewrite_names_first_unkilled_relator_relator_by_relator():
    # ``a`` first moves coset 2 and ``baB`` first moves coset 1, so relator
    # by relator the first failure is (a, 2), coset by coset (baB, 1)
    table = table_from_text("n=4\na: 0 1 3 2\nb: 1 2 0 3\n")
    pres = Presentation(AB, (parse_word("a", AB), parse_word("baB", AB)))
    with pytest.raises(RelatorNotKilled) as info:
        rewrite_presentation(pres, table)
    assert (str(info.value.relator), info.value.coset) == ("a", 2)


def test_rewrite_rejects_other_alphabet():
    abc = Alphabet.of("abc")
    pres = Presentation(abc, (parse_word("abAB", abc),))
    table = table_from_text("n=2\na: 1 0\nb: 0 1\n")
    with pytest.raises(AlphabetMismatch):
        rewrite_presentation(pres, table)


def test_rewrite_counts_genus1_index2():
    pres = surface_presentation(1)
    tables = list(iter_low_index_tables(pres, 2))
    assert len(tables) == 3
    for table in tables:
        sp = rewrite_presentation(pres, table)
        assert sp.generator_count == 3
        assert len(sp.relators) == 2
        assert 1 - sp.generator_count + len(sp.relators) == 2 * (1 - 2 + 1)


def test_rewrite_counts_genus2_index2():
    pres = surface_presentation(2)
    tables = list(iter_low_index_tables(pres, 2))
    assert len(tables) == 15
    for table in tables:
        sp = rewrite_presentation(pres, table)
        assert sp.generator_count == 7
        assert len(sp.relators) == 2


def assert_relators_are_conjugates(pres, table, sp):
    """Each traced relator equals the old conjugate-based rewrite (the
    conjugate's crossings from the base), is freely reduced over the basis
    symbols, and multiplies out to the conjugate."""
    tr = sp.basis.transversal
    numbering = tree_numbering(table)
    i = 0
    for c in range(table.n):
        for rel in pres.relators:
            rep = tr.reps[c]
            codes = rep.codes + rel.codes + invert(rep).codes
            conjugate = free_reduce(table.alphabet, codes)
            relator = sp.relators[i]
            walk = crossings(table, numbering, BASE, conjugate)
            assert walk == (list(relator), BASE)
            pairs = list(map(signed, relator))
            assert all(x[0] != y[0] or x[1] != -y[1] for x, y in zip(pairs, pairs[1:]))
            assert reference_evaluate_positions(sp.basis, relator) == conjugate
            i += 1
    assert i == len(sp.relators)


def test_back_substitution_reduces_to_conjugates():
    pres = surface_presentation(2)
    for table in iter_low_index_tables(pres, 2):
        assert_relators_are_conjugates(pres, table, rewrite_presentation(pres, table))


def test_euler_characteristic_multiplies_randomized():
    rng = random.Random(60902)
    for _ in range(40):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 9)
        table = random_table(rng, Alphabet.first(m), n)
        k = rng.randrange(1, 4)
        relators = tuple(random_killed_relator(rng, table) for _ in range(k))
        pres = Presentation(table.alphabet, relators)
        sp = rewrite_presentation(pres, table)
        assert sp.generator_count == n * (m - 1) + 1
        assert len(sp.relators) == n * k
        assert 1 - sp.generator_count + len(sp.relators) == n * (1 - m + k)
        assert_relators_are_conjugates(pres, table, sp)


def surface_reports(*args, **kwargs):
    return [report for report, _ in surface_survey(*args, **kwargs)]


def test_surface_report_genus2_index2():
    reports = surface_reports(2, 2)
    assert len(reports) == 15
    for report in reports:
        assert report.rho_G1_formula == 2 * 3 + (1 - 2) == 5
        assert report.euler_G == -2
        assert report.euler_G1 == -4
        assert report.rho_G1_counts == 5
        assert report.checks_pass


def test_surface_report_torus_constant_rank_deficiency():
    for n in (1, 2, 3):
        for report in surface_reports(1, n):
            assert report.rho_G1_formula == 1
            assert report.rho_G1_counts == 1
            assert report.checks_pass


def test_surface_report_bounds():
    with pytest.raises(BadBound):
        surface_reports(5, 2)
    with pytest.raises(BadBound):
        surface_reports(2, 7)
    # bounds are overridable; torus subgroups stay cheap at higher genus cap
    assert len(surface_reports(1, 2, max_genus=1)) == 3


def test_surface_survey_shapes():
    survey = surface_survey(2, 2)
    assert iter(survey) is survey  # streamed, not collected
    survey = list(survey)
    assert len(survey) == 15
    tables = list(iter_low_index_tables(surface_presentation(2), 2))
    assert [sp.table for _, sp in survey] == tables
    for report, sp in survey:
        assert sp.table.n == 2
        assert sp.generator_count == 7
        assert report.symbols_paired
        assert report.checks_pass


def test_surface_survey_holds_no_tables():
    def live_tables():
        gc.collect()
        return sum(isinstance(obj, CosetTable) for obj in gc.get_objects())

    before = live_tables()
    survey = surface_survey(2, 4)
    next(survey)
    # 5,275 subgroups: each waits as a packed key, not as a table
    assert live_tables() - before <= 5
    survey.close()


def test_corrupted_crossings_fail_the_pairing_check():
    rng = random.Random(7117)
    for report, sp in surface_survey(2, 3):
        relators = [list(rel) for rel in sp.relators]
        i = rng.randrange(len(relators))
        while not relators[i]:
            i = rng.randrange(len(relators))
        j = rng.randrange(len(relators[i]))
        k = relators[i][j]
        dropped = [list(rel) for rel in relators]
        del dropped[i][j]
        duplicated = [list(rel) for rel in relators]
        duplicated[i].insert(j, k)
        flipped = [list(rel) for rel in relators]
        flipped[i][j] = k ^ 1  # the same symbol, its sign flipped
        for corrupted in (dropped, duplicated, flipped):
            bad = replace(sp, relators=tuple(map(tuple, corrupted)))
            assert not bad.symbols_paired()
            assert not replace(report, symbols_paired=bad.symbols_paired()).checks_pass


def reference_report_values(genus, index, euler_G1, symbols_paired):
    """The eight printed values and the verdict of a surface report, each by
    its defining formula; the verdict keeps all four checks, the two implied
    ones included."""
    rho_G = 2 * genus - 1
    euler_G = 2 - 2 * genus
    rho_G1_formula = index * rho_G + (1 - index)
    rho_G1_counts = 1 - euler_G1
    values = {
        "genus": genus,
        "index": index,
        "rho_G": rho_G,
        "rho_G1_formula": rho_G1_formula,
        "rho_G1_counts": rho_G1_counts,
        "euler_G": euler_G,
        "euler_G1": euler_G1,
        "symbols_paired": symbols_paired,
    }
    verdict = (
        rho_G1_formula == index * rho_G + (1 - index)
        and euler_G1 == index * euler_G
        and rho_G1_counts == rho_G1_formula
        and symbols_paired
    )
    return values, verdict


def report_inputs(report):
    return report.genus, report.index, report.euler_G1, report.symbols_paired


def test_slim_report_matches_the_eight_value_formulas():
    assert [f.name for f in dataclasses.fields(SurfaceReport)] == [
        "genus",
        "index",
        "euler_G1",
        "symbols_paired",
    ]
    surveys = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]
    seen = 0
    for g, n in surveys:
        for report, sp in surface_survey(g, n):
            seen += 1
            assert report_inputs(report)[:2] == (g, n)
            assert report.euler_G1 == 1 - sp.generator_count + len(sp.relators)
            values, _ = reference_report_values(*report_inputs(report))
            assert {name: getattr(report, name) for name in values} == values
            tampered = (
                replace(report, symbols_paired=False),
                replace(report, euler_G1=report.euler_G1 + 1),
                replace(report, euler_G1=report.euler_G1 - 1),
            )
            for r in (report, *tampered):
                _, verdict = reference_report_values(*report_inputs(r))
                assert r.checks_pass == verdict
            assert report.checks_pass
            assert not any(r.checks_pass for r in tampered)
    # 1 + 3 + 4 + 7 torus subgroups, 15 + 220 at genus 2, 63 at genus 3
    assert seen == 313


def test_symbols_paired_on_hand_built_presentations():
    table = CosetTable(AB, ((0,), (0,)))

    def paired(count, *relators):
        return SubgroupPresentation(table, count, relators).symbols_paired()

    # symbol i with sign s is the code 2i + (s < 0): x0 is 0, x0^-1 is 1,
    # x1 is 2, x1^-1 is 3
    assert paired(2, (0, 2, 1, 3))
    assert paired(2, (0, 3), (2,), (1,))
    assert paired(0)
    # x0 twice, so x0^-1 is missing though the length is right
    assert not paired(2, (0, 2, 0, 3))
    # symbol 1 never appears
    assert not paired(2, (0, 1))
    # a code outside 0 .. 2·generator_count - 1 gives False, not an error
    assert not paired(1, (0, 1, 2))
    assert not paired(1, (0, -1))
    # the total length is right in each of these
    assert not paired(1, (0, 3))  # a code out of range
    assert not paired(2, (0, 1, 2, 5))
    assert not paired(1, (0, -2))  # a negative code
    assert not paired(2, (0, 1, -2, 3))
    assert not paired(2, (0, 1), (2, 2))  # a symbol twice
    assert not paired(2, (0, 1, 0, 3))
