"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured runtimes.  All expected values are exact; there are no tolerances.
"""

import random
import time
from pathlib import Path

from schreierkit import (
    BASE,
    Alphabet,
    CosetTable,
    InvalidTable,
    Letter,
    Presentation,
    certificate_to_json,
    compose,
    contains,
    crossings,
    empty_word,
    fold_verify,
    free_reduce,
    invert,
    iter_low_index_tables,
    parse_word,
    rewrite_presentation,
    run_lemma,
    schreier_basis,
    schreier_transversal,
    surface_presentation,
    surface_survey,
    trace,
    tree_numbering,
    verify_certificate,
)
from schreierkit.cli import main
from test_perms import word_image
from test_transversal import reference_evaluate_positions

DATA = Path(__file__).parent / "data"

AB = Alphabet.of("ab")

HIGMAN_ALPHABET = Alphabet.of("abcd")
HIGMAN = Presentation(
    HIGMAN_ALPHABET,
    tuple(parse_word(t, HIGMAN_ALPHABET) for t in ("abABB", "bcBCC", "cdCDD", "daDAA")),
)


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


def random_word(rng, alphabet, max_len):
    raw = [
        Letter(rng.randrange(alphabet.size), rng.choice((1, -1)))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return free_reduce(alphabet, raw)


def test_criterion_1_index_rank_formula_and_folding():
    start = time.perf_counter()
    rng = random.Random(910)
    for i in range(200):
        m = (i % 4) + 1
        n = (i % 12) + 1
        table = random_table(rng, Alphabet.first(m), n)
        basis = schreier_basis(schreier_transversal(table))
        assert len(basis.elements) == n * (m - 1) + 1
        assert fold_verify(basis)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 index-rank formula on 200 random tables: PASS ({elapsed:.2f}s)")


def test_criterion_2_lemma_end_to_end_golden():
    start = time.perf_counter()
    pres = Presentation(AB, (parse_word("aa", AB),))
    r = parse_word("aa", AB)
    cert = run_lemma(pres, r, max_degree=4)
    assert cert is not None
    assert cert.image_order == 2
    assert [str(u) for u in cert.basis.elements] == ["b", "aa", "abA"]
    assert cert.basis.elements[cert.r_position] == r
    assert cert.generator_bound == 2
    assert verify_certificate(cert)
    golden = (DATA / "lemma_aa_certificate.json").read_text()
    assert certificate_to_json(cert) == golden
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 lemma end-to-end, byte-exact certificate: PASS ({elapsed:.2f}s)")


def test_criterion_3_case2_swap():
    start = time.perf_counter()
    pres = Presentation(AB, (parse_word("aB", AB),))
    r = parse_word("aB", AB)
    cert = run_lemma(pres, r, max_degree=4)
    assert cert is not None
    assert r in cert.basis.elements
    assert cert.basis.elements[cert.r_position] == r
    # matched_inverse must agree with the raw final-edge element
    raw = schreier_basis(cert.transversal, cert.basis.flipped).elements[
        cert.r_position
    ]
    assert raw == (invert(r) if cert.matched_inverse else r)
    assert fold_verify(cert.basis)
    assert verify_certificate(cert)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 case-2 swap certificate: PASS ({elapsed:.2f}s)")


def test_criterion_4_higman_negative_control(capsys, tmp_path):
    start = time.perf_counter()
    pres_file = tmp_path / "higman.pres"
    pres_file.write_text(
        "gens: a b c d\nrel: abABB\nrel: bcBCC\nrel: cdCDD\nrel: daDAA\n"
    )
    code = main(
        [
            "witness",
            "--presentation",
            str(pres_file),
            "--relator",
            "abABB",
            "--max-degree",
            "5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert out == "NOTFOUND\n"
    for n in (2, 3, 4, 5):
        assert list(iter_low_index_tables(HIGMAN, n)) == []
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 4 Higman negative control at degree 5: PASS ({elapsed:.2f}s)")


def test_criterion_5_surface_formula(capsys):
    start = time.perf_counter()
    counts = {}
    for g, n in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        survey = list(surface_survey(g, n))
        counts[(g, n)] = len(survey)
        rho_g = 2 * g - 1
        for report, _ in survey:
            assert report.rho_G1_formula == n * rho_g + (1 - n)
            assert report.euler_G == 2 - 2 * g
            assert report.euler_G1 == n * report.euler_G
            assert report.rho_G1_counts == report.rho_G1_formula
            assert report.checks_pass
        code = main(["surface", "--genus", str(g), "--index", str(n)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == f"subgroups={len(survey)} all_checks=pass"
    assert counts[(2, 2)] == 15
    for report, _ in surface_survey(2, 2):
        assert report.rho_G1_formula == 5
        assert report.euler_G1 == -4 == 2 * report.euler_G
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 5 surface formula on {counts}: PASS ({elapsed:.2f}s)")


def _perm_order(p):
    q, order = p, 1
    while q != tuple(range(len(p))):
        q, order = compose(q, p), order + 1
    return order


def _random_killed_relator(rng, table):
    alphabet = table.alphabet
    while True:
        u = random_word(rng, alphabet, 3)
        if len(u) == 0:
            continue
        k = _perm_order(word_image(table, u))
        relator = u
        for _ in range(k - 1):
            relator = free_reduce(alphabet, relator.letters + u.letters)
        return relator


def test_criterion_6_euler_multiplicativity_count_identity():
    rng = random.Random(183)
    for i in range(100):
        m = (i % 3) + 1
        n = (i % 8) + 1
        table = random_table(rng, Alphabet.first(m), n)
        k = (i % 3) + 1
        relators = tuple(_random_killed_relator(rng, table) for _ in range(k))
        pres = Presentation(table.alphabet, relators)
        sp = rewrite_presentation(pres, table)
        assert 1 - sp.generator_count + len(sp.relators) == n * (1 - m + k)
    print("ACCEPTANCE 6 Euler multiplicativity count identity on 100 pairs: PASS")


def test_criterion_7_rewriting_soundness():
    rng = random.Random(509)
    # round trip on 200 random subgroup elements
    checked = 0
    while checked < 200:
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 7)
        table = random_table(rng, Alphabet.first(m), n)
        tr = schreier_transversal(table)
        basis = schreier_basis(tr)
        numbering = tree_numbering(table)
        for _ in range(5):
            u = random_word(rng, table.alphabet, 12)
            rep = tr.reps[trace(table, 0, u)]
            w = free_reduce(table.alphabet, u.letters + invert(rep).letters)
            assert contains(table, w)
            positions, end = crossings(table, numbering, BASE, w)
            assert end == BASE
            assert reference_evaluate_positions(basis, positions) == w
            checked += 1
    # every rewritten relator of the surface grid back-substitutes exactly
    for g, n in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        pres = surface_presentation(g)
        for _, sp in surface_survey(g, n):
            tr = sp.basis.transversal
            i = 0
            for c in range(sp.table.n):
                for rel in pres.relators:
                    letters = tr.reps[c].letters + rel.letters + invert(tr.reps[c]).letters
                    expected = free_reduce(pres.alphabet, letters)
                    assert reference_evaluate_positions(sp.basis, sp.relators[i]) == expected
                    i += 1
    print("ACCEPTANCE 7 rewriting soundness (round trip + back-substitution): PASS")


def test_criterion_8_word_algebra_laws():
    rng = random.Random(9001)
    alphabet = Alphabet.of("abc")
    for _ in range(1000):
        u = random_word(rng, alphabet, 24)
        v = random_word(rng, alphabet, 24)
        w = random_word(rng, alphabet, 24)
        # reduction idempotence
        assert free_reduce(alphabet, u.letters) == u
        # inverse laws
        assert invert(invert(u)) == u
        assert free_reduce(alphabet, u.letters + invert(u).letters) == empty_word(alphabet)
        # concat laws, a product being the reduced concatenation of letters
        uv = free_reduce(alphabet, u.letters + v.letters)
        vw = free_reduce(alphabet, v.letters + w.letters)
        assert free_reduce(alphabet, u.letters + empty_word(alphabet).letters) == u
        assert free_reduce(alphabet, uv.letters + w.letters) == free_reduce(
            alphabet, u.letters + vw.letters
        )
        assert (len(uv) - len(u) - len(v)) % 2 == 0
        # prefix count: each of the len(u) proper initial segments is reduced
        segments = [free_reduce(alphabet, u.letters[:i]) for i in range(len(u))]
        assert [len(p) for p in segments] == list(range(len(u)))
    print("ACCEPTANCE 8 word-algebra laws, 1000 randomized cases: PASS")
