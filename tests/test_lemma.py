import dataclasses
import gc
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreierkit import (
    BASE,
    Alphabet,
    AlphabetMismatch,
    BadBound,
    CertificateFormatError,
    CosetTable,
    EmptyWord,
    FiniteQuotientHom,
    FreeWord,
    ImageTooLarge,
    LemmaCertificate,
    Letter,
    ParseError,
    Presentation,
    SchreierTransversal,
    SubgroupBasis,
    VerificationResult,
    certificate_from_json,
    certificate_to_json,
    compose,
    cosets,
    empty_word,
    find_separating_quotient,
    fold_verify,
    free_reduce,
    inverse,
    invert,
    lemma,
    parse_word,
    regular_table,
    run_lemma,
    schreier_basis,
    verify_certificate,
)
from schreierkit.lemma import (
    DEFAULT_MAX_DEGREE,
    _centraliser,
    _class_minima,
    _orbit_minima,
    _symmetric,
    _Symmetric,
)
from test_cosets import walk
from test_perms import step, word_image
from test_words import letters, signed
from test_transversal import reference_check_transversal

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")
ABCD = Alphabet.of("abcd")
AA_PRES = Presentation(AB, (parse_word("aa", AB),))
AA_REL = parse_word("aa", AB)

HIGMAN_ALPHABET = ABCD
HIGMAN_RELATORS = tuple(
    parse_word(t, HIGMAN_ALPHABET) for t in ("abABB", "bcBCC", "cdCDD", "daDAA")
)
HIGMAN = Presentation(HIGMAN_ALPHABET, HIGMAN_RELATORS)


def brute_force_first_hom(p, r, max_degree):
    """Oracle: plain nested lexicographic enumeration, no pruning."""
    for degree in range(1, max_degree + 1):
        perms = list(itertools.permutations(range(degree)))
        for assignment in itertools.product(perms, repeat=p.alphabet.size):
            h = FiniteQuotientHom(p.alphabet, assignment)
            if any(word_image(h, w) != tuple(range(degree)) for w in p.relators + (r,)):
                continue
            images = [word_image(h, FreeWord(r.alphabet, r.codes[:i])) for i in range(len(r))]
            if len(set(images)) == len(images):
                return h
    return None


def test_find_separating_quotient_aa():
    h = find_separating_quotient(AA_PRES, AA_REL, 4)
    assert h is not None
    assert h.degree == 2
    assert h.gen_images == ((1, 0), (0, 1))
    assert h == brute_force_first_hom(AA_PRES, AA_REL, 4)


def _pres(alphabet, *relators):
    return Presentation(alphabet, tuple(parse_word(t, alphabet) for t in relators))


SEARCH_CASES = [
    (_pres(AB), "ab", 3),
    (_pres(AB), "aB", 3),
    (_pres(AB, "abAB"), "abAB", 3),
    (_pres(AB, "aB"), "aB", 3),
    (_pres(Alphabet.of("a")), "aaa", 3),
    # found, two generators
    (_pres(AB), "abAB", 4),
    (_pres(AB), "aabb", 4),
    (_pres(AB), "aaab", 4),
    (_pres(AB, "bbb"), "abbaB", 4),
    (_pres(AB, "aaaa"), "aBAbab", 4),
    # NOTFOUND, two generators
    (_pres(AB), "aBBAAA", 4),
    (_pres(AB), "baaBAbAB", 4),
    (_pres(AB, "abAB"), "abbAAB", 4),
    (_pres(AB, "bbbb", "abab"), "bab", 4),
    # found, three generators
    (_pres(ABC), "abc", 3),
    (_pres(ABC), "cab", 3),
    (_pres(ABC, "abAB"), "abcabc", 3),
    # NOTFOUND, three generators
    (_pres(ABC), "aCbbA", 3),
    (_pres(ABC, "aa"), "bcaaB", 3),
    (_pres(ABC, "abAB", "cc"), "acbCAB", 3),
    (_pres(ABC, "cc", "aaa"), "bbcA", 3),
    # after a swap at d = 2 the centraliser is whole but no point is fixed
    (_pres(ABC), "AA", 3),
    (_pres(ABC, "bC"), "aa", 3),
    # the fixed-point skip belongs to the last generator: one level early,
    # it skips the first hom of each of these
    (_pres(ABC, "acBC"), "cc", 3),
    (_pres(ABCD), "DaDA", 3),
    (_pres(ABCD), "cDaD", 3),
    (_pres(ABCD), "dCdb", 3),
]


def test_find_separating_quotient_matches_brute_force():
    for p, text, degree in SEARCH_CASES:
        r = parse_word(text, p.alphabet)
        assert find_separating_quotient(p, r, degree) == brute_force_first_hom(
            p, r, degree
        ), (p, text, degree)


def _has_common_fixed_point(h):
    return any(all(q[x] == x for q in h.gen_images) for x in range(h.degree))


def test_first_hom_has_no_common_fixed_point():
    # the first solution above degree 1 never has one: its restriction to
    # the other points would be a solution of lower degree
    found = 0
    for p, text, degree in SEARCH_CASES:
        h = brute_force_first_hom(p, parse_word(text, p.alphabet), degree)
        if h is not None and h.degree >= 2:
            assert not _has_common_fixed_point(h), (p, text, degree)
            found += 1
    assert found >= 8


def _words(alphabet, min_size, max_size):
    codes = st.tuples(
        st.integers(0, alphabet.size - 1), st.sampled_from((1, -1))
    ).map(lambda t: Letter(*t))
    return (
        st.lists(codes, max_size=max_size)
        .map(lambda raw: free_reduce(alphabet, raw))
        .filter(lambda w: len(w) >= min_size)
    )


@st.composite
def _search_inputs(draw):
    alphabet = Alphabet.first(draw(st.integers(1, 3)))
    relators = draw(st.lists(_words(alphabet, 1, 6), max_size=3))
    r = draw(_words(alphabet, 1, 8))
    degree = 4 if alphabet.size <= 2 else 3
    return Presentation(alphabet, tuple(relators)), r, degree


@settings(max_examples=150, deadline=None)
@given(_search_inputs())
def test_find_separating_quotient_matches_brute_force_hypothesis(inputs):
    p, r, degree = inputs
    assert find_separating_quotient(p, r, degree) == brute_force_first_hom(p, r, degree)


@settings(max_examples=100, deadline=None)
@given(_search_inputs())
def test_found_hom_has_no_common_fixed_point_hypothesis(inputs):
    # one degree past the brute-force range
    p, r, degree = inputs
    h = find_separating_quotient(p, r, degree + 1)
    assert h is None or h.degree == 1 or not _has_common_fixed_point(h)


def _conjugates(p, group):
    return {compose(compose(inverse(s), p), s) for s in group}


def test_class_minima_are_conjugacy_class_minima():
    for degree in range(1, 7):
        perms = list(itertools.permutations(range(degree)))
        minima = _class_minima(degree)
        assert minima == sorted(minima)
        covered = 0
        for rep in minima:
            conjugacy_class = _conjugates(rep, perms)
            assert min(conjugacy_class) == rep
            covered += len(conjugacy_class)
        # distinct class minima lie in distinct classes; together they
        # must cover S_d
        assert covered == len(perms)


def test_orbit_minima_match_brute_force_orbits():
    def check(perms, group, p):
        # group: a subgroup of S_d as image tuples; p: the next image
        centraliser = [s for s in group if compose(s, p) == compose(p, s)]
        assert _centraliser(group, p) == centraliser
        orbits = {frozenset(_conjugates(q, centraliser)) for q in perms}
        inverses = {s: inverse(s) for s in centraliser}
        minima = _orbit_minima(perms, centraliser, inverses)
        assert minima == sorted(min(orbit) for orbit in orbits)
        return centraliser, minima

    def moving(perms, images):
        # the last generator's pool: permutations moving every point that
        # all earlier images fix, a union of centraliser orbits
        fixed = [x for x in range(len(perms[0])) if all(q[x] == x for q in images)]
        return [q for q in perms if all(q[x] != x for x in fixed)]

    for degree in range(1, 6):
        perms = list(itertools.permutations(range(degree)))
        for p0 in _class_minima(degree):
            group, minima = check(perms, perms, p0)
            check(moving(perms, [p0]), perms, p0)
            if degree <= 4:
                # the joint centraliser of two fixed images
                for p1 in minima:
                    check(perms, group, p1)
                    check(moving(perms, [p0, p1]), group, p1)


def test_kept_level_one_tables_match_a_fresh_computation():
    # built cold here; the last generator's pool is filtered by the new
    # fixed points before its orbit minima are taken.  The nodes are the
    # root's children (the root itself under the identity) and, at d = 2,
    # the children of a swap: S_2's centraliser stays whole, but no point
    # is fixed, so the kept level must be keyed by the fixed points too
    _symmetric.cache_clear()
    for degree in range(1, 6):
        perms = list(itertools.permutations(range(degree)))
        inverses = {s: inverse(s) for s in perms}
        identity = tuple(range(degree))
        tables = _symmetric(degree)
        assert tables.perms == tuple(perms)
        assert tables.class_minima == tuple(_class_minima(degree))
        nodes = [(identity, sigma) for sigma in _class_minima(degree)]
        if degree == 2:
            nodes += [((), q) for q in perms]
        for fixed_above, image in nodes:
            centraliser = _centraliser(perms, image)
            fixed = tuple(x for x in fixed_above if image[x] == x)
            for last in (False, True):
                pool = perms
                if last and degree > 1:
                    pool = [q for q in perms if all(q[x] != x for x in fixed)]
                kept = tables.below(tables.perms, fixed_above, image, last)
                assert all(type(part) is tuple for part in kept)
                assert kept == (
                    tuple(centraliser), fixed, tuple(_orbit_minima(pool, centraliser, inverses))
                ), (degree, fixed_above, image, last)
                assert tables.below(tables.perms, fixed_above, image, last) is kept


def test_search_is_the_same_with_tables_cold_or_warm():
    cases = [(p, parse_word(text, p.alphabet), degree) for p, text, degree in SEARCH_CASES]
    expected = [brute_force_first_hom(*case) for case in cases]
    _symmetric.cache_clear()
    forward = [find_separating_quotient(*case) for case in cases]
    backward = [find_separating_quotient(*case) for case in reversed(cases)]
    assert forward == expected
    assert backward[::-1] == expected


def test_tables_above_the_default_degree_are_not_kept():
    free = _pres(AB)
    assert find_separating_quotient(free, parse_word("baaBAbAB", AB), 7) is None
    # freed on return, with no cyclic collection
    held = {obj.degree for obj in gc.get_objects() if isinstance(obj, _Symmetric)}
    assert held == set(range(1, DEFAULT_MAX_DEGREE + 1))


def test_single_letter_relator_uses_trivial_quotient():
    pres = Presentation(AB, ())
    h = find_separating_quotient(pres, parse_word("a", AB), 4)
    assert h is not None
    assert h.degree == 1


def test_find_separating_quotient_errors():
    with pytest.raises(BadBound):
        find_separating_quotient(AA_PRES, AA_REL, 0)
    with pytest.raises(EmptyWord):
        find_separating_quotient(AA_PRES, parse_word("1", AB), 4)
    with pytest.raises(AlphabetMismatch):
        find_separating_quotient(AA_PRES, parse_word("aa", ABC), 4)


def test_higman_not_found():
    assert find_separating_quotient(HIGMAN, HIGMAN_RELATORS[0], 3) is None
    assert brute_force_first_hom(HIGMAN, HIGMAN_RELATORS[0], 2) is None


def test_run_lemma_aa_certificate():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    assert cert is not None
    assert cert.image_order == 2
    assert [str(u) for u in cert.basis.elements] == ["b", "aa", "abA"]
    assert cert.r_position == 1
    assert cert.basis.elements[cert.r_position] == AA_REL
    assert cert.generator_bound == 2
    assert cert.matched_inverse is False
    assert verify_certificate(cert)


def test_run_lemma_case2():
    pres = Presentation(AB, (parse_word("aB", AB),))
    r = parse_word("aB", AB)
    cert = run_lemma(pres, r, 4)
    assert cert is not None
    assert cert.image_order == 2
    assert cert.hom.gen_images == ((1, 0), (1, 0))
    assert r in cert.basis.elements
    assert cert.basis.flipped == frozenset({1})
    assert len(cert.basis.elements) == 3
    assert verify_certificate(cert)


def test_run_lemma_free_presentation():
    pres = Presentation(AB, ())
    r = parse_word("ab", AB)
    cert = run_lemma(pres, r, max_degree=len(r))
    assert cert is not None
    assert r in cert.basis.elements
    assert verify_certificate(cert)


def test_run_lemma_checks_its_own_certificate(monkeypatch):
    monkeypatch.setattr(
        lemma, "verify_certificate", lambda c: VerificationResult(("fold_verify_passes",))
    )
    with pytest.raises(AssertionError, match="fold_verify_passes"):
        run_lemma(AA_PRES, AA_REL, 4)


def test_run_lemma_notfound_passthrough():
    assert run_lemma(HIGMAN, HIGMAN_RELATORS[0], 3) is None


def test_generator_bound_is_strictly_submultiplicative():
    # the certificate's bound (m-1)n is exactly one less than the
    # index-rank value n(m-1)+1: removing the relator beats multiplicativity
    for pres, text in ((AA_PRES, "aa"), (Presentation(AB, (parse_word("aB", AB),)), "aB")):
        cert = run_lemma(pres, parse_word(text, AB), 4)
        assert cert.generator_bound == len(cert.basis.elements) - 1
        n, m = cert.image_order, pres.alphabet.size
        assert cert.generator_bound == (m - 1) * n < n * (m - 1) + 1


def test_determinism_and_monotonicity():
    first = run_lemma(AA_PRES, AA_REL, 4)
    second = run_lemma(AA_PRES, AA_REL, 4)
    larger = run_lemma(AA_PRES, AA_REL, 6)
    assert certificate_to_json(first) == certificate_to_json(second)
    assert certificate_to_json(first) == certificate_to_json(larger)


@pytest.mark.parametrize(
    ("relator", "flipped"), [("aa", []), ("aB", [1])], ids=["aa", "aB"]
)
def test_certificate_json_roundtrip(relator, flipped):
    r = parse_word(relator, AB)
    cert = run_lemma(Presentation(AB, (r,)), r, 4)
    text = certificate_to_json(cert)
    assert json.loads(text)["basis"]["flipped"] == flipped
    loaded = certificate_from_json(text)
    assert loaded == cert
    assert certificate_to_json(loaded) == text
    assert verify_certificate(loaded)


def test_certificate_holds_its_table_once():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    assert [f.name for f in dataclasses.fields(cert)] == [
        "presentation", "relator", "hom", "image_order", "basis", "r_position",
        "matched_inverse", "generator_bound",
    ]
    assert [f.name for f in dataclasses.fields(cert.basis)] == [
        "transversal", "flipped", "elements", "edge_index",
    ]
    assert cert.transversal is cert.basis.transversal
    assert cert.table is cert.basis.table is cert.transversal.table


def test_certificate_format_errors():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    text = certificate_to_json(cert)
    with pytest.raises(CertificateFormatError):
        certificate_from_json(text[: len(text) // 2])  # truncated
    with pytest.raises(CertificateFormatError):
        certificate_from_json(text.replace("lemma-certificate/1", "other/9"))
    with pytest.raises(CertificateFormatError):
        certificate_from_json("{}")
    with pytest.raises(CertificateFormatError):
        certificate_from_json(text.replace('"relator": "aa",', ""))


def test_certificate_rejects_bool_generator_in_flipped():
    doc = json.loads(certificate_to_json(run_lemma(AA_PRES, AA_REL, 4)))
    doc["basis"]["flipped"] = [True]
    with pytest.raises(CertificateFormatError, match="flipped"):
        certificate_from_json(json.dumps(doc))


def test_certificate_rejects_non_int_edge_index_entry():
    doc = json.loads(certificate_to_json(run_lemma(AA_PRES, AA_REL, 4)))
    doc["basis"]["edge_index"][0] = ["x", 0, 0]
    with pytest.raises(CertificateFormatError, match="edge_index"):
        certificate_from_json(json.dumps(doc))


def test_certificate_rejects_repeated_edge_index_entry():
    """An edge listed twice contradicts itself; a dict would keep only the
    last entry, so the parser rejects it rather than pick one."""
    doc = json.loads(certificate_to_json(run_lemma(AA_PRES, AA_REL, 4)))
    edges = doc["basis"]["edge_index"]
    edges.insert(0, edges[0][:2] + [len(edges)])
    with pytest.raises(CertificateFormatError, match="edge_index") as exc:
        certificate_from_json(json.dumps(doc))
    assert str(exc.value) == (
        f"edge_index lists edge ({edges[1][0]}, {edges[1][1]}) more than once"
    )


def test_certificate_rejects_repeated_flipped_generator():
    """A set would read a generator flipped twice as flipped once, so the
    parser rejects the list, as it does an edge listed twice."""
    r = parse_word("aB", AB)
    doc = json.loads(certificate_to_json(run_lemma(Presentation(AB, (r,)), r, 4)))
    assert doc["basis"]["flipped"] == [1]
    doc["basis"]["flipped"] = [1, 0, 1]
    with pytest.raises(CertificateFormatError) as exc:
        certificate_from_json(json.dumps(doc))
    assert str(exc.value) == "flipped lists generator 1 more than once"


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda doc: doc["hom"]["gen_images"][0].__setitem__(0, True),
            "hom.gen_images rows must be lists of integers",
        ),
        (
            lambda doc: doc["table"]["action"][1].__setitem__(0, 1.0),
            "table.action rows must be lists of integers",
        ),
        (
            lambda doc: doc["basis"]["edge_index"][0].__setitem__(2, 1.0),
            "edge_index entries must be [coset, gen, pos]",
        ),
        (
            lambda doc: doc["basis"]["flipped"].extend([0, 1.0]),
            "flipped must list generator indices",
        ),
        (lambda doc: doc.__setitem__("r_position", True), "field 'r_position' must be int"),
    ],
    ids=["bool-in-permutation-row", "float-in-table-row", "float-in-edge-index",
         "float-in-flipped", "bool-r-position"],
)
def test_certificate_rejects_non_int_numbers_by_name(edit, message):
    doc = json.loads(certificate_to_json(run_lemma(AA_PRES, AA_REL, 4)))
    edit(doc)
    with pytest.raises(CertificateFormatError) as exc:
        certificate_from_json(json.dumps(doc))
    assert str(exc.value) == message


def tampered(cert, table=None, transversal=None, **overrides):
    """``cert`` with fields overridden; an overridden ``transversal`` or
    ``table`` goes into a basis rebuilt around it, as the certificate reads
    both through its basis."""
    basis = overrides.pop("basis", cert.basis)
    if table is not None:
        transversal = SchreierTransversal(table, (transversal or basis.transversal).reps)
    if transversal is not None:
        basis = SubgroupBasis(transversal, basis.flipped, basis.elements, basis.edge_index)
    fields = {
        "presentation": cert.presentation,
        "relator": cert.relator,
        "hom": cert.hom,
        "image_order": cert.image_order,
        "basis": basis,
        "r_position": cert.r_position,
        "matched_inverse": cert.matched_inverse,
        "generator_bound": cert.generator_bound,
    }
    fields.update(overrides)
    return LemmaCertificate(**fields)


def test_verify_detects_r_position_tamper():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    bad = tampered(cert, r_position=0)
    result = verify_certificate(bad)
    assert not result
    assert "r_position_valid" in result.failures


def test_verify_detects_deleted_basis_element():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    basis = cert.basis
    shrunk = SubgroupBasis(
        basis.transversal,
        basis.flipped,
        basis.elements[:-1],
        {k: v for k, v in basis.edge_index.items() if v < len(basis.elements) - 1},
    )
    result = verify_certificate(tampered(cert, basis=shrunk))
    assert not result
    assert "basis_invariants" in result.failures


def test_verify_detects_edited_basis_word():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    basis = cert.basis
    elements = list(basis.elements)
    elements[0] = parse_word("bb", AB)
    edited = SubgroupBasis(
        basis.transversal, basis.flipped,
        tuple(elements), basis.edge_index,
    )
    result = verify_certificate(tampered(cert, basis=edited))
    assert not result
    assert "basis_matches_schreier_method" in result.failures


def test_verify_detects_wrong_table():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    other = CosetTable(AB, ((1, 0), (1, 0)))
    result = verify_certificate(tampered(cert, table=other))
    assert not result
    assert "table_matches_regular" in result.failures


def test_verify_detects_matched_inverse_flip():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    result = verify_certificate(tampered(cert, matched_inverse=True))
    assert not result
    assert "matched_inverse_consistent" in result.failures


def test_verify_detects_bad_transversal():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    # "A" traces to the right coset but breaks the seeded-prefix property
    reps = (cert.transversal.reps[0], parse_word("A", AB))
    crooked = SchreierTransversal(cert.table, reps)
    result = verify_certificate(tampered(cert, transversal=crooked))
    assert not result
    assert "transversal_seeded" in result.failures or "basis_matches_schreier_method" in result.failures


def test_verify_detects_generator_bound_tamper():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    result = verify_certificate(tampered(cert, generator_bound=5))
    assert not result
    assert "generator_bound_matches" in result.failures


def test_verify_detects_image_order_tamper():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    result = verify_certificate(tampered(cert, image_order=3))
    assert not result
    assert "image_order_matches" in result.failures


def test_verify_flags_hom_beyond_closure_ceiling():
    # a transposition and an 8-cycle generate S_8, with 40320 > 10000 elements
    cert = run_lemma(AA_PRES, AA_REL, 4)
    huge = FiniteQuotientHom(
        AB, ((1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0))
    )
    result = verify_certificate(tampered(cert, hom=huge))
    assert "image_order_matches" in result.failures
    assert "table_matches_regular" in result.failures


def test_verify_long_relator_failures():
    # 8,000 letters: the seeded-transversal check walks r once instead of
    # building its quadratic list of initial segments
    doc = json.loads(certificate_to_json(run_lemma(AA_PRES, AA_REL, 4)))
    doc["relator"] = "ab" * 4000
    result = verify_certificate(certificate_from_json(json.dumps(doc)))
    assert result.failures == (
        "prefixes_separated",
        "transversal_seeded",
        "r_position_valid",
        "matched_inverse_consistent",
        "basis_matches_schreier_method",
    )


def test_transversal_seeded_matches_initial_segment_definition():
    free = Presentation(AB, ())
    codes = [Letter(g, s) for g in (0, 1) for s in (1, -1)]
    words = [
        free_reduce(AB, raw) for k in range(1, 5) for raw in itertools.product(codes, repeat=k)
    ]
    for r in ("abaB", "aabAb"):
        cert = run_lemma(free, parse_word(r, AB), 5)
        reps = cert.transversal.reps
        for w in dict.fromkeys(w for w in words if len(w) > 0):
            expected = any(
                reps[walk(cert.table, BASE, p)] != p
                for p in (FreeWord(AB, w.codes[:i]) for i in range(len(w)))
            )
            failures = verify_certificate(tampered(cert, relator=w)).failures
            assert ("transversal_seeded" in failures) == expected, (r, str(w))


# each tampering below reaches a failure name that no other test reaches,
# and the whole failure tuple is pinned


def test_verify_flags_relator_over_other_alphabet():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    bad = tampered(cert, relator=parse_word("aa", ABC))
    assert verify_certificate(bad).failures == ("alphabets_consistent",)


def test_verify_flags_relator_not_killed_by_hom():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    extended = Presentation(AB, (AA_REL, parse_word("a", AB)))
    assert verify_certificate(tampered(cert, presentation=extended)).failures == (
        "hom_kills_relators",
        "relators_in_subgroup",
    )


def test_verify_flags_relator_outside_subgroup():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    assert verify_certificate(tampered(cert, relator=parse_word("a", AB))).failures == (
        "relator_in_subgroup",
        "r_position_valid",
        "matched_inverse_consistent",
        "basis_matches_schreier_method",
    )


def test_verify_flags_invalid_transversal():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    # "b" fixes the base, so it cannot represent coset 1
    broken = SchreierTransversal(cert.table, (cert.transversal.reps[0], parse_word("b", AB)))
    assert verify_certificate(tampered(cert, transversal=broken)).failures == (
        "transversal_valid",
    )


@pytest.mark.parametrize("position", [-1, 3])
def test_verify_flags_r_position_out_of_range(position):
    cert = run_lemma(AA_PRES, AA_REL, 4)
    assert verify_certificate(tampered(cert, r_position=position)).failures == (
        "r_position_valid",
    )


def test_verify_flags_list_that_does_not_fold():
    cert = run_lemma(AA_PRES, AA_REL, 4)
    basis = cert.basis
    # bb lies in the subgroup, but {bb, aa, abA} generates a proper subgroup of it
    edited = SubgroupBasis(
        basis.transversal, basis.flipped,
        (parse_word("bb", AB),) + basis.elements[1:], basis.edge_index,
    )
    assert verify_certificate(tampered(cert, basis=edited)).failures == (
        "basis_matches_schreier_method",
        "fold_verify_passes",
    )


GOLDEN = (Path(__file__).parent / "data" / "lemma_aa_certificate.json").read_text()


def golden_with_extra_elements(count):
    """The golden certificate with ``count`` random reduced 10-letter words
    appended to its basis elements, as JSON text."""
    doc = json.loads(GOLDEN)
    rng = random.Random(21)
    for _ in range(count):
        text = ""
        while len(text) < 10:
            ch = rng.choice("abAB")
            if not text or text[-1] != ch.swapcase():
                text += ch
        doc["basis"]["elements"].append(text)
    return json.dumps(doc)


def test_verify_decides_the_basis_count_before_tracing(monkeypatch):
    cert = certificate_from_json(golden_with_extra_elements(20_000))
    # contains walks through this binding; lemma's own, which walks r, stays
    untraced = cosets.prefix_cosets
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return untraced(*args)

    monkeypatch.setattr(cosets, "prefix_cosets", counted)
    assert verify_certificate(cert).failures == (
        "basis_invariants",
        "basis_matches_schreier_method",
        "generator_bound_matches",
        "fold_verify_passes",
    )
    # one walk per relator, and r at most: no basis element is walked
    assert calls <= len(cert.presentation.relators) + 1


# ---------------------------------------------------------------------------
# differential check of the verifier against the word-building one
# ---------------------------------------------------------------------------


def reference_parse_word(text, alphabet):
    """Parse letter by letter and reduce with :func:`free_reduce`, without
    the alphabet's letter tables (ASCII inverses only)."""
    if text in ("", "1"):
        return empty_word(alphabet)
    raw = []
    for pos, ch in enumerate(text):
        if ch in alphabet.names:
            raw.append(Letter(alphabet.names.index(ch), 1))
        elif ch.isascii() and ch.lower() in alphabet.names and ch.isupper():
            raw.append(Letter(alphabet.names.index(ch.lower()), -1))
        else:
            raise ParseError(f"unknown character {ch!r} at position {pos}", position=pos)
    return free_reduce(alphabet, raw)


def test_parse_word_matches_reference_parse():
    """``parse_word`` cancels only text holding an inverse pair and builds
    its word unchecked; the result must be the reference parse's word,
    equal to and hashing like the checked constructor's, over 1 to 3
    generators, with pairs at either end and cascades such as ``abBA``."""
    rng = random.Random(3141)
    for names in ("a", "ab", "abc"):
        alphabet = Alphabet.of(names)
        symbols = names + names.upper()
        texts = ["", "1", "aA", "Aa", "aAa", "AaA", "aaAA"]
        if len(names) > 1:
            texts += ["abBA", "BAab", "abBAb", "aabBAA", "bAaBab", "baABAabb"]
        for _ in range(400):
            body = "".join(rng.choice(symbols) for _ in range(rng.randrange(12)))
            ch = rng.choice(symbols)
            pair = ch + ch.swapcase()
            k = rng.randrange(len(body) + 1)
            texts += [
                body,
                pair + body,
                body + pair,
                body[:k] + pair + body[k:],
                body + body[::-1].swapcase(),  # cancels to the empty word
            ]
        cancelled = 0
        for text in texts:
            word, expected = parse_word(text, alphabet), reference_parse_word(text, alphabet)
            checked = FreeWord(alphabet, tuple(expected.codes))
            assert word == expected == checked, text
            assert hash(word) == hash(checked), text
            assert type(word.codes) is tuple and str(word) == str(checked)
            assert all(type(k) is int for k in word.codes), text
            cancelled += len(word) < len(text.replace("1", ""))
        assert cancelled > 1000
    # a non-ASCII character stays an error at its position, pair or no pair
    ak = Alphabet.of("ak")
    for text, position in (("ak\u212a", 2), ("aAk\u212a", 3), ("\u212akK", 0)):
        with pytest.raises(ParseError) as info:
            parse_word(text, ak)
        assert info.value.position == position
        with pytest.raises(ParseError) as reference:
            reference_parse_word(text, ak)
        assert str(info.value) == str(reference.value)


def reference_basis_invariants(b):
    """Oracle: every basis invariant checked in full, with membership read
    off each element's permutation of the cosets."""
    t = b.table
    members = [len(u) > 0 and word_image(t, u)[BASE] == BASE for u in b.elements]
    return (
        len(b.elements) == t.n * (t.alphabet.size - 1) + 1
        and len(set(b.elements)) == len(b.elements)
        and all(members)
        and sorted(b.edge_index.values()) == list(range(len(b.elements)))
    )


def reference_verify_certificate(c):
    """The verifier that re-spells the Schreier basis as words with
    :func:`schreier_basis` and compares them with the certificate's."""
    failures = []
    p, r = c.presentation, c.relator
    alphabets = (
        [p.alphabet, r.alphabet, c.hom.alphabet, c.table.alphabet]
        + [w.alphabet for w in c.transversal.reps]
        + [u.alphabet for u in c.basis.elements]
    )
    if any(a != p.alphabet for a in alphabets):
        return ("alphabets_consistent",)
    n, m = c.table.n, p.alphabet.size

    def coset(w):
        return word_image(c.table, w)[BASE]

    if any(word_image(c.hom, rel) != tuple(range(c.hom.degree)) for rel in p.relators):
        failures.append("hom_kills_relators")
    try:
        regular = regular_table(c.hom)
    except ImageTooLarge:
        regular = None
    if regular is None or regular.n != c.image_order or c.image_order != n:
        failures.append("image_order_matches")
    if c.table != regular:
        failures.append("table_matches_regular")
    if not all(coset(rel) == BASE for rel in p.relators):
        failures.append("relators_in_subgroup")
    if len(r) == 0 or coset(r) != BASE:
        failures.append("relator_in_subgroup")
    segments = {coset(FreeWord(r.alphabet, r.codes[:i])) for i in range(len(r))}
    if len(r) == 0 or len(segments) != len(r):
        failures.append("prefixes_separated")
    tree_ok = not reference_check_transversal(c.transversal)
    if not tree_ok:
        failures.append("transversal_valid")
    elif len(r) > 0:
        coset, reps = BASE, c.transversal.reps
        for i, letter in enumerate(letters(r)[:-1], 1):
            coset = step(c.table, coset, *letter)
            if len(reps[coset]) != i or signed(reps[coset].codes[-1]) != letter:
                failures.append("transversal_seeded")
                break
    if not reference_basis_invariants(c.basis):
        failures.append("basis_invariants")
    if not (0 <= c.r_position < len(c.basis.elements) and c.basis.elements[c.r_position] == r):
        failures.append("r_position_valid")
    if tree_ok:
        recomputed = schreier_basis(c.transversal, c.basis.flipped)
        raw_elements = list(recomputed.elements)
        if 0 <= c.r_position < len(raw_elements):
            expected_raw = invert(r) if c.matched_inverse else r
            if raw_elements[c.r_position] != expected_raw:
                failures.append("matched_inverse_consistent")
            raw_elements[c.r_position] = r
        if (
            tuple(raw_elements) != c.basis.elements
            or recomputed.edge_index != c.basis.edge_index
        ):
            failures.append("basis_matches_schreier_method")
    if c.generator_bound != (m - 1) * n or c.generator_bound != len(c.basis.elements) - 1:
        failures.append("generator_bound_matches")
    if not fold_verify(c.basis):
        failures.append("fold_verify_passes")
    return tuple(failures)


def _inverse_text(text):
    return "1" if text == "1" else text[::-1].swapcase()


def _tamper_doc(rng, doc):
    """Apply one random JSON-level edit to a certificate document."""
    names = doc["presentation"]["alphabet"]
    elements = doc["basis"]["elements"]
    reps = doc["transversal"]
    edges = doc["basis"]["edge_index"]
    i, j = rng.randrange(len(elements)), rng.randrange(len(elements))
    kind = rng.randrange(14)
    if kind == 0:
        elements[i], elements[j] = elements[j], elements[i]
    elif kind == 1:
        elements[i] = elements[j]
    elif kind == 2:
        elements[i] = _inverse_text(elements[i])
    elif kind == 3:
        elements[i] = (elements[i] + elements[j]).replace("1", "") or "1"
    elif kind == 4:
        del elements[i]
    elif kind == 5:
        text = elements[i].replace("1", "")
        k = rng.randrange(len(text) + 1)
        edit = rng.choice(names + names.upper() + "z?")
        elements[i] = (text[:k] + edit + text[k + rng.randrange(2):]) or "1"
    elif kind == 6:
        doc["basis"]["flipped"] = sorted(set(doc["basis"]["flipped"]) ^ {rng.randrange(len(names))})
    elif kind == 7:
        a, b = rng.randrange(len(edges)), rng.randrange(len(edges))
        edges[a][2], edges[b][2] = edges[b][2], edges[a][2]
    elif kind == 8:
        edges[rng.randrange(len(edges))][rng.randrange(2)] += rng.choice((-1, 1))
    elif kind == 9:
        doc["r_position"] = rng.randrange(-1, len(elements) + 1)
    elif kind == 10:
        doc["matched_inverse"] = not doc["matched_inverse"]
    elif kind == 11:
        a, b = rng.randrange(len(reps)), rng.randrange(len(reps))
        reps[a], reps[b] = reps[b], reps[a]
    elif kind == 12:
        reps[rng.randrange(len(reps))] = reps[rng.randrange(len(reps))]
    else:
        doc["relator"] = rng.choice([elements[i], _inverse_text(doc["relator"]), "ab"[: len(names)]])


DIFFERENTIAL_WORDS = (
    ("ab", "aa"), ("ab", "abAB"), ("ab", "bab"), ("abc", "abcABC"),
    ("ab", "AbbbABaB"), ("abc", "cbcbCaCbac"),
)


def _outcomes(tampered_text):
    """What the reference parser and verifier, then the library's, make of
    one certificate text: a format error's message or the failure tuple."""
    outcomes = []
    for parse, verify in (
        (reference_parse_word, reference_verify_certificate),
        (parse_word, lambda c: verify_certificate(c).failures),
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lemma, "parse_word", parse)
            try:
                loaded = certificate_from_json(tampered_text)
            except CertificateFormatError as exc:
                outcomes.append(("format", str(exc)))
                continue
        outcomes.append(("verdict", verify(loaded)))
    return outcomes


def test_verify_matches_reference_verifier_on_tampered_json():
    rng = random.Random(15)
    seen = set()
    for names, word in DIFFERENTIAL_WORDS:
        alphabet = Alphabet.of(names)
        cert = run_lemma(Presentation(alphabet, ()), parse_word(word, alphabet), 5)
        text = certificate_to_json(cert)
        for _ in range(120):
            doc = json.loads(text)
            for _ in range(rng.choice((1, 1, 2))):
                _tamper_doc(rng, doc)
            tampered_text = json.dumps(doc)
            outcomes = _outcomes(tampered_text)
            assert outcomes[0] == outcomes[1], (word, tampered_text)
            kind, detail = outcomes[1]
            seen.update(detail if kind == "verdict" else ["format"])
    for name in (
        "basis_matches_schreier_method", "matched_inverse_consistent", "transversal_valid",
        "transversal_seeded", "basis_invariants", "fold_verify_passes", "format",
    ):
        assert name in seen, name


def _tamper_table_doc(rng, doc):
    """Apply one random JSON-level edit to the table, the hom or the image
    order, the fields :func:`_tamper_doc` leaves alone."""
    kind = rng.randrange(4)
    if kind == 0:
        action = doc["table"]["action"]
        row = action[rng.randrange(len(action))]
        a, b = rng.randrange(len(row)), rng.randrange(len(row))
        row[a], row[b] = row[b], row[a]
    elif kind == 1:
        images = doc["hom"]["gen_images"]
        row = list(range(doc["hom"]["degree"]))
        rng.shuffle(row)
        images[rng.randrange(len(images))] = row
    elif kind == 2:
        doc["table"]["n"] += rng.choice((-1, 1))
    else:
        doc["image_order"] += rng.choice((-1, 1))


def test_verify_matches_reference_verifier_on_tampered_table_and_hom():
    rng = random.Random(28)
    seen = set()
    for names, word in DIFFERENTIAL_WORDS:
        alphabet = Alphabet.of(names)
        cert = run_lemma(Presentation(alphabet, ()), parse_word(word, alphabet), 5)
        text = certificate_to_json(cert)
        for _ in range(60):
            doc = json.loads(text)
            for _ in range(rng.choice((1, 1, 2))):
                _tamper_table_doc(rng, doc)
            tampered_text = json.dumps(doc)
            outcomes = _outcomes(tampered_text)
            assert outcomes[0] == outcomes[1], (word, tampered_text)
            kind, detail = outcomes[1]
            seen.update(detail if kind == "verdict" else ["format"])
    for name in (
        "image_order_matches", "table_matches_regular", "relator_in_subgroup",
        "prefixes_separated", "transversal_valid", "basis_invariants",
        "basis_matches_schreier_method", "fold_verify_passes", "format",
    ):
        assert name in seen, name
