import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schreierkit import FiniteQuotientHom, cli, lemma, rewriting
from schreierkit.perms import DEFAULT_IMAGE_CEILING
from schreierkit.cli import build_parser, main
from test_lemma import golden_with_extra_elements

AA_PRESENTATION = "gens: a b\nrel: aa\n"
TWO_TABLE = "n=2\na: 1 0\nb: 0 1\n"
HIGMAN_PRESENTATION = (
    "gens: a b c d\nrel: abABB\nrel: bcBCC\nrel: cdCDD\nrel: daDAA\n"
)
AA_CERTIFICATE = (
    Path(__file__).parent / "data" / "lemma_aa_certificate.json"
).read_text()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_runs_the_handler_bound_at_call_time(capsys, tmp_path, monkeypatch):
    # main reuses one parser across calls; it must still run a cmd_* rebound
    # after that parser was built, as monkeypatching and tracing do
    table = tmp_path / "two.table"
    table.write_text(TWO_TABLE)
    assert run(capsys, "table", "--table", str(table))[0] == 0
    seen = []

    def stub(args):
        seen.append(args.table)
        return 0

    monkeypatch.setattr(cli, "cmd_table", stub)
    assert run(capsys, "table", "--table", str(table)) == (0, "", "")
    assert seen == [str(table)]
    assert build_parser() is not build_parser()


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "abBA")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "reduce", "aab")
    assert (code, out) == (0, "aab\n")
    code, out, _ = run(capsys, "reduce", "1")
    assert (code, out) == (0, "1\n")


def test_reduce_bad_input(capsys):
    code, _, err = run(capsys, "reduce", "a$b")
    assert code == 2
    assert "error" in err


def test_reduce_rejects_kelvin_sign(capsys):
    # U+212A KELVIN SIGN is not the inverse of k: only ASCII A-Z spell inverses
    code, out, err = run(capsys, "reduce", "ak\u212a", "--gens", "ak")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "position 2" in err
    assert run(capsys, "reduce", "akK", "--gens", "ak")[:2] == (0, "a\n")


def test_reduce_bad_alphabet_is_input_error(capsys):
    for argv in (("reduce", "é"), ("reduce", "aÀ"), ("reduce", "ab", "--gens", "aa")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv
        assert "Traceback" not in err


def test_reduce_with_explicit_gens(capsys):
    code, _, err = run(capsys, "reduce", "abc", "--gens", "ab")
    assert code == 2
    code, out, _ = run(capsys, "reduce", "abc", "--gens", "abc")
    assert (code, out) == (0, "abc\n")


def test_reduce_with_empty_gens_is_input_error(capsys):
    # an empty --gens is an empty alphabet, not a request to infer one
    code, out, err = run(capsys, "reduce", "--gens", "", "a")
    assert_input_error(code, out, err)
    assert err == "error: alphabet needs at least one generator\n"


def test_console_script_entry_exits_with_main_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["schreierkit", "reduce", "aA"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0
    assert capsys.readouterr().out == "1\n"
    monkeypatch.setattr(sys, "argv", ["schreierkit", "reduce", "a$b"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    assert_input_error(2, *capsys.readouterr())


def test_witness_and_verify_roundtrip(capsys, tmp_path):
    pres = tmp_path / "aa.pres"
    pres.write_text(AA_PRESENTATION)
    code, out, _ = run(
        capsys, "witness", "--presentation", str(pres), "--relator", "aa",
        "--max-degree", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "lemma-certificate/1"
    assert doc["basis"]["elements"] == ["b", "aa", "abA"]
    assert doc["image_order"] == 2
    assert doc["generator_bound"] == 2

    cert = tmp_path / "aa.cert.json"
    cert.write_text(out)
    code, out, _ = run(capsys, "verify", "--certificate", str(cert))
    assert (code, out) == (0, "OK\n")


def test_witness_determinism(capsys, tmp_path):
    pres = tmp_path / "aa.pres"
    pres.write_text(AA_PRESENTATION)
    outputs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "witness", "--presentation", str(pres), "--relator", "aa"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_witness_rejects_empty_relator(capsys, tmp_path):
    pres = tmp_path / "aa.pres"
    pres.write_text(AA_PRESENTATION)
    code, _, err = run(capsys, "witness", "--presentation", str(pres), "--relator", "1")
    assert code == 2
    assert "error" in err


def test_witness_higman_notfound(capsys, tmp_path):
    pres = tmp_path / "higman.pres"
    pres.write_text(HIGMAN_PRESENTATION)
    code, out, _ = run(
        capsys, "witness", "--presentation", str(pres), "--relator", "abABB",
        "--max-degree", "3",
    )
    assert (code, out) == (1, "NOTFOUND\n")


def test_witness_notfound_past_brute_force_range(capsys, tmp_path):
    # status pinned from the search before the common-fixed-point skip
    pres = tmp_path / "free.pres"
    pres.write_text("gens: a b\n")
    code, out, _ = run(
        capsys, "witness", "--presentation", str(pres), "--relator", "baaBAbAB",
        "--max-degree", "7",
    )
    assert (code, out) == (1, "NOTFOUND\n")


def test_witness_image_beyond_ceiling_is_input_error(capsys, tmp_path, monkeypatch):
    # a first witness generating S_8 (40320 elements) has no regular table
    # within the closure ceiling
    def huge_witness(p, r, max_degree):
        return FiniteQuotientHom(
            p.alphabet, ((1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0))
        )

    monkeypatch.setattr(lemma, "find_separating_quotient", huge_witness)
    pres = tmp_path / "free.pres"
    pres.write_text("gens: a b\n")
    code, out, err = run(
        capsys, "witness", "--presentation", str(pres), "--relator", "ab",
        "--max-degree", "8",
    )
    assert (code, out) == (2, "")
    assert err == "error: image group exceeds the ceiling of 10000 elements\n"


def test_verify_detects_tamper(capsys, tmp_path):
    pres = tmp_path / "aa.pres"
    pres.write_text(AA_PRESENTATION)
    _, out, _ = run(capsys, "witness", "--presentation", str(pres), "--relator", "aa")
    doc = json.loads(out)
    doc["basis"]["elements"][0] = "bb"
    cert = tmp_path / "tampered.json"
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--certificate", str(cert))
    assert code == 1
    assert "basis_matches_schreier_method" in out


def test_verify_rejects_truncated_file(capsys, tmp_path):
    pres = tmp_path / "aa.pres"
    pres.write_text(AA_PRESENTATION)
    _, out, _ = run(capsys, "witness", "--presentation", str(pres), "--relator", "aa")
    cert = tmp_path / "broken.json"
    cert.write_text(out[: len(out) // 2])
    code, _, err = run(capsys, "verify", "--certificate", str(cert))
    assert code == 2


def test_verify_names_the_count_failures_of_an_oversized_basis(capsys, tmp_path):
    cert = tmp_path / "oversized.json"
    cert.write_text(golden_with_extra_elements(20_000))
    assert run(capsys, "verify", "--certificate", str(cert))[:2] == (
        1,
        "basis_invariants\nbasis_matches_schreier_method\n"
        "generator_bound_matches\nfold_verify_passes\n",
    )


def oversized_certificate(capsys, tmp_path, edit):
    pres = tmp_path / "aa.pres"
    pres.write_text(AA_PRESENTATION)
    _, out, _ = run(capsys, "witness", "--presentation", str(pres), "--relator", "aa")
    doc = json.loads(out)
    edit(doc)
    cert = tmp_path / "oversized.json"
    cert.write_text(json.dumps(doc))
    return run(capsys, "verify", "--certificate", str(cert))


OVERLONG_WORD = "ab" * 100_000  # 200,000 letters, freely reduced


@pytest.mark.parametrize(
    "path, failures",
    [
        (
            ("basis", "elements", 0),
            ["basis_matches_schreier_method", "fold_verify_passes"],
        ),
        (("transversal", 1), ["transversal_valid"]),
        (
            ("relator",),
            [
                "prefixes_separated",
                "transversal_seeded",
                "r_position_valid",
                "matched_inverse_consistent",
                "basis_matches_schreier_method",
            ],
        ),
    ],
    ids=["basis-element", "representative", "relator"],
)
def test_verify_names_the_failures_of_an_overlong_word(
    capsys, tmp_path, path, failures
):
    *outer, last = path

    def edit(doc):
        for key in outer:
            doc = doc[key]
        doc[last] = OVERLONG_WORD

    code, out, err = oversized_certificate(capsys, tmp_path, edit)
    assert (code, out.splitlines(), err) == (1, failures, "")


def test_verify_rejects_degree_beyond_limit(capsys, tmp_path):
    def edit(doc):
        doc["hom"]["degree"] = lemma.MAX_CERTIFICATE_DEGREE + 1

    code, out, err = oversized_certificate(capsys, tmp_path, edit)
    assert (code, out) == (2, "")
    assert err == (
        f"error: hom.degree {lemma.MAX_CERTIFICATE_DEGREE + 1}"
        f" exceeds the limit of {lemma.MAX_CERTIFICATE_DEGREE}\n"
    )


def test_verify_rejects_table_beyond_ceiling(capsys, tmp_path):
    def edit(doc):
        doc["table"]["n"] = DEFAULT_IMAGE_CEILING + 1

    code, out, err = oversized_certificate(capsys, tmp_path, edit)
    assert (code, out) == (2, "")
    assert err == (
        f"error: table.n {DEFAULT_IMAGE_CEILING + 1}"
        f" exceeds the limit of {DEFAULT_IMAGE_CEILING}\n"
    )


def test_verify_rejects_table_without_cosets(capsys, tmp_path):
    def edit(doc):
        doc["table"] = {"n": 0, "action": [[], []]}

    code, out, err = oversized_certificate(capsys, tmp_path, edit)
    assert (code, out) == (2, "")
    assert err == (
        "error: malformed certificate:"
        " a coset table needs at least one coset, got index 0\n"
    )


def test_verify_rejects_repeated_edge(capsys, tmp_path):
    edges = json.loads(AA_CERTIFICATE)["basis"]["edge_index"]
    assert edges[0] == [0, 1, 0]
    code, out, err = verify_golden_edited(
        capsys, tmp_path, "basis", "edge_index", [[0, 1, 2]] + edges
    )
    assert_input_error(code, out, err)
    assert err == "error: edge_index lists edge (0, 1) more than once\n"


def test_verify_rejects_repeated_flipped_generator(capsys, tmp_path):
    pres = tmp_path / "free.pres"
    pres.write_text("gens: a b\n")
    code, out, _ = run(
        capsys, "witness", "--presentation", str(pres), "--relator", "aB",
        "--max-degree", "3",
    )
    doc = json.loads(out)
    assert (code, doc["basis"]["flipped"]) == (0, [1])
    doc["basis"]["flipped"] = [1, 1]
    cert = tmp_path / "flipped_twice.json"
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--certificate", str(cert))
    assert_input_error(code, out, err)
    assert err == "error: flipped lists generator 1 more than once\n"


def test_verify_names_the_failures_of_an_empty_relator(capsys, tmp_path):
    doc = json.loads(AA_CERTIFICATE)
    doc["relator"] = "1"
    cert = tmp_path / "empty_relator.json"
    cert.write_text(json.dumps(doc))
    assert run(capsys, "verify", "--certificate", str(cert))[:2] == (
        1,
        "relator_in_subgroup\nprefixes_separated\nr_position_valid\n"
        "matched_inverse_consistent\nbasis_matches_schreier_method\n",
    )


def verify_golden_edited(capsys, tmp_path, field, key, value):
    doc = json.loads(AA_CERTIFICATE)
    doc[field][key] = value
    cert = tmp_path / "edited.json"
    cert.write_text(json.dumps(doc))
    return run(capsys, "verify", "--certificate", str(cert))


@pytest.mark.parametrize("field, key", [("hom", "gen_images"), ("table", "action")])
def test_verify_rejects_bool_permutation_rows(capsys, tmp_path, field, key):
    rows = json.loads(AA_CERTIFICATE)[field][key]
    rows[0] = [True, False]
    code, out, err = verify_golden_edited(capsys, tmp_path, field, key, rows)
    assert_input_error(code, out, err)
    assert err == f"error: {field}.{key} rows must be lists of integers\n"


NOT_A_BIJECTION = "error: malformed certificate: not a bijection on [0, 2): (0, 0)\n"


@pytest.mark.parametrize(
    "field, key, edit, expected",
    [
        ("hom", "gen_images", lambda rows: [[0, 0]] + rows[1:], NOT_A_BIJECTION),
        ("table", "action", lambda rows: rows[:1] + [[0, 0]], NOT_A_BIJECTION),
        # the wrong count is reported after the column that is not a bijection
        ("hom", "gen_images", lambda rows: [[0, 0]], NOT_A_BIJECTION),
        (
            "table",
            "action",
            lambda rows: [[1, 0], [0, 1, 2]],
            "error: malformed certificate: generator images have mixed degrees: [2, 3]\n",
        ),
        # well-formed rows that disagree with the declared size
        ("hom", "degree", lambda degree: 3, "error: hom degree does not match its images\n"),
        ("table", "n", lambda n: 3, "error: table n does not match its action\n"),
    ],
    ids=["hom-column", "table-column", "hom-column-and-count", "table-mixed-degrees",
         "hom-degree", "table-n"],
)
def test_verify_permutation_parse_errors_pinned(capsys, tmp_path, field, key, edit, expected):
    rows = json.loads(AA_CERTIFICATE)[field][key]
    code, out, err = verify_golden_edited(capsys, tmp_path, field, key, edit(rows))
    assert (code, out, err) == (2, "", expected)


def test_basis_plain(capsys, tmp_path):
    table = tmp_path / "two.table"
    table.write_text(TWO_TABLE)
    code, out, _ = run(capsys, "basis", "--table", str(table))
    assert code == 0
    assert out == "1\na\nindex=2 rank=3\nb\naa\nabA\n"


def test_basis_through(capsys, tmp_path):
    table = tmp_path / "two.table"
    table.write_text(TWO_TABLE)
    code, out, _ = run(capsys, "basis", "--table", str(table), "--through", "aa")
    assert code == 0
    assert out == "1\na\nindex=2 rank=3\nb\naa\nabA\nr_position=1\n"


def test_basis_through_precondition_failures(capsys, tmp_path):
    table = tmp_path / "two.table"
    table.write_text(TWO_TABLE)
    code, out, _ = run(capsys, "basis", "--table", str(table), "--through", "a")
    assert (code, out) == (1, "REJECTED: a does not fix the base coset\n")
    code, out, _ = run(capsys, "basis", "--table", str(table), "--through", "aaaa")
    assert (code, out) == (
        1, "REJECTED: the initial segments of aaaa do not reach distinct cosets\n"
    )


def test_basis_rejects_bad_table(capsys, tmp_path):
    table = tmp_path / "bad.table"
    table.write_text("n=2\na: 0 1\nb: 0 1\n")  # not transitive
    code, _, err = run(capsys, "basis", "--table", str(table))
    assert code == 2


def test_table_echo(capsys, tmp_path):
    table = tmp_path / "two.table"
    table.write_text("n=2\na:   1 0\nb: 0   1\n")
    code, out, _ = run(capsys, "table", "--table", str(table))
    assert (code, out) == (0, TWO_TABLE)


def test_surface(capsys):
    code, out, _ = run(capsys, "surface", "--genus", "2", "--index", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "subgroups=15 all_checks=pass"
    records = [line for line in lines if line.startswith("subgroup=")]
    assert len(records) == 15
    for record in records:
        assert "rho_G1_formula=5" in record
        assert "rho_G1_counts=5" in record
        assert "euler_G1=-4" in record
        assert "checks=pass" in record


def test_surface_reports_a_failing_table(capsys, monkeypatch):
    paired = rewriting.SubgroupPresentation.symbols_paired
    calls = []

    def second_fails(sp):
        calls.append(sp)
        return paired(sp) and len(calls) != 2

    monkeypatch.setattr(rewriting.SubgroupPresentation, "symbols_paired", second_fails)
    code, out, _ = run(capsys, "surface", "--genus", "2", "--index", "2")
    assert code == 1
    lines = out.splitlines()
    records = [line for line in lines if line.startswith("subgroup=")]
    assert len(records) == 15
    failing = [record for record in records if record.endswith("checks=fail")]
    assert [record.split()[0] for record in failing] == ["subgroup=1"]
    assert sum(record.endswith("checks=pass") for record in records) == 14
    assert lines[-1] == "subgroups=15 all_checks=fail"


def test_surface_genus1(capsys):
    code, out, _ = run(capsys, "surface", "--genus", "1", "--index", "3")
    assert code == 0
    for line in out.splitlines():
        if line.startswith("subgroup="):
            assert "rho_G1_formula=1" in line


def test_surface_bounds(capsys):
    code, _, err = run(capsys, "surface", "--genus", "5", "--index", "2")
    assert code == 2
    code, out, err = run(capsys, "surface", "--genus", "5", "--index", "1")
    assert_input_error(code, out, err)
    assert err == "error: genus 5 outside 1..4\n"


def test_surface_default_bounds_take_genus_4(capsys):
    code, out, _ = run(capsys, "surface", "--genus", "4", "--index", "2")
    assert code == 0
    assert out.splitlines()[-1] == "subgroups=255 all_checks=pass"


def test_surface_beyond_the_table_edge_bound_is_input_error(capsys):
    # a torus table of index 1000 has 2000 edges: over the enumeration's
    # bound of 512, so one error line instead of a RecursionError
    code, out, err = run(
        capsys, "surface", "--genus", "1", "--index", "1000", "--max-index", "1000"
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: index 1000 over 2 generators gives 2000 table edges, more than 512\n"
    )


GENUS2_PRESENTATION = "gens: a b c d\nrel: abABcdCD\n"

# SHA-256 of stdout, computed with the word-building rewriting this output
# must keep: (presentation, table, rewrite digest, basis digest)
PINNED_REWRITES = [
    (
        GENUS2_PRESENTATION,
        "n=3\na: 0 1 2\nb: 0 1 2\nc: 0 1 2\nd: 1 2 0\n",
        "35e095259ba676e8fe50b7e5c976773e50cdce854b1196488a9adb9fdb528a5d",
        "54ab261628b35b390c4f137b58969a905a562ea665909c3d6ed1621052654418",
    ),
    (
        GENUS2_PRESENTATION,
        "n=3\na: 1 0 2\nb: 1 0 2\nc: 2 0 1\nd: 0 1 2\n",
        "a43d7e7703798d589a536db2eba5a77967d81fc78d28815e933fc8129aa72bae",
        "869e143de217820c811167fd1d83e8d6b2bfb95b56536a3ae5c3c7ebf3393e73",
    ),
    (
        GENUS2_PRESENTATION,
        "n=3\na: 1 2 0\nb: 2 1 0\nc: 2 1 0\nd: 1 2 0\n",
        "fe238d3c96ce6a75fb297502deb6586d97bfd2f2d5638a153b71265a73e96983",
        "06838c19316c75548805d71bbfa1e4560eb0b6d28f9fcb6abbe9e9707a17d10c",
    ),
    (
        "gens: a b c\nrel: aa\nrel: bbb\nrel: c\nrel: abab\n",
        "n=6\na: 1 0 5 4 3 2\nb: 2 4 3 0 5 1\nc: 0 1 2 3 4 5\n",
        "b40fb877f0a85b30e81a077e459e3f78facc15030b1152c83de2f7356fd73f96",
        "5fcc73fa4178fa9aafd8221622d432a2024160bd71ce1f5e3299f50176718b9d",
    ),
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "args, digest",
    [
        (("2", "3"), "69874e48a383fc2d35a829476029ef31169ffb785781334f6e121efb343ae8f2"),
        (("3", "2"), "8d57d4de98f986cf081e13dc9fd26796053d65676741145789891f2635f6c6fc"),
        (
            ("1", "8", "--max-index", "8"),
            "51f1d60eac53bce7db81ea127f5d6af5489d291bc186c03e5e9a737f5c0bb78b",
        ),
        # two-digit coset ids: the order is the text order, not tuple order
        (
            ("1", "11", "--max-index", "11"),
            "3ecbee43e24e59ac29aa43fa53e8595a8c2cdb776ddb1656f86e38d7f9090552",
        ),
        (
            ("1", "12", "--max-index", "12"),
            "264d55f45900eb80e3458090d475ffc5bdc2ee87b86b10577eae25d121c01eb0",
        ),
    ],
    ids=["g2-n3", "g3-n2", "g1-n8", "g1-n11", "g1-n12"],
)
def test_surface_stdout_pinned(capsys, args, digest):
    genus, index, *rest = args
    code, out, _ = run(capsys, "surface", "--genus", genus, "--index", index, *rest)
    assert code == 0
    assert sha256(out) == digest


@pytest.mark.parametrize(
    "presentation, table, rewrite_digest, basis_digest",
    PINNED_REWRITES,
    ids=["genus2-first", "genus2-middle", "genus2-last", "abc-s3"],
)
def test_rewrite_and_basis_stdout_pinned(
    capsys, tmp_path, presentation, table, rewrite_digest, basis_digest
):
    pres_path = tmp_path / "p.pres"
    pres_path.write_text(presentation)
    table_path = tmp_path / "t.table"
    table_path.write_text(table)
    code, out, _ = run(
        capsys, "rewrite", "--presentation", str(pres_path), "--table", str(table_path)
    )
    assert (code, sha256(out)) == (0, rewrite_digest)
    code, out, _ = run(capsys, "basis", "--table", str(table_path))
    assert (code, sha256(out)) == (0, basis_digest)


def test_rewrite(capsys, tmp_path):
    pres = tmp_path / "free.pres"
    pres.write_text("gens: a\nrel: aaaa\n")
    table = tmp_path / "flip.table"
    table.write_text("n=2\na: 1 0\n")
    code, out, _ = run(
        capsys, "rewrite", "--presentation", str(pres), "--table", str(table)
    )
    assert code == 0
    assert out.splitlines() == [
        "generators=1 relators=2",
        "x0=aa",
        "rel: x0 x0",
        "rel: x0 x0",
    ]


def test_rewrite_rejects_unkilled_relator(capsys, tmp_path):
    pres = tmp_path / "p.pres"
    pres.write_text("gens: a b\nrel: b\n")
    table = tmp_path / "t.table"
    table.write_text("n=3\na: 1 0 2\nb: 0 2 1\n")
    code, out, _ = run(
        capsys, "rewrite", "--presentation", str(pres), "--table", str(table)
    )
    assert code == 1
    assert out.startswith("REJECTED")


def test_rewrite_names_first_unkilled_relator(capsys, tmp_path):
    # relator by relator the first failure is (a, 2); coset by coset it
    # would be (baB, 1)
    pres = tmp_path / "p.pres"
    pres.write_text("gens: a b\nrel: a\nrel: baB\n")
    table = tmp_path / "t.table"
    table.write_text("n=4\na: 0 1 3 2\nb: 1 2 0 3\n")
    code, out, _ = run(
        capsys, "rewrite", "--presentation", str(pres), "--table", str(table)
    )
    assert (code, out) == (1, "REJECTED: relator a does not fix coset 2\n")


def test_rewrite_rejects_other_alphabet(capsys, tmp_path):
    pres = tmp_path / "p.pres"
    pres.write_text("gens: a b c\nrel: abAB\n")
    table = tmp_path / "t.table"
    table.write_text("n=2\na: 1 0\nb: 0 1\n")
    code, out, err = run(
        capsys, "rewrite", "--presentation", str(pres), "--table", str(table)
    )
    assert_input_error(code, out, err)


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "witness", "--presentation", str(tmp_path / "nope"),
                       "--relator", "aa")
    assert code == 2


def test_witness_rejects_a_line_that_is_neither_gens_nor_rel(capsys, tmp_path):
    pres = tmp_path / "bad.pres"
    pres.write_text("gens: a b\nfoo: aa\n")
    code, out, err = run(capsys, "witness", "--presentation", str(pres), "--relator", "aa")
    assert_input_error(code, out, err)
    assert err == "error: expected a rel: line, got 'foo: aa'\n"


def assert_input_error(code, out, err):
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["table", "basis", "rewrite", "witness", "verify"])
def test_non_utf8_file_is_input_error(capsys, tmp_path, command):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff")
    pres = tmp_path / "aa.pres"
    pres.write_text(AA_PRESENTATION)
    argv = {
        "table": ["table", "--table", bad],
        "basis": ["basis", "--table", bad],
        "rewrite": ["rewrite", "--presentation", pres, "--table", bad],
        "witness": ["witness", "--presentation", bad, "--relator", "aa"],
        "verify": ["verify", "--certificate", bad],
    }[command]
    assert_input_error(*run(capsys, *map(str, argv)))


def test_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    # an ASCII locale, with neither locale coercion nor UTF-8 mode, and every
    # read without an explicit encoding turned into an error; the em space
    # (U+2003, three bytes in UTF-8) is whitespace to the parser
    pres = tmp_path / "aa.pres"
    pres.write_bytes("gens: a\u2003b\nrel: aa\n".encode())
    env = dict(
        os.environ,
        LC_ALL="C",
        PYTHONCOERCECLOCALE="0",
        PYTHONUTF8="0",
        PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
    )
    proc = subprocess.run(
        [
            sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
            "-m", "schreierkit", "witness", "--presentation", str(pres), "--relator", "aa",
        ],
        capture_output=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout)["basis"]["elements"] == ["b", "aa", "abA"]


@pytest.mark.parametrize(
    "text",
    ["[" * 200000 + "]" * 200000, "9" * 5000],
    ids=["nesting-beyond-recursion-limit", "integer-over-4300-digits"],
)
def test_verify_rejects_json_that_does_not_load(capsys, tmp_path, text):
    cert = tmp_path / "cert.json"
    cert.write_text(text)
    assert_input_error(*run(capsys, "verify", "--certificate", str(cert)))


# --- fuzz: malformed file text and argv never end in a traceback -----------

def _splice(seed: str):
    """``seed`` with one slice replaced by a few random characters."""
    return st.tuples(
        st.integers(0, len(seed)), st.integers(0, 6), st.text(max_size=4)
    ).map(lambda t: seed[: t[0]] + t[2] + seed[t[0] + t[1]:])


def _json_paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _json_paths(child, path + (key,))


_CERT_DOC = json.loads(AA_CERTIFICATE)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70) | st.text("abAB1", max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text("an", max_size=2), kids, max_size=2),
    max_leaves=6,
)


def _replace_at(path, value):
    if not path:
        return value
    doc = copy.deepcopy(_CERT_DOC)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_CERT_EDITS = st.builds(
    _replace_at, st.sampled_from(list(_json_paths(_CERT_DOC))), _JSON_VALUES
).map(json.dumps)

FILE_CONTENTS = st.one_of(
    st.binary(max_size=24),
    _splice(TWO_TABLE).map(str.encode),
    _splice(AA_PRESENTATION).map(str.encode),
    _splice(AA_CERTIFICATE).map(str.encode),
    _CERT_EDITS.map(str.encode),
    st.integers(1, 3000).map(lambda d: ("[" * d + "]" * d).encode()),
    st.integers(1, 5000).map(lambda k: ("9" * k).encode()),
)


def cli_outcome(argv):
    """Run the CLI in-process; an exception escaping ``main`` is what the
    console script would print as a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
    assert "Traceback" not in err


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["table", "basis", "rewrite-pres", "rewrite-table", "verify"]),
    FILE_CONTENTS,
    st.none() | st.text("abAB1$", max_size=6),
)
@example("table", b"\xff", None)
@example("verify", ("[" * 200000 + "]" * 200000).encode(), None)
@example("verify", b"9" * 5000, None)
def test_cli_fuzz_file_text(command, content, word):
    with tempfile.TemporaryDirectory() as tmp:
        fuzzed = Path(tmp, "fuzzed")
        fuzzed.write_bytes(content)
        pres, table = Path(tmp, "aa.pres"), Path(tmp, "two.table")
        pres.write_text(AA_PRESENTATION)
        table.write_text(TWO_TABLE)
        argv = {
            "table": ["table", "--table", fuzzed],
            "basis": ["basis", "--table", fuzzed],
            "rewrite-pres": ["rewrite", "--presentation", fuzzed, "--table", table],
            "rewrite-table": ["rewrite", "--presentation", pres, "--table", fuzzed],
            "verify": ["verify", "--certificate", fuzzed],
        }[command]
        if command == "basis" and word is not None:
            argv += ["--through", word]
        assert_clean_exit(*cli_outcome([str(a) for a in argv]))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["reduce", "table", "basis", "rewrite", "verify"]),
    st.lists(
        st.sampled_from(
            ["--gens", "--table", "--through", "--presentation", "--certificate",
             "ab", "abBA", "aa", "a$b", "é", "1", "", "-h", "--", "TABLE", "PRES"]
        )
        | st.text(st.characters(exclude_characters="\x00"), max_size=6),  # argv has no NUL
        max_size=6,
    ),
)
def test_cli_fuzz_argv(command, args):
    with tempfile.TemporaryDirectory() as tmp:
        pres, table = Path(tmp, "aa.pres"), Path(tmp, "two.table")
        pres.write_text(AA_PRESENTATION)
        table.write_text(TWO_TABLE)
        files = {"TABLE": str(table), "PRES": str(pres)}
        argv = [command] + [files.get(a, a) for a in args]
        assert_clean_exit(*cli_outcome(argv))
