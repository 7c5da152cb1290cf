import json

from schreierkit import FiniteQuotientHom, Perm, lemma
from schreierkit.perms import DEFAULT_IMAGE_CEILING
from schreierkit.cli import main

AA_PRESENTATION = "gens: a b\nrel: aa\n"
TWO_TABLE = "n=2\na: 1 0\nb: 0 1\n"
HIGMAN_PRESENTATION = (
    "gens: a b c d\nrel: abABB\nrel: bcBCC\nrel: cdCDD\nrel: daDAA\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_witness_image_beyond_ceiling_is_input_error(capsys, tmp_path, monkeypatch):
    # a first witness generating S_8 (40320 elements) has no regular table
    # within the closure ceiling
    def huge_witness(p, r, max_degree):
        return FiniteQuotientHom(
            p.alphabet, (Perm((1, 0, 2, 3, 4, 5, 6, 7)), Perm((1, 2, 3, 4, 5, 6, 7, 0)))
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


def oversized_certificate(capsys, tmp_path, edit):
    pres = tmp_path / "aa.pres"
    pres.write_text(AA_PRESENTATION)
    _, out, _ = run(capsys, "witness", "--presentation", str(pres), "--relator", "aa")
    doc = json.loads(out)
    edit(doc)
    cert = tmp_path / "oversized.json"
    cert.write_text(json.dumps(doc))
    return run(capsys, "verify", "--certificate", str(cert))


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
    assert code == 1
    assert out.startswith("REJECTED")
    code, out, _ = run(capsys, "basis", "--table", str(table), "--through", "aaaa")
    assert code == 1
    assert out.startswith("REJECTED")


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


def test_surface_genus1(capsys):
    code, out, _ = run(capsys, "surface", "--genus", "1", "--index", "3")
    assert code == 0
    for line in out.splitlines():
        if line.startswith("subgroup="):
            assert "rho_G1_formula=1" in line


def test_surface_bounds(capsys):
    code, _, err = run(capsys, "surface", "--genus", "5", "--index", "2")
    assert code == 2


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


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "witness", "--presentation", str(tmp_path / "nope"),
                       "--relator", "aa")
    assert code == 2
