"""Command-line surface.

Exit codes: 0 success, 1 mathematical negative (NOTFOUND, failed
verification, unmet precondition), 2 usage or input error (including a
file that cannot be read or is not UTF-8).  Stdout is
machine-parseable for codes 0 and 1; diagnostics go to stderr.

:func:`main` builds its parser once per process, on its first call, and
reuses it; :func:`build_parser` still returns a fresh one.  The parser
carries no handler: ``main`` runs the module's ``cmd_<command>`` looked up
by name at each call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .cosets import presentation_from_text, table_from_text, table_to_text
from .errors import (
    NotInSubgroup,
    PrefixesNotSeparated,
    RelatorNotKilled,
    SchreierKitError,
)
from .lemma import (
    DEFAULT_MAX_DEGREE,
    certificate_from_json,
    certificate_to_json,
    run_lemma,
    verify_certificate,
)
from .perms import DEFAULT_IMAGE_CEILING
from .rewriting import (
    DEFAULT_REPORT_MAX_GENUS,
    DEFAULT_REPORT_MAX_INDEX,
    rewrite_presentation,
    surface_survey,
)
from .transversal import (
    basis_through_word,
    basis_to_text,
    schreier_basis,
    schreier_transversal,
    transversal_to_text,
)
from .words import Alphabet, parse_word


def _read(path: str) -> str:
    # UTF-8 whatever the locale, so a file that is not UTF-8 is an input
    # error (exit 2) everywhere
    return Path(path).read_text(encoding="utf-8")


def _inferred_alphabet(text: str) -> Alphabet:
    names = sorted({ch.lower() for ch in text if ch.lower().isalpha()})
    return Alphabet(tuple(names)) if names else Alphabet.of("a")


def cmd_reduce(args: argparse.Namespace) -> int:
    alphabet = Alphabet.of(args.gens) if args.gens is not None else _inferred_alphabet(args.word)
    print(parse_word(args.word, alphabet))
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    presentation = presentation_from_text(_read(args.presentation))
    relator = parse_word(args.relator, presentation.alphabet)
    certificate = run_lemma(presentation, relator, args.max_degree)
    if certificate is None:
        print("NOTFOUND")
        return 1
    sys.stdout.write(certificate_to_json(certificate))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    certificate = certificate_from_json(_read(args.certificate))
    result = verify_certificate(certificate)
    if result:
        print("OK")
        return 0
    for failure in result.failures:
        print(failure)
    return 1


def cmd_basis(args: argparse.Namespace) -> int:
    table = table_from_text(_read(args.table))
    if args.through is None:
        transversal = schreier_transversal(table)
        basis = schreier_basis(transversal)
        position = None
    else:
        word = parse_word(args.through, table.alphabet)
        try:
            basis, position = basis_through_word(table, word)
        except (NotInSubgroup, PrefixesNotSeparated) as exc:
            print(f"REJECTED: {exc}")
            return 1
        transversal = basis.transversal
    sys.stdout.write(transversal_to_text(transversal))
    sys.stdout.write(basis_to_text(basis))
    if position is not None:
        print(f"r_position={position}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    table = table_from_text(_read(args.table))
    sys.stdout.write(table_to_text(table))
    return 0


def cmd_surface(args: argparse.Namespace) -> int:
    survey = surface_survey(
        args.genus, args.index, max_genus=args.max_genus, max_index=args.max_index
    )
    all_pass = True
    count = 0
    for report, sp in survey:
        passed = report.checks_pass
        all_pass = all_pass and passed
        sys.stdout.write(
            f"subgroup={count} genus={report.genus} index={report.index}"
            f" rho_G={report.rho_G} rho_G1_formula={report.rho_G1_formula}"
            f" rho_G1_counts={report.rho_G1_counts} euler_G={report.euler_G}"
            f" euler_G1={report.euler_G1} checks={'pass' if passed else 'fail'}\n"
            f"{table_to_text(sp.table)}\n"
        )
        count += 1
    print(f"subgroups={count} all_checks={'pass' if all_pass else 'fail'}")
    return 0 if all_pass else 1


def cmd_rewrite(args: argparse.Namespace) -> int:
    presentation = presentation_from_text(_read(args.presentation))
    table = table_from_text(_read(args.table))
    try:
        sp = rewrite_presentation(presentation, table)
    except RelatorNotKilled as exc:
        print(f"REJECTED: {exc}")
        return 1
    print(f"generators={sp.generator_count} relators={len(sp.relators)}")
    for i, element in enumerate(sp.basis.elements):
        print(f"{sp.symbol_name(i)}={element}")
    for relator in sp.relators:
        print(f"rel: {sp.relator_text(relator)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schreierkit",
        description="Schreier transversals, subgroup bases, and relator-separating certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reduce_p = sub.add_parser("reduce", help="freely reduce a word")
    reduce_p.add_argument("word")
    reduce_p.add_argument("--gens", help="generator names (default: inferred)")

    witness_p = sub.add_parser(
        "witness", help="find a separating quotient and emit a certificate"
    )
    witness_p.add_argument("--presentation", required=True)
    witness_p.add_argument("--relator", required=True)
    witness_p.add_argument(
        "--max-degree",
        type=int,
        default=DEFAULT_MAX_DEGREE,
        help="largest degree of symmetric group to search (default %(default)s);"
        f" a first witness whose image group has more than {DEFAULT_IMAGE_CEILING}"
        " elements exits 2 with 'error: image group exceeds the ceiling ...'",
    )

    verify_p = sub.add_parser("verify", help="re-check a certificate from raw data")
    verify_p.add_argument("--certificate", required=True)

    basis_p = sub.add_parser("basis", help="transversal and basis of a coset table")
    basis_p.add_argument("--table", required=True)
    basis_p.add_argument("--through", help="build the basis through this word")

    table_p = sub.add_parser("table", help="validate and echo a coset table file")
    table_p.add_argument("--table", required=True)

    surface_p = sub.add_parser(
        "surface", help="rank-deficiency reports for surface-group subgroups"
    )
    surface_p.add_argument("--genus", type=int, required=True)
    surface_p.add_argument("--index", type=int, required=True)
    surface_p.add_argument("--max-genus", type=int, default=DEFAULT_REPORT_MAX_GENUS)
    surface_p.add_argument("--max-index", type=int, default=DEFAULT_REPORT_MAX_INDEX)

    rewrite_p = sub.add_parser(
        "rewrite", help="rewrite relators to a subgroup presentation"
    )
    rewrite_p.add_argument("--presentation", required=True)
    rewrite_p.add_argument("--table", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a rebound ``cmd_*`` is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (SchreierKitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
