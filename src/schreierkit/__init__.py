"""Schreier transversals, subgroup bases, separating finite quotients, and
verifiable certificates for finitely presented groups."""

from .cosets import (
    BASE,
    CosetTable,
    Presentation,
    contains,
    iter_low_index_tables,
    presentation_from_text,
    regular_table,
    table_from_text,
    table_to_text,
)
from .errors import (
    AlphabetMismatch,
    BadBound,
    BadGenus,
    CertificateFormatError,
    EmptyWord,
    ImageTooLarge,
    InvalidAlphabet,
    InvalidHom,
    InvalidLetter,
    InvalidPermutation,
    InvalidTable,
    NotInSubgroup,
    ParseError,
    PrefixesNotSeparated,
    RelatorNotKilled,
    SchreierKitError,
    UnreducedWord,
)
from .lemma import (
    LemmaCertificate,
    VerificationResult,
    certificate_from_json,
    certificate_to_json,
    find_separating_quotient,
    run_lemma,
    verify_certificate,
)
from .perms import (
    FiniteQuotientHom,
    compose,
    image_closure,
    inverse,
    kills_relators,
)
from .rewriting import (
    SubgroupPresentation,
    SurfaceReport,
    rewrite_presentation,
    surface_presentation,
    surface_survey,
)
from .transversal import (
    SchreierTransversal,
    SubgroupBasis,
    basis_through_word,
    basis_to_text,
    crossings,
    fold_verify,
    schreier_basis,
    schreier_transversal,
    transversal_to_text,
    tree_numbering,
)
from .words import (
    Alphabet,
    FreeWord,
    Letter,
    empty_word,
    free_reduce,
    invert,
    is_reduced,
    parse_word,
)

__all__ = [name for name in dir() if not name.startswith("_")]
