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
    separates_prefixes,
    table_from_text,
    table_to_text,
    trace,
)
from .errors import (
    AlphabetMismatch,
    BadBound,
    BadCoset,
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
    eval_word,
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
    AlphabetOrientation,
    SchreierTransversal,
    SubgroupBasis,
    basis_through_word,
    basis_to_text,
    check_basis,
    check_transversal,
    crossings,
    edge_numbering,
    fold_verify,
    schreier_basis,
    schreier_transversal,
    transversal_to_text,
    tree_letters,
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
