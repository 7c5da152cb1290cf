"""End-to-end pipeline: search for a finite quotient separating a relator's
initial segments, build the seeded transversal and the basis through the
relator, and package everything as a machine-checkable certificate.

The search enumerates homomorphisms into symmetric groups, degree
ascending, and within one degree backtracks over generator images in
lexicographic permutation order.  The first homomorphism that kills all
relators and separates the relator's initial segments wins, which makes
the whole pipeline deterministic: equal inputs give byte-identical
certificates, and raising the degree bound never changes a successful
result.  Because the degrees ascend, a degree-``d`` tuple whose images
all fix one point is skipped: its faithful restriction to the other
points is a degree ``d - 1`` tuple, already searched.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from operator import itemgetter

from .cosets import (
    BASE,
    CosetTable,
    Presentation,
    contains,
    prefix_cosets,
    regular_table,
)
from .errors import (
    AlphabetMismatch,
    BadBound,
    CertificateFormatError,
    EmptyWord,
    ImageTooLarge,
)
from .perms import (
    DEFAULT_IMAGE_CEILING,
    FiniteQuotientHom,
    compose,
    inverse,
    kills,
    kills_relators,
)
from .transversal import (
    SchreierTransversal,
    SubgroupBasis,
    basis_letters,
    basis_through_word,
    fold_verify,
)
from .words import Alphabet, FreeWord, invert, parse_word

DEFAULT_MAX_DEGREE = 6

# Largest ``hom.degree`` a certificate may claim.  Verifying builds up to
# DEFAULT_IMAGE_CEILING permutations of this degree; ``witness`` searches
# every degree up to its bound, which is out of reach far below this.
MAX_CERTIFICATE_DEGREE = 64

CERTIFICATE_SCHEMA = "lemma-certificate/1"


@dataclass(frozen=True)
class LemmaCertificate:
    """Full witness bundle: the separating quotient and a basis containing
    the relator, read through its seeded transversal over the regular coset
    table; the certificate reads the table and the transversal through the
    basis."""

    presentation: Presentation
    relator: FreeWord
    hom: FiniteQuotientHom
    image_order: int
    basis: SubgroupBasis
    r_position: int
    matched_inverse: bool
    generator_bound: int

    @property
    def table(self) -> CosetTable:
        return self.basis.table

    @property
    def transversal(self) -> SchreierTransversal:
        return self.basis.transversal


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of :func:`verify_certificate`: truthy iff every check passed."""

    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return not self.failures


def _separated(codes: Sequence[int], cols: list, identity: tuple[int, ...]) -> bool:
    """True iff all initial segments of the word with letter codes
    ``codes``, the empty one and the whole word included, have pairwise
    distinct images, where ``cols[k]`` is the column of code ``k``."""
    acc = identity
    seen = {acc}
    for k in codes:
        acc = compose(acc, cols[k])
        if acc in seen:
            return False
        seen.add(acc)
    return True


def _partitions(n: int, least: int = 1) -> Iterator[tuple[int, ...]]:
    """The partitions of ``n`` into parts of at least ``least``, each as a
    tuple of ascending parts."""
    if n == 0:
        yield ()
    for part in range(least, n + 1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _class_minima(degree: int) -> list[tuple[int, ...]]:
    """The least permutation of each cycle type of S_degree, in
    lexicographic order; cycle types are the conjugacy classes of S_d.

    The least permutation of a type puts its cycles on consecutive points,
    shortest first, each sending a point to the next and its last point
    back to its first.  Fill the images point by point: every image below
    the current point is taken.  At the first point of a cycle the least
    image left is the point itself, a 1-cycle, and otherwise the next
    point; inside a cycle it is the cycle's first point, which closes it,
    and otherwise the next point.  So each cycle is closed as early as the
    type allows, which puts the shortest cycles first."""
    minima = []
    for lengths in _partitions(degree):
        p: list[int] = []
        for length in lengths:
            start = len(p)
            p.extend(range(start + 1, start + length))
            p.append(start)
        minima.append(tuple(p))
    return sorted(minima)


def _centraliser(
    group: Sequence[tuple[int, ...]], p: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """The elements of ``group`` that commute with ``p``, in order."""
    pairs = tuple(enumerate(p))
    out = []
    for s in group:
        for i, j in pairs:
            if s[j] != p[s[i]]:
                break
        else:
            out.append(s)
    return out


def _orbit_minima(
    perms: Sequence[tuple[int, ...]], group: Sequence[tuple[int, ...]], inverses: dict
) -> Sequence[tuple[int, ...]]:
    """The least element of each orbit of ``group`` acting on ``perms`` by
    conjugation, in the order of ``perms``, which must be lexicographic and
    closed under that action.  ``inverses`` maps each element of ``group``
    to its inverse."""
    if len(group) == 1:
        return perms
    # itemgetter(*p)(x) is compose(p, x); the conjugate sending s[i] to
    # s[q[i]] is compose(s^-1, compose(q, s)), two lookups in C
    pairs = [(s, itemgetter(*inverses[s])) for s in group]
    marked: set[tuple[int, ...]] = set()
    minima = []
    for q in perms:
        if q not in marked:
            minima.append(q)
            then_q = itemgetter(*q)
            marked.update([then_s_inv(then_q(s)) for s, then_s_inv in pairs])
    return minima


class _Symmetric:
    """The tables of S_degree that the search reads whatever its input: the
    permutations in lexicographic order, the inverse of each, the
    cycle-type minima, and what :meth:`below` works out under a node whose
    joint centraliser is all of S_d, kept the first time the search
    reaches it."""

    def __init__(self, degree: int) -> None:
        self.degree = degree
        self.perms = tuple(itertools.permutations(range(degree)))
        self.inverses = {q: inverse(q) for q in self.perms}
        self.identity = tuple(range(degree))
        self.class_minima = tuple(_class_minima(degree))
        self._kept: dict[tuple, tuple] = {}

    def below(
        self, centraliser: Sequence[tuple[int, ...]], fixed: tuple[int, ...],
        image: tuple[int, ...], last: bool,
    ) -> tuple:
        """The next generator's joint centraliser, common fixed points and
        candidates once a generator gets ``image``, where ``centraliser`` and
        ``fixed`` are those of the earlier images.  The candidates are the
        least element of each orbit of the new centraliser, in order; at the
        ``last`` generator, only those that move every new fixed point.
        Kept, as tuples, when ``centraliser`` is all of S_d, keyed by
        ``fixed`` too: S_2 is abelian, so after a swap its centraliser is
        whole but no point is fixed."""
        key = (image, fixed, last)
        keep = len(centraliser) == len(self.perms)
        if keep and key in self._kept:
            return self._kept[key]
        if image != self.identity:  # all of it commutes with the identity
            centraliser = _centraliser(centraliser, image)
        fixed = tuple(x for x in fixed if image[x] == x)
        whole = len(centraliser) == len(self.perms)
        candidates: Sequence[tuple[int, ...]] = self.class_minima if whole else self.perms
        if last and self.degree > 1:
            # filtered before the orbit minima are taken: marking fewer
            # permutations is the cheaper order
            for x in fixed:
                candidates = [q for q in candidates if q[x] != x]
        if not whole:
            candidates = _orbit_minima(candidates, centraliser, self.inverses)
        if keep:
            self._kept[key] = (tuple(centraliser), fixed, tuple(candidates))
            return self._kept[key]
        return centraliser, fixed, candidates


@functools.cache
def _symmetric(degree: int) -> _Symmetric:
    """The tables of S_degree, kept for the process; the search asks only
    for ``degree <= DEFAULT_MAX_DEGREE`` (about 0.2 MB in all)."""
    return _Symmetric(degree)


def find_separating_quotient(
    p: Presentation, r: FreeWord, max_degree: int = DEFAULT_MAX_DEGREE
) -> FiniteQuotientHom | None:
    """First homomorphism, in deterministic search order, that kills every
    relator, kills ``r`` itself, and maps the initial segments of ``r`` to
    pairwise distinct permutations.  Returns ``None`` when the search space
    is exhausted.

    Degrees are tried ascending; within one degree, the tuples of generator
    images are searched in lexicographic order.  A relator is checked as
    soon as every generator it mentions has an image, and the leading
    initial segments of ``r`` are checked for separation as soon as every
    generator they mention has one.  These prunes drop only assignments
    that cannot be completed to a solution.

    The search also skips every assignment that is not the least element
    of its orbit under simultaneous conjugation, which cannot change the
    first hit.  The three conditions are invariant under conjugating all
    generator images by one permutation ``s``.  So if ``T`` is the
    lexicographically least solution, every conjugate ``s T s^-1`` is a
    solution too, and ``T <= s T s^-1`` for every ``s``.  Hence ``T[k]`` is
    the least of its orbit under the joint centraliser of ``T[0], ...,
    T[k-1]``, and generator ``k`` ranges only over those orbit minima.
    They are taken from the lexicographic list in order, so the search
    order of the remaining tuples is unchanged and the first tuple found is
    the same as in the plain search (McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 1998).  Where the joint centraliser is all
    of S_d, as for generator 0, its orbits are the conjugacy classes of
    S_d, that is the cycle types, so the orbit minima are the cycle-type
    minima, read off with no conjugation.

    At degree ``d >= 2`` the search also skips every tuple whose images
    all fix one point: the last generator ranges only over permutations
    that move every point the earlier images all fix.  Such a tuple
    generates a group fixing that point, and the group acts faithfully on
    the other ``d - 1`` points.  Relabelling them ``0 .. d-2`` in order
    gives a degree ``d - 1`` tuple that kills the same words and maps the
    initial segments of ``r`` to distinct permutations exactly when the
    original does.  Degree ``d - 1`` was searched in full without a hit, so
    no skipped tuple is a solution.  At ``d = 1`` nothing is skipped: the
    trivial homomorphism is a real witness for a one-letter ``r``.  An
    element of the joint centraliser of the earlier images permutes their
    common fixed points, so the permutations left form whole orbits, and
    the orbit minima among them are those of the plain rule less the
    skipped ones.  Where that centraliser is all of S_d, the common fixed
    points are no point or every point (for ``d >= 3`` the earlier images
    are then all the identity), and the candidates left are the cycle-type
    minima of the derangements.

    What depends only on the degree is kept per process for each ``d <=
    DEFAULT_MAX_DEGREE``: the list of S_d, the inverse of each element, the
    cycle-type minima, and every level below a node whose earlier images
    have all of S_d as joint centraliser, such as the root, read as a node
    whose image is the identity (:class:`_Symmetric`).  Above that bound the
    tables are built per call and dropped, since S_10's alone would hold
    about 1 GB for good.  The images and their inverses sit in one list,
    image then inverse for each generator, indexed by letter code (see
    :mod:`~schreierkit.words`), as ``FiniteQuotientHom.columns`` lists
    them, and the codes of ``r`` and of each relator are read as the words
    hold them.
    """
    if max_degree < 1:
        raise BadBound(f"max_degree must be at least 1, got {max_degree}")
    if len(r) == 0:
        raise EmptyWord("the relator must be nonempty")
    if r.alphabet != p.alphabet:
        raise AlphabetMismatch("relator alphabet differs from presentation alphabet")
    m = p.alphabet.size
    by_level: list[list[tuple[int, ...]]] = [[] for _ in range(m + 1)]
    for rel in p.relators:
        by_level[max(rel.codes) // 2 + 1].append(rel.codes)
    r_codes = r.codes
    # early[k]: the codes of r's longest leading run over generators 0..k,
    # at most |r| - 1 letters; its initial segments are checked for
    # separation once generator k has an image.  It is () where it is no
    # longer than at level k - 1, whose check covered it already.
    early: list[tuple[int, ...]] = []
    covered = 0
    for k in range(m):
        start = covered
        while covered < len(r) - 1 and r_codes[covered] // 2 <= k:
            covered += 1
        early.append(r_codes[:covered] if covered > start else ())

    for degree in range(1, max_degree + 1):
        sym = _symmetric(degree) if degree <= DEFAULT_MAX_DEGREE else _Symmetric(degree)
        cols: list[tuple[int, ...]] = []

        def assign(
            k: int,
            centraliser: Sequence[tuple[int, ...]],
            fixed: tuple[int, ...],
            candidates: Sequence[tuple[int, ...]],
        ) -> bool:
            # centraliser: the joint centraliser of the images fixed so far;
            # fixed: the points they all fix
            last = k == m - 1
            relators = by_level[k + 1]
            for cand in candidates:
                cols.append(cand)
                cols.append(sym.inverses[cand])
                if (
                    (not relators or all(kills(rel, cols) for rel in relators))
                    and (not last or kills(r_codes, cols))
                    and (not early[k] or _separated(early[k], cols, sym.identity))
                    and (last or assign(k + 1, *sym.below(centraliser, fixed, cand, k + 2 == m)))
                ):
                    return True
                del cols[-2:]
            return False

        # the root is a node whose image is the identity
        found = assign(0, *sym.below(sym.perms, sym.identity, sym.identity, m == 1))
        # assign reaches itself through its closure, a cycle only the cyclic
        # collector frees; unbinding sym frees the tables on return
        del sym
        if found:
            return FiniteQuotientHom(p.alphabet, tuple(cols[::2]))
    return None


def run_lemma(
    p: Presentation, r: FreeWord, max_degree: int = DEFAULT_MAX_DEGREE
) -> LemmaCertificate | None:
    """Search, build, and certify.  ``None`` means no separating quotient
    exists within the degree bound.  Raises :class:`ImageTooLarge` when the
    first separating quotient's image group exceeds the closure ceiling
    (:data:`~schreierkit.perms.DEFAULT_IMAGE_CEILING` elements): the
    regular table would have that many cosets."""
    hom = find_separating_quotient(p, r, max_degree)
    if hom is None:
        return None
    table = regular_table(hom)
    basis, position = basis_through_word(table, r)
    n, m = table.n, p.alphabet.size
    certificate = LemmaCertificate(
        presentation=p,
        relator=r,
        hom=hom,
        image_order=n,
        basis=basis,
        r_position=position,
        matched_inverse=False,
        generator_bound=(m - 1) * n,
    )
    result = verify_certificate(certificate)
    if not result:
        raise AssertionError(f"freshly built certificate failed checks: {result.failures}")
    return certificate


def _transversal_valid(tr: SchreierTransversal) -> bool:
    """Whether the representatives form a spanning tree of the table: one
    per coset over the table's alphabet, the empty one at the base only,
    and every other one its parent's plus one letter, the parent being the
    coset it steps back to along that last letter.  By induction on length
    each representative then traces from the base to its own coset, and
    the set is prefix-closed."""
    t, reps = tr.table, tr.reps
    if len(reps) != t.n or any(w.alphabet != t.alphabet for w in reps) or reps[BASE].codes:
        return False
    columns = t.columns
    for c, w in enumerate(reps):
        if c == BASE:
            continue
        codes = w.codes
        if not codes:
            return False
        if reps[columns[codes[-1] ^ 1][c]].codes != codes[:-1]:
            return False
    return True


def _basis_invariants(b: SubgroupBasis) -> bool:
    """Whether the basis has the ``n·(m-1) + 1`` elements of the index-rank
    formula, numbered by the ``edge_index`` values, pairwise distinct, and
    each nonempty and in the subgroup.  The counts come first, so a wrong
    count traces no element."""
    t, elements = b.table, b.elements
    return (
        len(elements) == t.n * (t.alphabet.size - 1) + 1
        and sorted(b.edge_index.values()) == list(range(len(elements)))
        and len(set(elements)) == len(elements)
        and all(u.codes and contains(t, u) for u in elements)
    )


def verify_certificate(c: LemmaCertificate) -> VerificationResult:
    """Re-derive every certificate invariant from raw data, trusting nothing
    from the producer.  Collects all failures instead of stopping early so
    the result names each broken invariant.  The basis is compared, code
    by code and with its ``edge_index``, with what :func:`basis_letters`
    reads off the tree; certificate elements are validated reduced words,
    so an unreduced tree spelling never compares equal."""
    failures: list[str] = []
    p, r = c.presentation, c.relator
    alphabets = (
        [p.alphabet, r.alphabet, c.hom.alphabet, c.table.alphabet]
        + [w.alphabet for w in c.transversal.reps]
        + [u.alphabet for u in c.basis.elements]
    )
    if any(a != p.alphabet for a in alphabets):
        return VerificationResult(("alphabets_consistent",))
    n, m = c.table.n, p.alphabet.size

    if not kills_relators(c.hom, p.relators):
        failures.append("hom_kills_relators")
    try:
        regular: CosetTable | None = regular_table(c.hom)
    except ImageTooLarge:
        regular = None
    # the regular table has one coset per image element
    if regular is None or regular.n != c.image_order or c.image_order != n:
        failures.append("image_order_matches")
    if c.table != regular:
        failures.append("table_matches_regular")
    if not all(contains(c.table, rel) for rel in p.relators):
        failures.append("relators_in_subgroup")
    # one walk along r: the cosets of its initial segments, then its own
    path = prefix_cosets(c.table, r)
    if len(r) == 0 or path[-1] != BASE:
        failures.append("relator_in_subgroup")
    if len(r) == 0 or len(set(path[:-1])) != len(r):
        failures.append("prefixes_separated")

    # the Schreier recomputation needs a valid transversal
    tree_ok = _transversal_valid(c.transversal)
    if not tree_ok:
        failures.append("transversal_valid")
    elif len(r) > 0:
        # the representatives are prefix-closed and trace to their cosets,
        # so if rep(path[i-1]) spells r[:i-1], rep(path[i]) spells r[:i]
        # exactly when it has i letters and ends in r's i-th letter
        reps = c.transversal.reps
        if any(
            len(reps[d]) != i or reps[d].codes[-1] != k
            for i, (d, k) in enumerate(zip(path[1:-1], r.codes), 1)
        ):
            failures.append("transversal_seeded")

    if not _basis_invariants(c.basis):
        failures.append("basis_invariants")
    if not (0 <= c.r_position < len(c.basis.elements) and c.basis.elements[c.r_position] == r):
        failures.append("r_position_valid")

    if tree_ok:
        edge_index, raw_elements = basis_letters(c.transversal, c.basis.flipped)
        if 0 <= c.r_position < len(raw_elements):
            expected_raw = invert(r) if c.matched_inverse else r
            if raw_elements[c.r_position] != expected_raw.codes:
                failures.append("matched_inverse_consistent")
            raw_elements[c.r_position] = r.codes
        if (
            raw_elements != [u.codes for u in c.basis.elements]
            or edge_index != c.basis.edge_index
        ):
            failures.append("basis_matches_schreier_method")

    if c.generator_bound != (m - 1) * n or c.generator_bound != len(c.basis.elements) - 1:
        failures.append("generator_bound_matches")
    if not fold_verify(c.basis):
        failures.append("fold_verify_passes")

    return VerificationResult(tuple(failures))


# ---------------------------------------------------------------------------
# certificate serialization (single structured-text document, JSON tree)
# ---------------------------------------------------------------------------


def certificate_to_json(c: LemmaCertificate) -> str:
    doc = {
        "schema": CERTIFICATE_SCHEMA,
        "presentation": {
            "alphabet": "".join(c.presentation.alphabet.names),
            "relators": [str(rel) for rel in c.presentation.relators],
        },
        "relator": str(c.relator),
        "hom": {
            "degree": c.hom.degree,
            "gen_images": [list(p) for p in c.hom.gen_images],
        },
        "image_order": c.image_order,
        "table": {
            "n": c.table.n,
            "action": [list(p) for p in c.table.gen_images],
        },
        "transversal": [str(w) for w in c.transversal.reps],
        "basis": {
            "flipped": sorted(c.basis.flipped),
            "elements": [str(u) for u in c.basis.elements],
            "edge_index": sorted(
                [coset, gen, position]
                for (coset, gen), position in c.basis.edge_index.items()
            ),
        },
        "r_position": c.r_position,
        "matched_inverse": c.matched_inverse,
        "generator_bound": c.generator_bound,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ``json`` yields no int subclass but ``bool``, which a type check rejects
_INT = {int}


def _require(doc: dict, key: str, kind: type):
    if key not in doc:
        raise CertificateFormatError(f"missing field {key!r}")
    value = doc[key]
    if not (type(value) is int if kind is int else isinstance(value, kind)):
        raise CertificateFormatError(f"field {key!r} must be {kind.__name__}")
    return value


def _bounded(doc: dict, key: str, limit: int, what: str) -> int:
    value = _require(doc, key, int)
    if value > limit:
        raise CertificateFormatError(f"{what} {value} exceeds the limit of {limit}")
    return value


def _int_rows(doc: dict, key: str, what: str) -> tuple[tuple[int, ...], ...]:
    rows = _require(doc, key, list)
    if not all(isinstance(row, list) and set(map(type, row)) <= _INT for row in rows):
        raise CertificateFormatError(f"{what} rows must be lists of integers")
    return tuple(map(tuple, rows))


def _words(doc: dict, key: str, alphabet: Alphabet) -> tuple[FreeWord, ...]:
    words = _require(doc, key, list)
    if not set(map(type, words)) <= {str}:
        raise CertificateFormatError(f"field {key!r} must list word strings")
    return tuple(parse_word(w, alphabet) for w in words)


def certificate_from_json(text: str) -> LemmaCertificate:
    """Parse a certificate document.  Structural problems (bad JSON, missing
    fields, malformed words or permutations, an edge listed twice) raise
    :class:`CertificateFormatError`; semantic tampering is representable and
    left for :func:`verify_certificate` to flag.

    Sizes are bounded before any permutation is built: ``hom.degree`` at
    most :data:`MAX_CERTIFICATE_DEGREE` and ``table.n`` at most
    :data:`~schreierkit.perms.DEFAULT_IMAGE_CEILING`, the largest regular
    table the verifier can build."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # includes JSONDecodeError
        raise CertificateFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    if doc.get("schema") != CERTIFICATE_SCHEMA:
        raise CertificateFormatError(
            f"schema must be {CERTIFICATE_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    try:
        pres_doc = _require(doc, "presentation", dict)
        alphabet = Alphabet.of(_require(pres_doc, "alphabet", str))
        relators = _words(pres_doc, "relators", alphabet)
        presentation = Presentation(alphabet, relators)
        relator = parse_word(_require(doc, "relator", str), alphabet)
        hom_doc = _require(doc, "hom", dict)
        degree = _bounded(hom_doc, "degree", MAX_CERTIFICATE_DEGREE, "hom.degree")
        table_doc = _require(doc, "table", dict)
        n = _bounded(table_doc, "n", DEFAULT_IMAGE_CEILING, "table.n")
        hom = FiniteQuotientHom(alphabet, _int_rows(hom_doc, "gen_images", "hom.gen_images"))
        if hom.degree != degree:
            raise CertificateFormatError("hom degree does not match its images")
        table = CosetTable(alphabet, _int_rows(table_doc, "action", "table.action"))
        if table.n != n:
            raise CertificateFormatError("table n does not match its action")
        transversal = SchreierTransversal(table, _words(doc, "transversal", alphabet))
        basis_doc = _require(doc, "basis", dict)
        flipped = _require(basis_doc, "flipped", list)
        if not (set(map(type, flipped)) <= _INT and all(0 <= g < alphabet.size for g in flipped)):
            raise CertificateFormatError("flipped must list generator indices")
        repeated = [g for g, count in Counter(flipped).items() if count > 1]
        if repeated:
            raise CertificateFormatError(f"flipped lists generator {repeated[0]} more than once")
        elements = _words(basis_doc, "elements", alphabet)
        edge_index: dict[tuple[int, int], int] = {}
        for entry in _require(basis_doc, "edge_index", list):
            if not (isinstance(entry, list) and len(entry) == 3 and set(map(type, entry)) <= _INT):
                raise CertificateFormatError("edge_index entries must be [coset, gen, pos]")
            coset, gen, position = entry
            if (coset, gen) in edge_index:
                raise CertificateFormatError(
                    f"edge_index lists edge ({coset}, {gen}) more than once"
                )
            edge_index[(coset, gen)] = position
        return LemmaCertificate(
            presentation=presentation,
            relator=relator,
            hom=hom,
            image_order=_require(doc, "image_order", int),
            basis=SubgroupBasis(transversal, frozenset(flipped), elements, edge_index),
            r_position=_require(doc, "r_position", int),
            matched_inverse=_require(doc, "matched_inverse", bool),
            generator_bound=_require(doc, "generator_bound", int),
        )
    except CertificateFormatError:
        raise
    except Exception as exc:  # malformed words, perms, tables, ...
        raise CertificateFormatError(f"malformed certificate: {exc}") from exc
