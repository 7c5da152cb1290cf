"""Finite-index subgroups of a free group as complete coset tables.

A :class:`CosetTable` is a :class:`~schreierkit.perms.FiniteQuotientHom`
acting on coset identifiers ``0 .. n-1``; coset ``0`` is the base coset of
the subgroup itself.  Tables are validated on construction: every
generator's column must be a bijection and the action must be transitive
from the base.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    AlphabetMismatch,
    BadBound,
    BadCoset,
    EmptyWord,
    ImageTooLarge,
    InvalidTable,
    ParseError,
)
from .perms import FiniteQuotientHom, compose, image_closure
from .words import Alphabet, FreeWord, parse_word

BASE = 0
DEFAULT_MAX_INDEX = 8


@dataclass(frozen=True)
class CosetTable(FiniteQuotientHom):
    """A homomorphism into S_n whose action is transitive from the base:
    generator ``g`` sends coset ``c`` to ``gen_images[g][c]``."""

    invalid = InvalidTable

    def __post_init__(self) -> None:
        super().__post_init__()
        columns = [self.image(g, s) for g in range(self.alphabet.size) for s in (1, -1)]
        reached = {BASE}
        frontier = deque([BASE])
        while frontier:
            c = frontier.popleft()
            for d in [col[c] for col in columns]:
                if d not in reached:
                    reached.add(d)
                    frontier.append(d)
        if len(reached) != self.n:
            raise InvalidTable(f"only {len(reached)} of {self.n} cosets reachable from base")

    @property
    def n(self) -> int:
        """The index: number of cosets."""
        return self.degree


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: alphabet plus nonempty reduced relators."""

    alphabet: Alphabet
    relators: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        for rel in self.relators:
            if rel.alphabet != self.alphabet:
                raise AlphabetMismatch("relator alphabet differs from presentation alphabet")
            if len(rel) == 0:
                raise EmptyWord("relators must be nonempty")


def regular_table(h: FiniteQuotientHom) -> CosetTable:
    """Coset table of the full preimage of the trivial subgroup of the image
    group: cosets are the image elements in :func:`image_closure` order, the
    identity is the base, and each generator acts by right multiplication.
    The result is regular, so it is the table of a normal subgroup."""
    elements = image_closure(h)
    position = {p: i for i, p in enumerate(elements)}
    columns = tuple(
        tuple(position[compose(e, img)] for e in elements) for img in h.gen_images
    )
    return CosetTable(h.alphabet, columns)


def trace(t: CosetTable, start: int, w: FreeWord) -> int:
    """Apply each letter's action to the coset, left to right."""
    if not 0 <= start < t.n:
        raise BadCoset(f"coset {start} out of range for index {t.n}")
    if w.alphabet != t.alphabet:
        raise AlphabetMismatch("word and table use different alphabets")
    c = start
    for gen, sign in w.letters:
        c = t.step(c, gen, sign)
    return c


def contains(t: CosetTable, w: FreeWord) -> bool:
    """Membership in the subgroup: the word fixes the base coset."""
    return trace(t, BASE, w) == BASE


def separates_prefixes(t: CosetTable, w: FreeWord) -> bool:
    """True iff the initial segments of ``w`` trace to pairwise distinct
    cosets from the base."""
    if len(w) == 0:
        raise EmptyWord("the empty word has no initial-segment list")
    if w.alphabet != t.alphabet:
        raise AlphabetMismatch("word and table use different alphabets")
    c = BASE
    cosets = {c}
    for gen, sign in w.letters[:-1]:
        c = t.step(c, gen, sign)
        cosets.add(c)
    return len(cosets) == len(w)


def is_regular(t: CosetTable) -> bool:
    """True iff the permutation group generated by the table's columns has
    order exactly ``n`` (only the identity fixes a point), i.e. the table is
    the regular action of a quotient group and the subgroup is normal.
    A transitive action generates at least ``n`` elements, so a closure
    capped at ``n`` decides it."""
    try:
        return len(image_closure(t, t.n)) == t.n
    except ImageTooLarge:
        return False


def canonical_form(t: CosetTable) -> CosetTable:
    """Renumber cosets by breadth-first discovery from the base, visiting
    neighbors by (generator ascending, sign +1 before -1)."""
    m = t.alphabet.size
    new_id = {BASE: 0}
    order = [BASE]
    for c in order:
        for g in range(m):
            for s in (1, -1):
                d = t.step(c, g, s)
                if d not in new_id:
                    new_id[d] = len(order)
                    order.append(d)
    columns = []
    for g in range(m):
        images = [0] * t.n
        for old, new in new_id.items():
            images[new] = new_id[t.step(old, g, 1)]
        columns.append(tuple(images))
    return CosetTable(t.alphabet, tuple(columns))


def _scan_relator(
    fwd: list[list[int]],
    bwd: list[list[int]],
    alpha: int,
    rel: tuple,
    trail: list[tuple[int, int, int]],
) -> tuple[bool, bool]:
    """Trace one relator at one coset through a partial table.

    Returns ``(consistent, deduced)``.  A scan that completes must return to
    its start; a scan with exactly one undefined edge forces that edge (the
    deduction is appended to ``trail`` so it can be undone on backtrack).
    """
    f, i = alpha, 0
    b, j = alpha, len(rel) - 1
    while i <= j:
        g, s = rel[i]
        nxt = fwd[g][f] if s > 0 else bwd[g][f]
        if nxt < 0:
            break
        f, i = nxt, i + 1
    if i > j:
        return f == b, False
    while j >= i:
        g, s = rel[j]
        prev = bwd[g][b] if s > 0 else fwd[g][b]
        if prev < 0:
            break
        b, j = prev, j - 1
    if j < i:
        # both scans crossed the same edge with different endpoints
        return False, False
    if j == i:
        g, s = rel[i]
        src, dst = (f, b) if s > 0 else (b, f)
        if fwd[g][src] >= 0 or bwd[g][dst] >= 0:
            return False, False
        fwd[g][src] = dst
        bwd[g][dst] = src
        trail.append((g, src, dst))
        return True, True
    return True, False


def low_index_tables(
    p: Presentation, n: int, max_index: int = DEFAULT_MAX_INDEX
) -> list[CosetTable]:
    """All coset tables with exactly ``n`` cosets on which every relator acts
    trivially, one representative per renumbering class with the base fixed.

    The search is plain backtracking over partial tables.  Undefined slots
    are filled in (coset, generator, sign) order; candidate targets are the
    already-introduced cosets in ascending order, then one fresh coset.
    That discipline makes every completed table its own canonical BFS
    renumbering, so distinct outputs are distinct subgroups of index ``n``.
    After each definition all relator traces are closed up: a trace that
    completes inconsistently prunes the branch, a trace with a single gap
    forces the missing edge.  Output is sorted by serialized canonical form.

    A complete table needs no further check that the relators act
    trivially.  It is reached only through a closure that succeeded, and
    that closure's last pass deduced nothing, so it scanned the complete
    table itself: it traced every relator from every coset through to the
    end, and each trace came back to its start.
    """
    if not 1 <= n <= max_index:
        raise BadBound(f"index {n} outside 1..{max_index}")
    m = p.alphabet.size
    rels = [w.letters for w in p.relators]
    fwd = [[-1] * n for _ in range(m)]
    bwd = [[-1] * n for _ in range(m)]
    found: list[CosetTable] = []
    used = 1

    def first_undefined() -> tuple[int, int, int] | None:
        for c in range(used):
            for g in range(m):
                if fwd[g][c] < 0:
                    return c, g, 1
                if bwd[g][c] < 0:
                    return c, g, -1
        return None

    def close_relators(trail: list[tuple[int, int, int]]) -> bool:
        progress = True
        while progress:
            progress = False
            for c in range(used):
                for rel in rels:
                    ok, deduced = _scan_relator(fwd, bwd, c, rel, trail)
                    if not ok:
                        return False
                    progress = progress or deduced
        return True

    def undo(trail: list[tuple[int, int, int]]) -> None:
        while trail:
            g, src, dst = trail.pop()
            fwd[g][src] = -1
            bwd[g][dst] = -1

    def descend() -> None:
        nonlocal used
        slot = first_undefined()
        if slot is None:
            if used == n:
                found.append(CosetTable(p.alphabet, tuple(map(tuple, fwd))))
            return
        c, g, s = slot
        column_taken = bwd[g] if s > 0 else fwd[g]
        candidates = [d for d in range(used) if column_taken[d] < 0]
        if used < n:
            candidates.append(used)
        for d in candidates:
            trail: list[tuple[int, int, int]] = []
            fresh = d == used
            if fresh:
                used += 1
            src, dst = (c, d) if s > 0 else (d, c)
            fwd[g][src] = dst
            bwd[g][dst] = src
            trail.append((g, src, dst))
            if close_relators(trail):
                descend()
            undo(trail)
            if fresh:
                used -= 1

    descend()
    return sorted(found, key=table_to_text)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def table_to_text(t: CosetTable) -> str:
    """Bit-exact coset-table format: ``n=<int>`` then one line per generator
    ``<name>: i0 i1 ... i(n-1)``."""
    lines = [f"n={t.n}"]
    for g, name in enumerate(t.alphabet.names):
        lines.append(f"{name}: " + " ".join(str(i) for i in t.gen_images[g]))
    return "\n".join(lines) + "\n"


def table_from_text(text: str) -> CosetTable:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("n="):
        raise InvalidTable("table file must start with an n=<int> line")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise InvalidTable(f"bad index line {lines[0]!r}") from exc
    if n < 1:
        raise InvalidTable(f"index must be positive, got {n}")
    names: list[str] = []
    columns: list[tuple[int, ...]] = []
    for line in lines[1:]:
        if ":" not in line:
            raise InvalidTable(f"bad generator line {line!r}")
        name, _, rest = line.partition(":")
        names.append(name.strip())
        try:
            images = tuple(int(part) for part in rest.split())
        except ValueError as exc:
            raise InvalidTable(f"bad coset ids in {line!r}") from exc
        if len(images) != n or sorted(images) != list(range(n)):
            raise InvalidTable(f"generator line is not a permutation of 0..{n - 1}: {line!r}")
        columns.append(images)
    try:
        alphabet = Alphabet(tuple(names))
    except ValueError as exc:
        raise InvalidTable(str(exc)) from exc
    return CosetTable(alphabet, tuple(columns))


def presentation_to_text(p: Presentation) -> str:
    """Presentation file format: ``gens: a b c`` then one ``rel: <word>``
    line per relator."""
    lines = ["gens: " + " ".join(p.alphabet.names)]
    for rel in p.relators:
        lines.append(f"rel: {rel}")
    return "\n".join(lines) + "\n"


def presentation_from_text(text: str) -> Presentation:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("gens:"):
        raise ParseError("presentation file must start with a gens: line")
    names = tuple(lines[0][len("gens:"):].split())
    try:
        alphabet = Alphabet(names)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    relators = []
    for line in lines[1:]:
        if not line.startswith("rel:"):
            raise ParseError(f"expected a rel: line, got {line!r}")
        relators.append(parse_word(line[len("rel:"):].strip(), alphabet))
    return Presentation(alphabet, tuple(relators))
