"""Finite-index subgroups of a free group as complete coset tables.

A :class:`CosetTable` is a :class:`~schreierkit.perms.FiniteQuotientHom`
acting on coset identifiers ``0 .. n-1``; coset ``0`` is the base coset of
the subgroup itself.  Tables are validated on construction: every
generator's column must be a bijection and the action must be transitive
from the base.  The one exception is the leaf of
:func:`iter_low_index_tables`, whose complete columns are permutations,
hold their own inverses and act transitively by construction.  That
enumeration keeps one packed key per subgroup, sorts the keys, and builds
each table only when it is consumed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .errors import (
    AlphabetMismatch,
    BadBound,
    BadCoset,
    EmptyWord,
    InvalidTable,
    ParseError,
)
from .perms import FiniteQuotientHom, compose, image_closure
from .words import Alphabet, FreeWord, letter_codes, parse_word

BASE = 0
DEFAULT_MAX_INDEX = 8
# the low-index search recurses once per branching, and each branching fills
# at least one of a table's n·m edges: at most n·m + 1 frames deep, which
# this keeps well inside Python's default recursion limit of 1000
_MAX_TABLE_EDGES = 512


@dataclass(frozen=True)
class CosetTable(FiniteQuotientHom):
    """A homomorphism into S_n whose action is transitive from the base:
    generator ``g`` sends coset ``c`` to ``gen_images[g][c]``."""

    invalid = InvalidTable

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n == 0:
            raise InvalidTable("a coset table needs at least one coset, got index 0")
        # an inverse is a positive power of its permutation, so the forward
        # columns reach every coset that the group reaches
        reached = {BASE}
        frontier = deque([BASE])
        while frontier:
            c = frontier.popleft()
            for d in [col[c] for col in self.gen_images]:
                if d not in reached:
                    reached.add(d)
                    frontier.append(d)
        if len(reached) != self.n:
            raise InvalidTable(f"only {len(reached)} of {self.n} cosets reachable from base")

    @property
    def n(self) -> int:
        """The index: number of cosets."""
        return self.degree

    @classmethod
    def _trusted(
        cls,
        alphabet: Alphabet,
        gen_images: tuple[tuple[int, ...], ...],
        inverses: tuple[tuple[int, ...], ...],
    ) -> CosetTable:
        """Build without any check from tuple columns and their inverse
        columns that the caller has already proved to be a table, as
        :func:`iter_low_index_tables` does for its leaves; the result equals
        and hashes like the validated construction."""
        t = object.__new__(cls)
        object.__setattr__(t, "alphabet", alphabet)
        object.__setattr__(t, "gen_images", gen_images)
        object.__setattr__(t, "inverse_images", inverses)
        return t


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
    images, inverses = t.gen_images, t.inverse_images
    c = start
    for gen, sign in w.letters:
        c = images[gen][c] if sign > 0 else inverses[gen][c]
    return c


def contains(t: CosetTable, w: FreeWord) -> bool:
    """Membership in the subgroup: the word fixes the base coset."""
    return trace(t, BASE, w) == BASE


def prefix_cosets(t: CosetTable, w: FreeWord) -> list[int]:
    """The cosets that the initial segments of ``w`` reach from the base, in
    one walk: the empty segment's first and ``w``'s own last, so
    ``len(w) + 1`` of them."""
    if w.alphabet != t.alphabet:
        raise AlphabetMismatch("word and table use different alphabets")
    path = [BASE]
    for gen, sign in w.letters:
        path.append(t.step(path[-1], gen, sign))
    return path


def _scan_rotation(
    fc: list[list[int]],
    bc: list[list[int]],
    letters: tuple[int, ...],
    alpha: int,
    trail: list[tuple[int, int, int]],
) -> bool:
    """Trace one compiled relator rotation at one coset through a partial
    table; return False iff the trace contradicts the table.

    ``fc[i]`` is the column that letter ``i`` is read forward by and
    ``bc[i]`` the column it is read backward by, both live table columns.
    A trace that completes must return to its start.  A trace with exactly
    one undefined letter forces that edge: it is written into both columns
    and appended to ``trail`` as ``(letters[i], src, dst)``, so it is both
    undone on backtrack and queued for its own scans.
    """
    f = b = alpha
    i, j = 0, len(fc) - 1
    while i <= j:
        nxt = fc[i][f]
        if nxt < 0:
            break
        f, i = nxt, i + 1
    else:
        return f == alpha
    while j > i:
        prev = bc[j][b]
        if prev < 0:
            return True
        b, j = prev, j - 1
    if bc[i][b] >= 0:
        # the backward trace crosses the gap and lands away from ``f``
        return False
    fc[i][f] = b
    bc[i][b] = f
    trail.append((letters[i], f, b))
    return True


def iter_low_index_tables(
    p: Presentation, n: int, max_index: int = DEFAULT_MAX_INDEX
) -> Iterator[CosetTable]:
    """All coset tables with exactly ``n`` cosets on which every relator acts
    trivially, one representative per renumbering class with the base fixed.
    A generator: the whole enumeration runs when the first table is asked
    for (``BadBound`` is raised then: for ``n`` outside ``1..max_index``, or
    for a table of more than 512 edges, ``n`` times the generator count),
    and keeps one packed key per table, not the table; each table is built
    from its key when it is consumed.

    The search is plain backtracking over partial tables.  Column ``k``
    holds the partial action of the letter with code ``k`` (see
    :mod:`~schreierkit.words`), ``k ^ 1`` being its inverse.  It runs in two
    phases.  While fewer than ``n`` cosets are in, a cursor moves forward
    over the undefined slots in (coset, generator, sign) order, i.e.
    (coset, ``k``) order; candidate targets are the already-introduced
    cosets in ascending order, then one fresh coset.  So each coset first
    appears, in slot order, at the slot where it came in, and every slot
    before the cursor is defined.  Once every coset is in, no slot can take
    a fresh coset, so any completion is its own canonical BFS renumbering
    whatever order the remaining slots are filled in; the search then
    branches on the first free slot of the forward column with the fewest
    free slots (fail first: a column with one free slot is forced).
    Distinct outputs are therefore distinct subgroups of index ``n``.

    Output is sorted by serialized canonical form, :func:`table_to_text`.
    A completed table is kept as one packed key: its ``2m`` live columns
    in signed-letter order, one coset id after another, as ``bytes`` while
    ``n <= 256`` and as a tuple above that, where the edge bound leaves
    only rank one, with at most one subgroup.  While ``n <= 10`` every
    coset id is one digit, so every generator line has the same layout and
    text order is tuple order on ``gen_images``.  Every column
    has length ``n`` and an inverse column is a function of its forward
    column, so that is also the keys' own order, and they are sorted as
    they are.  Above that the key's forward ids joined as text are the
    sort key: every generator line holds the same ids, so all have the
    same length, and as text ``10`` sorts before ``2``.

    A completed table is not re-validated.  Every edge is written into
    column ``k`` and its inverse into column ``k ^ 1`` together, and only
    where both slots are free, so complete columns are bijections held
    with their inverses; every coset past the base came in as the image of
    an earlier one, so the action is transitive from the base.

    Closure is driven by deductions (Sims, *Computation with Finitely
    Presented Groups*, ch. 5).  Each distinct cyclic rotation of each
    relator is compiled once and filed under its first letter.  Every edge
    ``(k, src, dst)`` that goes into the table, chosen or deduced, is
    queued on the branch's trail; for it, the rotations that start with
    ``k`` are scanned from ``src`` and those that start with ``k ^ 1`` from
    ``dst``.  A scan that completes away from its start prunes the branch;
    a scan with a single gap defines that edge and queues it.

    Rotations of the relators alone find every deduction that needs
    finding.  A relator's trace from a coset walks a closed cycle of edges.
    If the cycle has one gap and some defined edge, take its edge defined
    last: it is read by the letter at some position ``p``, as ``k`` from
    its source or as ``k ^ 1`` from its target, so when it was queued the
    rotation starting at ``p`` was scanned from that end, met the same
    single gap and deduced it.  (The cycle of a one-letter relator has no
    other edge; its slot is filled by branching, and every wrong candidate
    fails its scan at once.)  The inverse relator's trace is the same cycle
    read backwards, and a scan already reads from both ends, so rotations
    of the inverse would find nothing more.  Deductions are forced, so
    whichever are found, the output is the set of complete canonical
    tables that kill the relators.

    A complete table needs no further check that the relators act
    trivially.  Take a relator's trace from any coset and the edge on it
    that was defined last.  When that edge went in, it was queued, and the
    rotation starting with it was scanned from its end with every other
    edge of the cycle already present, so the scan was complete: had the
    relator not fixed the coset, the branch would have been pruned there.

    Deductions leave the canonical-form argument intact: they only define
    edges between cosets already introduced, so fresh cosets still come one
    at a time in slot order, and the slot cursor moves only forward along a
    branch, because every slot before it is defined and stays so until the
    branch backtracks.  The second phase changes the order in which the
    leaves are reached, not the set of leaves, and the keys are sorted
    afterwards.
    """
    if not 1 <= n <= max_index:
        raise BadBound(f"index {n} outside 1..{max_index}")
    m = p.alphabet.size
    if n * m > _MAX_TABLE_EDGES:
        raise BadBound(
            f"index {n} over {m} generators gives {n * m} table edges,"
            f" more than {_MAX_TABLE_EDGES}"
        )
    width = 2 * m
    cols = [[-1] * n for _ in range(width)]
    starting: list[list[tuple[list, list, tuple[int, ...]]]] = [[] for _ in range(width)]
    rotations: dict[tuple[int, ...], None] = {}
    for rel in p.relators:
        codes = letter_codes(rel.letters)
        for i in range(len(codes)):
            rotations[codes[i:] + codes[:i]] = None
    for rot in rotations:
        fc = [cols[k] for k in rot]
        bc = [cols[k ^ 1] for k in rot]
        starting[rot[0]].append((fc, bc, rot))
    scan = _scan_rotation
    pack = bytes if n <= 0x100 else tuple
    keys: list[bytes | tuple[int, ...]] = []
    forward = cols[::2]
    unset = [-1] * len(forward)
    used = 1

    def close(trail: list[tuple[int, int, int]]) -> bool:
        # the loop also reaches the deductions that scans append to the trail
        for k, src, dst in trail:
            for fc, bc, rot in starting[k]:
                if not scan(fc, bc, rot, src, trail):
                    return False
            for fc, bc, rot in starting[k ^ 1]:
                if not scan(fc, bc, rot, dst, trail):
                    return False
        return True

    def undo(trail: list[tuple[int, int, int]]) -> None:
        for k, src, dst in trail:
            cols[k][src] = -1
            cols[k ^ 1][dst] = -1

    def descend(c: int, k: int) -> None:
        nonlocal used
        if used < n:
            while cols[k][c] >= 0:
                k += 1
                if k == width:
                    c, k = c + 1, 0
                    if c == used:
                        return
        else:
            # every coset is in: branch on the tightest forward column
            free = list(map(list.count, forward, unset))
            tightest = min(filter(None, free), default=0)
            if not tightest:
                keys.append(pack(chain.from_iterable(cols)))
                return
            k = 2 * free.index(tightest)
            c = cols[k].index(-1)
        column_taken = cols[k ^ 1]
        candidates = [d for d in range(used) if column_taken[d] < 0]
        if used < n:
            candidates.append(used)
        for d in candidates:
            fresh = d == used
            if fresh:
                used += 1
            cols[k][c] = d
            column_taken[d] = c
            trail = [(k, c, d)]
            if close(trail):
                descend(c, k)
            undo(trail)
            if fresh:
                used -= 1

    descend(BASE, 0)
    if n <= 10:
        keys.sort()
    else:
        keys.sort(key=lambda key: " ".join(map(str, chain(*_key_columns(key, n)[::2]))))
    for key in keys:
        columns = _key_columns(key, n)
        yield CosetTable._trusted(p.alphabet, tuple(columns[::2]), tuple(columns[1::2]))


def _key_columns(key: bytes | tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """The columns of a packed leaf key, ``n`` ids each."""
    return list(zip(*[iter(key)] * n))


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def table_to_text(t: CosetTable) -> str:
    """Bit-exact coset-table format: ``n=<int>`` then one line per generator
    ``<name>: i0 i1 ... i(n-1)``."""
    row = " ".join(["%d"] * t.n)
    lines = [f"n={t.n}"]
    for name, column in zip(t.alphabet.names, t.gen_images):
        lines.append(f"{name}: {row % column}")
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
