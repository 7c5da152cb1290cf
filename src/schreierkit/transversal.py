"""Schreier transversals and subgroup bases.

Given a coset table, a Schreier transversal assigns each coset a reduced
representative word so that the set of representatives is prefix-closed;
their one-letter steps form a spanning tree of the coset graph.  Each
remaining (non-tree) edge contributes one basis element
``rep(c) · y · rep(c·y)^-1``, and together these freely generate the
subgroup, with exactly ``n·(m-1) + 1`` elements for index ``n`` over
``m`` generators.

The spanning tree needs no words: :func:`tree_letters` gives each
coset's last tree letter and :func:`edge_numbering` numbers the non-tree
edges, which is all that :func:`crossings` (and so rewriting) reads.  The
representative and element words are spelled from the same tree only when
they are asked for.

An :class:`AlphabetOrientation` supports the last-letter swap: generators
in its ``flipped`` set are replaced by their inverses before the basis is
read off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cosets import BASE, CosetTable, contains
from .errors import AlphabetMismatch, EmptyWord, NotInSubgroup, PrefixesNotSeparated
from .words import FreeWord, Letter


@dataclass(frozen=True)
class SchreierTransversal:
    """One reduced representative word per coset, prefix-closed, with the
    empty word representing the base."""

    table: CosetTable
    reps: tuple[FreeWord, ...]


@dataclass(frozen=True)
class AlphabetOrientation:
    """Generators whose basis letter has been replaced by its inverse."""

    flipped: frozenset[int]

    @classmethod
    def empty(cls) -> "AlphabetOrientation":
        return cls(frozenset())

    @classmethod
    def of(cls, *gens: int) -> "AlphabetOrientation":
        return cls(frozenset(gens))

    def sign(self, gen: int) -> int:
        return -1 if gen in self.flipped else 1


@dataclass(frozen=True)
class SubgroupBasis:
    """An ordered free basis of the subgroup of a coset table.

    ``elements`` are spelled over the original alphabet regardless of the
    orientation; ``edge_index`` maps each non-tree edge, keyed by
    ``(coset, generator)`` in the oriented forward direction, to the
    position of its element.
    """

    table: CosetTable
    transversal: SchreierTransversal
    orientation: AlphabetOrientation
    elements: tuple[FreeWord, ...]
    edge_index: dict[tuple[int, int], int]


def tree_letters(
    t: CosetTable, through: FreeWord | None = None
) -> tuple[tuple[int, int] | None, ...]:
    """The breadth-first search of a Schreier transversal, without words:
    the last letter of each coset's representative as a ``(generator,
    sign)`` pair, ``None`` at the base.  The letter ``(g, s)`` of coset
    ``c`` is its spanning-tree edge from its parent ``c · g^-s``, whose
    representative is one letter shorter.

    The transversal is seeded by the path of ``through``: its initial
    segments (the empty word up to all but its last letter) become the
    representatives of the cosets they reach, found in one walk from the
    base; they must reach pairwise distinct cosets.  Remaining cosets are
    filled breadth-first from the base and then the path's cosets in path
    order, extending existing representatives by one letter and visiting
    letters by generator index ascending, sign +1 before -1; the first
    arrival fixes the representative.  Unseeded representatives are
    therefore of minimal length among the words reaching their coset.
    """
    n = t.n
    last: list[tuple[int, int] | None] = [None] * n
    reached = [False] * n
    reached[BASE] = True
    queue = [BASE]
    if through is not None:
        if through.alphabet != t.alphabet:
            raise AlphabetMismatch("word and table use different alphabets")
        c = BASE
        for letter in through.letters[:-1]:
            c = t.step(c, letter.gen, letter.sign)
            if reached[c]:
                raise PrefixesNotSeparated(
                    f"the initial segments of {through} do not reach distinct cosets"
                )
            reached[c] = True
            last[c] = letter
            queue.append(c)
    steps = [((g, s), t.image(g, s)) for g in range(t.alphabet.size) for s in (1, -1)]
    # the loop also visits the cosets it appends, in order
    for c in queue:
        for letter, column in steps:
            d = column[c]
            if not reached[d]:
                reached[d] = True
                last[d] = letter
                queue.append(d)
    return tuple(last)


def edge_numbering(
    t: CosetTable,
    last: Sequence[tuple[int, int] | None],
    orientation: AlphabetOrientation,
) -> list[int | None]:
    """Number the edges of the coset graph that the spanning tree given by
    ``last`` (as from :func:`tree_letters`) leaves out.  The edge leaving
    coset ``c`` along generator ``g`` in the oriented forward direction
    has slot ``c·m + g`` (``m`` generators); the result holds, slot by
    slot, its number or ``None`` for a tree edge.  Numbers therefore run
    coset ascending, then generator ascending, and there are exactly
    ``n·(m-1) + 1`` of them."""
    m = t.alphabet.size
    flipped = orientation.flipped
    numbering: list[int | None] = [0] * (t.n * m)
    for c, letter in enumerate(last):
        if letter is None:
            continue
        g, s = letter
        if (s > 0) != (g in flipped):
            # the tree edge runs forward from the parent
            c = t.step(c, g, -s)
        numbering[c * m + g] = None
    position = 0
    for slot, mark in enumerate(numbering):
        if mark is not None:
            numbering[slot] = position
            position += 1
    return numbering


def crossings(
    t: CosetTable,
    orientation: AlphabetOrientation,
    numbering: Sequence[int | None],
    start: int,
    w: FreeWord,
) -> tuple[list[tuple[int, int]], int]:
    """Walk ``w`` once from coset ``start``: the ``(edge number, sign)``
    of each numbered (non-tree) edge crossed, as ``numbering`` (from
    :func:`edge_numbering`) gives it, tree edges contributing nothing, and
    the coset where the walk ends, so that membership is read off the same
    walk.  The caller checks that ``start`` is a coset of the table and
    ``w`` is over its alphabet.  For reduced ``w`` the crossings are freely
    reduced: between two crossings of one edge in opposite directions the
    walk would be a closed non-backtracking path in the spanning tree,
    which is empty, and then ``w`` itself would cancel."""
    m = t.alphabet.size
    flipped = orientation.flipped
    images, inverses = t.gen_images, t.inverse_images
    out: list[tuple[int, int]] = []
    c = start
    for g, s in w.letters:
        # forward: the letter crosses its edge in the oriented forward
        # direction, so the edge is keyed at the coset it leaves
        if s > 0:
            d = images[g][c]
            forward = g not in flipped
        else:
            d = inverses[g][c]
            forward = g in flipped
        if forward:
            position = numbering[c * m + g]
            if position is not None:
                out.append((position, 1))
        else:
            position = numbering[d * m + g]
            if position is not None:
                out.append((position, -1))
        c = d
    return out, c


def schreier_transversal(
    t: CosetTable, through: FreeWord | None = None
) -> SchreierTransversal:
    """Build a Schreier transversal, optionally seeded by the path of the
    word ``through``: the representatives are spelled along the spanning
    tree of :func:`tree_letters`, which states the seed rules and the
    visiting order."""
    last = tree_letters(t, through)
    spelled: list[tuple[Letter, ...] | None] = [None] * t.n
    spelled[BASE] = ()
    for c in range(t.n):
        # climb to the nearest spelled ancestor, then spell back down
        chain = []
        d = c
        while spelled[d] is None:
            chain.append(d)
            g, s = last[d]  # type: ignore[misc]
            d = t.step(d, g, -s)
        for e in reversed(chain):
            spelled[e] = spelled[d] + (Letter(*last[e]),)  # type: ignore[operator,misc]
            d = e
    return SchreierTransversal(t, tuple(FreeWord(t.alphabet, w) for w in spelled))  # type: ignore[arg-type]


def basis_letters(
    tr: SchreierTransversal, orientation: AlphabetOrientation
) -> tuple[dict[tuple[int, int], int], list[tuple[Letter, ...]]]:
    """The edge index and the element letters of :func:`schreier_basis`,
    read off the tree without building words: ``rep(c)``, ``g^e``, then
    ``rep(c · g^e)^-1``, each representative inverted once.  Raises
    :class:`AlphabetMismatch` for a representative over another alphabet."""
    t = tr.table
    if any(w.alphabet != t.alphabet for w in tr.reps):
        raise AlphabetMismatch("representative alphabet differs from table alphabet")
    m = t.alphabet.size
    reps = [w.letters for w in tr.reps]
    numbering = edge_numbering(t, [w[-1] if w else None for w in reps], orientation)
    edge_index = {
        divmod(slot, m): position
        for slot, position in enumerate(numbering)
        if position is not None
    }
    inverse_of = t.alphabet.inverse_of
    backs = [tuple(map(inverse_of.__getitem__, reversed(w))) for w in reps]
    elements = []
    for c, g in edge_index:
        e = orientation.sign(g)
        elements.append(reps[c] + (Letter(g, e),) + backs[t.step(c, g, e)])
    return edge_index, elements


def schreier_basis(
    tr: SchreierTransversal, orientation: AlphabetOrientation | None = None
) -> SubgroupBasis:
    """Read off the subgroup basis from a transversal.

    The representatives' last letters give the spanning tree.  Over the
    oriented alphabet, each edge ``(c, g)`` numbered by
    :func:`edge_numbering` contributes the element
    ``rep(c) · g^e · rep(c · g^e)^-1`` with ``e`` the orientation sign of
    ``g``, in the order of its number (:func:`basis_letters`).  All such
    elements are nonempty and pairwise distinct, and there are exactly
    ``n·(m-1) + 1`` of them.

    Each element is a plain concatenation, as nothing cancels: if ``rep(c)``
    ended in ``g^-e``, or ``rep(c · g^e)`` in ``g^e``, then ``(c, g)`` would
    be the tree edge, which :func:`edge_numbering` leaves out.  Should that
    fail, the :class:`FreeWord` check raises :class:`UnreducedWord`.
    """
    if orientation is None:
        orientation = AlphabetOrientation.empty()
    t = tr.table
    edge_index, elements = basis_letters(tr, orientation)
    words = tuple(FreeWord(t.alphabet, u) for u in elements)
    return SubgroupBasis(t, tr, orientation, words, edge_index)


def basis_through_word(t: CosetTable, w: FreeWord) -> tuple[SubgroupBasis, int]:
    """A basis of the table's subgroup containing ``w`` verbatim, with the
    position of ``w`` in it.

    Seeds the transversal with the path of ``w``, so its initial segments,
    which must reach pairwise distinct cosets, are representatives.  When
    the last letter of ``w`` is positive the plain Schreier basis already
    contains ``w``; when it is negative the alphabet is reoriented at that
    generator.  Either way the final edge, read along the last letter ``y``
    from the coset ``c`` of ``w`` less ``y``, emits
    ``rep(c) · y · rep(BASE)^-1``; the seed makes ``rep(c)`` that prefix
    and ``rep(BASE)`` is empty, so the element is ``w`` itself, never its
    inverse.  As ``w`` fixes the base, that coset ``c`` is the base stepped
    back along ``y``.
    """
    if len(w) == 0:
        raise EmptyWord("cannot build a basis through the empty word")
    if not contains(t, w):
        raise NotInSubgroup(f"{w} does not fix the base coset")
    tr = schreier_transversal(t, w)
    g_last, s_last = w.letters[-1]
    orientation = (
        AlphabetOrientation.empty() if s_last > 0 else AlphabetOrientation.of(g_last)
    )
    basis = schreier_basis(tr, orientation)
    return basis, basis.edge_index[(t.step(BASE, g_last, -s_last), g_last)]


# ---------------------------------------------------------------------------
# independent verification by folding
# ---------------------------------------------------------------------------


def fold_verify(b: SubgroupBasis) -> bool:
    """Check, independently of the transversal, that the elements are a
    basis of exactly the table's subgroup ``H``: there are exactly
    ``k = n·(m-1) + 1`` of them (index ``n``, ``m`` generators), each
    fixing the base coset, and their folded graph has ``V = n`` vertices
    and ``E = n·m`` edges.  Reads only ``b.elements`` and ``b.table``; an
    element over another alphabet raises :class:`AlphabetMismatch`.

    Folds as it goes (Stallings, 1983; Kapovich–Myasnikov, 2002), with
    union-find on the vertices and one neighbour slot per vertex and
    signed letter.  Each element is read forward from the base along
    existing edges (all but its last letter), then backward from the base
    (leaving at least one letter); only the unread middle gets fresh
    vertices.  The closing edge goes through a worklist over half-edges: a
    free slot files it, an occupied one merges the two far ends, and a
    merge re-files the at most ``2m`` slots of the absorbed vertex, which
    may cascade.  A merge can absorb the base, so each read starts at its
    root.  The work is near-linear in the total letter count.

    Reading along an existing edge folds the element's loop onto it before
    it is laid out, so this is the fold of all loops wedged at the base,
    in another order; folding is confluent, so the final graph is the
    same.  It is connected and folded; with ``n`` vertices and ``n·m``
    edges it is complete, so it is the coset graph of
    ``K = <elements>`` and ``K`` has index ``n``.  ``K ≤ H`` as every
    element fixes the base, and ``[F:H] = n``, so ``K = H``.  Merging two
    edges whose far ends already coincide lowers the rank by one, and
    nothing else changes it, so the list is independent exactly when
    ``E - V + 1 = n·(m-1) + 1`` equals ``k``, as the counts make it.  An
    empty element lays out no loop, so with one the rank falls short of
    ``k`` and the counts cannot both hold.
    """
    t = b.table
    if any(w.alphabet != t.alphabet for w in b.elements):
        raise AlphabetMismatch("basis element and table use different alphabets")
    n, m = t.n, t.alphabet.size
    if len(b.elements) != n * (m - 1) + 1:
        return False
    images, inverses = t.gen_images, t.inverse_images
    width = 2 * m  # slot 2g: out along g; slot 2g+1: in along g
    parent = [0]  # union-find over vertices; vertex 0 is the first base
    nbr = [-1] * width
    work: list[int] = []  # flat (vertex, slot, far vertex) half-edges

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for w in b.elements:
        letters = w.letters
        coset = BASE
        for g, s in letters:
            coset = images[g][coset] if s > 0 else inverses[g][coset]
        if coset != BASE:
            return False
        if not letters:
            continue
        v = u = find(0)  # a merge may have absorbed vertex 0
        i, j = 0, len(letters) - 1
        while i < j:  # forward from the base
            g, s = letters[i]
            held = nbr[v * width + 2 * g + (s < 0)]
            if held < 0:
                break
            v = find(held)
            i += 1
        while j > i:  # backward from the base
            g, s = letters[j]
            held = nbr[u * width + 2 * g + (s > 0)]
            if held < 0:
                break
            u = find(held)
            j -= 1
        for g, s in letters[i:j]:  # the unread middle, on fresh vertices
            x = len(parent)
            parent.append(x)
            nbr += [-1] * width
            slot = 2 * g + (s < 0)
            nbr[v * width + slot] = x
            nbr[x * width + (slot ^ 1)] = v
            v = x
        g, s = letters[j]
        slot = 2 * g + (s < 0)
        work += (v, slot, u, u, slot ^ 1, v)
        while work:
            far = find(work.pop())
            slot = work.pop()
            at = find(work.pop()) * width + slot
            held = nbr[at]
            if held < 0:
                nbr[at] = far
                continue
            held = find(held)
            if held == far:
                continue  # an equal edge is already filed at this slot
            parent[far] = held
            absorbed = far * width
            for k in range(width):
                other = nbr[absorbed + k]
                if other >= 0:
                    work += (held, k, other)
                    nbr[absorbed + k] = -1

    vertices = sum(1 for v, p in enumerate(parent) if v == p)
    edges = sum(1 for y in nbr if y >= 0) // 2
    return vertices == n and edges == n * m


# ---------------------------------------------------------------------------
# invariant checks and text formats
# ---------------------------------------------------------------------------


def check_transversal(tr: SchreierTransversal) -> list[str]:
    """Re-validate the transversal invariants; returns failure descriptions.

    Reads the spanning tree: one representative per coset over the table's
    alphabet, the empty one at the base only, and every other one its
    parent's plus one letter, the parent being the coset it steps back to
    along that last letter.  By induction on length each representative
    then traces from the base to its own coset (its parent's traces to the
    parent, and the letter steps on), and the set is prefix-closed."""
    t = tr.table
    if len(tr.reps) != t.n:
        return [f"expected {t.n} representatives, found {len(tr.reps)}"]
    failures: list[str] = []
    for c, w in enumerate(tr.reps):
        if w.alphabet != t.alphabet:
            failures.append(f"representative {c} uses a different alphabet")
        elif c == BASE:
            if w.letters:
                failures.append(f"base representative {w} is not the empty word")
        elif not w.letters:
            failures.append(f"representative of coset {c} is the empty word")
        else:
            g, s = w.letters[-1]
            if tr.reps[t.step(c, g, -s)].letters != w.letters[:-1]:
                failures.append(f"representative {w} of coset {c} does not extend its parent's")
    return failures


def check_basis(b: SubgroupBasis) -> list[str]:
    """Re-validate the basis invariants; returns failure descriptions."""
    failures: list[str] = []
    t = b.table
    n, m = t.n, t.alphabet.size
    expected = n * (m - 1) + 1
    if len(b.elements) != expected:
        failures.append(
            f"basis has {len(b.elements)} elements, index-rank formula needs {expected}"
        )
    if len(set(b.elements)) != len(b.elements):
        failures.append("basis elements are not pairwise distinct")
    for u in b.elements:
        if len(u) == 0:
            failures.append("basis contains the empty word")
        elif not contains(t, u):
            failures.append(f"basis element {u} is not in the subgroup")
    positions = sorted(b.edge_index.values())
    if positions != list(range(len(b.elements))):
        failures.append("edge index does not enumerate the element positions")
    return failures


def transversal_to_text(tr: SchreierTransversal) -> str:
    """One representative word per line, in coset order."""
    return "\n".join(str(w) for w in tr.reps) + "\n"


def basis_to_text(b: SubgroupBasis) -> str:
    """Header ``index=<n> rank=<n(m-1)+1>`` then one element per line in
    emission order."""
    n, m = b.table.n, b.table.alphabet.size
    lines = [f"index={n} rank={n * (m - 1) + 1}"]
    lines.extend(str(u) for u in b.elements)
    return "\n".join(lines) + "\n"
