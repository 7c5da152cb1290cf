"""Schreier transversals and subgroup bases.

Given a coset table, a Schreier transversal assigns each coset a reduced
representative word so that the set of representatives is prefix-closed;
their one-letter steps form a spanning tree of the coset graph.  Each
remaining (non-tree) edge contributes one basis element
``rep(c) · y · rep(c·y)^-1``, and together these freely generate the
subgroup, with exactly ``n·(m-1) + 1`` elements for index ``n`` over
``m`` generators.

One breadth-first search finds the spanning tree.
:func:`schreier_transversal` spells each representative from its
parent's as the search reaches it; :func:`tree_numbering` numbers the
non-tree edges of the plain tree during the same search, which is all
that :func:`crossings` (and so rewriting) reads; :func:`schreier_basis`
reads the tree back off the representatives' last letters, so it also
takes a transversal it did not build.

The last-letter swap is a ``flipped`` set of generators: the basis is read
off with each of them replaced by its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .cosets import BASE, CosetTable, contains, prefix_cosets
from .errors import AlphabetMismatch, EmptyWord, NotInSubgroup, PrefixesNotSeparated
from .words import FreeWord, Letter, empty_word


@dataclass(frozen=True)
class SchreierTransversal:
    """One reduced representative word per coset, prefix-closed, with the
    empty word representing the base."""

    table: CosetTable
    reps: tuple[FreeWord, ...]


@dataclass(frozen=True)
class SubgroupBasis:
    """An ordered free basis of the subgroup of a coset table, read
    through the transversal it was built from.

    ``flipped`` holds the generators whose basis letter is replaced by its
    inverse; ``elements`` are spelled over the original alphabet all the
    same.  ``edge_index`` maps each non-tree edge, keyed by ``(coset,
    generator)`` at the coset it leaves along ``g`` (``g^-1`` when ``g``
    is flipped), to the position of its element.
    """

    transversal: SchreierTransversal
    flipped: frozenset[int]
    elements: tuple[FreeWord, ...]
    edge_index: dict[tuple[int, int], int]

    @property
    def table(self) -> CosetTable:
        return self.transversal.table


def _tree_edges(
    t: CosetTable, queue: list[int], reached: list[bool]
) -> Iterator[tuple[int, int, int, int]]:
    """The search of :func:`schreier_transversal` from ``queue``: each tree
    edge ``(parent, g, s, child)`` as it is found, ``child`` then marked in
    ``reached`` and queued."""
    columns = list(enumerate(zip(t.gen_images, t.inverse_images)))
    # the loop also visits the cosets it appends, in order
    for c in queue:
        for g, (forward, backward) in columns:
            d = forward[c]
            if not reached[d]:
                reached[d] = True
                queue.append(d)
                yield c, g, 1, d
            d = backward[c]
            if not reached[d]:
                reached[d] = True
                queue.append(d)
                yield c, g, -1, d


def tree_numbering(t: CosetTable) -> list[int | None]:
    """Number the edges of the coset graph that the unseeded spanning tree
    of :func:`schreier_transversal` leaves out.  The edge leaving coset
    ``c`` along generator ``g`` has slot ``c·m + g`` (``m`` generators);
    the result holds, slot by slot, its number or ``None`` for a tree edge.
    Numbers therefore run coset ascending, then generator ascending, and
    there are exactly ``n·(m-1) + 1`` of them, as in the unflipped
    ``edge_index`` of :func:`schreier_basis`."""
    m = t.alphabet.size
    numbering: list[int | None] = [0] * (t.n * m)
    reached = [False] * t.n
    reached[BASE] = True
    for c, g, s, d in _tree_edges(t, [BASE], reached):
        # the tree edge leaves the parent along g, or the child along g^-1
        numbering[(c if s > 0 else d) * m + g] = None
    position = 0
    for slot, mark in enumerate(numbering):
        if mark is not None:
            numbering[slot] = position
            position += 1
    return numbering


def crossings(
    t: CosetTable,
    numbering: Sequence[int | None],
    start: int,
    w: FreeWord,
) -> tuple[list[tuple[int, int]], int]:
    """Walk ``w`` once from coset ``start``: the ``(edge number, sign)``
    of each numbered (non-tree) edge crossed, as ``numbering`` (from
    :func:`tree_numbering`) gives it, tree
    edges contributing nothing, and the coset where the walk ends, so that
    membership is read off the same walk.  An edge is keyed at the coset
    it leaves along ``g``, and a crossing's sign is its letter's sign.
    The caller checks that ``start`` is a coset of the table and ``w`` is
    over its alphabet.  For reduced ``w`` the crossings are freely
    reduced: between two crossings of one edge in opposite directions the
    walk would be a closed non-backtracking path in the spanning tree,
    which is empty, and then ``w`` itself would cancel."""
    m = t.alphabet.size
    images, inverses = t.gen_images, t.inverse_images
    out: list[tuple[int, int]] = []
    c = start
    for g, s in w.letters:
        if s > 0:
            d = images[g][c]
            position = numbering[c * m + g]
        else:
            d = inverses[g][c]
            position = numbering[d * m + g]
        if position is not None:
            out.append((position, s))
        c = d
    return out, c


def schreier_transversal(
    t: CosetTable, through: FreeWord | None = None
) -> SchreierTransversal:
    """Build a Schreier transversal, optionally seeded by the path of the
    word ``through``.

    The seed: the initial segments of ``through`` (the empty word up to all
    but its last letter) become the representatives of the cosets they
    reach, read off :func:`~schreierkit.cosets.prefix_cosets`; they must
    reach pairwise distinct cosets.  An empty ``through`` seeds the base
    alone, as ``None`` does.  Remaining cosets are filled breadth-first
    from the base and then the path's cosets in path order, extending
    existing representatives by one letter and visiting letters by
    generator index ascending, sign +1 before -1; the first arrival fixes
    the representative.  Unseeded representatives are therefore of minimal
    length among the words reaching their coset.
    """
    if through is None:
        through = empty_word(t.alphabet)
    queue = prefix_cosets(t, through)[:-1] or [BASE]
    spelled: list[tuple[Letter, ...]] = [()] * t.n
    reached = [False] * t.n
    for i, c in enumerate(queue):
        if reached[c]:
            raise PrefixesNotSeparated(
                f"the initial segments of {through} do not reach distinct cosets"
            )
        reached[c] = True
        spelled[c] = through.letters[:i]
    for c, g, s, d in _tree_edges(t, queue, reached):
        spelled[d] = spelled[c] + (Letter(g, s),)
    return SchreierTransversal(t, tuple(FreeWord(t.alphabet, w) for w in spelled))


def basis_letters(
    tr: SchreierTransversal, flipped: frozenset[int]
) -> tuple[dict[tuple[int, int], int], list[tuple[Letter, ...]]]:
    """The edge index and the element letters of :func:`schreier_basis`,
    read off the representatives without building words: ``rep(c)``,
    ``g^e``, then ``rep(c · g^e)^-1``, each representative inverted once.
    Raises :class:`AlphabetMismatch` for a representative over another
    alphabet."""
    t = tr.table
    if any(w.alphabet != t.alphabet for w in tr.reps):
        raise AlphabetMismatch("representative alphabet differs from table alphabet")
    m = t.alphabet.size
    reps = [w.letters for w in tr.reps]
    in_tree = [False] * (t.n * m)
    for c, w in enumerate(reps):
        if w:
            g, s = w[-1]
            if (s > 0) != (g in flipped):
                # the tree edge runs forward from the parent
                c = t.step(c, g, -s)
            in_tree[c * m + g] = True
    edges = (divmod(slot, m) for slot, tree_edge in enumerate(in_tree) if not tree_edge)
    edge_index = {edge: position for position, edge in enumerate(edges)}
    inverse_of = t.alphabet.inverse_of
    backs = [tuple(map(inverse_of.__getitem__, reversed(w))) for w in reps]
    elements = []
    for c, g in edge_index:
        e = -1 if g in flipped else 1
        elements.append(reps[c] + (Letter(g, e),) + backs[t.step(c, g, e)])
    return edge_index, elements


def schreier_basis(
    tr: SchreierTransversal, flipped: frozenset[int] = frozenset()
) -> SubgroupBasis:
    """Read off the subgroup basis from a transversal.

    The representatives' last letters give the spanning tree: coset ``c``
    whose representative ends in ``(g, s)`` has its tree edge keyed
    ``(c · g^-s, g)`` at its parent when ``(s > 0) != (g in flipped)``, and
    ``(c, g)`` otherwise.  Each other ``(c, g)``, numbered in ``edge_index``
    coset ascending, then generator ascending, contributes the element
    ``rep(c) · g^e · rep(c · g^e)^-1``, with ``e = -1`` when ``g`` is in
    ``flipped`` and ``e = 1`` otherwise (:func:`basis_letters`).  All such
    elements are nonempty and pairwise distinct, and there are exactly
    ``n·(m-1) + 1`` of them.

    Each element is a plain concatenation, as nothing cancels: if ``rep(c)``
    ended in ``g^-e``, or ``rep(c · g^e)`` in ``g^e``, then ``(c, g)`` would
    be a tree edge, which gets no element.  Should that
    fail, the :class:`FreeWord` check raises :class:`UnreducedWord`.
    """
    edge_index, elements = basis_letters(tr, flipped)
    words = tuple(FreeWord(tr.table.alphabet, u) for u in elements)
    return SubgroupBasis(tr, flipped, words, edge_index)


def basis_through_word(t: CosetTable, w: FreeWord) -> tuple[SubgroupBasis, int]:
    """A basis of the table's subgroup containing ``w`` verbatim, with the
    position of ``w`` in it.

    Seeds the transversal with the path of ``w``, so its initial segments,
    which must reach pairwise distinct cosets, are representatives.  When
    the last letter of ``w`` is positive the plain Schreier basis already
    contains ``w``; when it is negative that generator is flipped, so the
    basis is read with its inverse.  Either way the final edge, read along the last letter ``y``
    from the coset ``c`` of ``w`` less ``y``, emits
    ``rep(c) · y · rep(BASE)^-1``; the seed makes ``rep(c)`` that prefix
    and ``rep(BASE)`` is empty, so the element is ``w`` itself, never its
    inverse.  That coset ``c`` is the last but one on the path of ``w``.
    """
    if len(w) == 0:
        raise EmptyWord("cannot build a basis through the empty word")
    path = prefix_cosets(t, w)
    if path[-1] != BASE:
        raise NotInSubgroup(f"{w} does not fix the base coset")
    tr = schreier_transversal(t, w)
    g_last, s_last = w.letters[-1]
    basis = schreier_basis(tr, frozenset() if s_last > 0 else frozenset({g_last}))
    return basis, basis.edge_index[(path[-2], g_last)]


# ---------------------------------------------------------------------------
# independent verification by folding
# ---------------------------------------------------------------------------


def fold_verify(b: SubgroupBasis) -> bool:
    """Check, independently of the transversal, that the elements are a
    basis of exactly the table's subgroup ``H``: there are exactly
    ``k = n·(m-1) + 1`` of them (index ``n``, ``m`` generators), each
    fixing the base coset, and their folded graph has ``V = n`` vertices
    and ``E = n·m`` edges.  Reads only ``b.elements`` and ``b.table``.  The
    count is checked first, so a list of the wrong length is ``False``
    before any element is read, whatever its alphabets; with the right
    count, an element over another alphabet raises :class:`AlphabetMismatch`.

    Folds as it goes (Stallings, 1983; Kapovich–Myasnikov, 2002), with
    union-find on the vertices and one neighbour slot per vertex and letter
    code (see :mod:`~schreierkit.words`).  Each element is read forward from
    the base along existing edges (all but its last letter), then backward
    from the base (leaving at least one letter); only the unread middle gets
    fresh vertices.  The closing edge goes through a worklist over
    half-edges: a free slot files it, an occupied one merges the two far
    ends, and a merge re-files the at most ``2m`` slots of the absorbed
    vertex, which may cascade.  A merge can absorb the base, so each read
    starts at its root.  The work is near-linear in the total letter count.

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
    n, m = t.n, t.alphabet.size
    if len(b.elements) != n * (m - 1) + 1:
        return False
    if any(w.alphabet != t.alphabet for w in b.elements):
        raise AlphabetMismatch("basis element and table use different alphabets")
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
        if not contains(t, w):
            return False
        letters = w.letters
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
# text formats
# ---------------------------------------------------------------------------


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
