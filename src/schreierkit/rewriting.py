"""Rewriting relators to presentations of finite-index subgroups, plus the
surface-group rank-deficiency checks: a :class:`SurfaceReport` stores
``genus``, ``index``, ``euler_G1`` and ``symbols_paired`` and derives the rest.

For a table on which every relator acts trivially, each coset ``c`` and
each source relator ``rho`` contribute one rewritten relator: the word
``rep(c) · rho · rep(c)^-1`` expressed over the subgroup basis.  It is
read off by tracing ``rho`` from coset ``c`` and recording the non-tree
edges it crosses (Reidemeister–Schreier); ``rep(c)`` runs along the
spanning tree and contributes nothing, so the conjugate is never built.
The same walk ends at the coset that shows whether ``rho`` fixes ``c``,
so each relator is walked once from each coset.
Only the labels of the half-edges off the spanning tree are needed, and
:func:`~schreierkit.transversal.tree_numbering` reads them off the
breadth-first search that spells the transversal, without spelling any
word: the basis elements are spelled on demand, when printed.
A rewritten relator is a word in the free group on the basis symbols, held
as letter codes as :mod:`~schreierkit.words` holds a word: symbol ``i``
with sign ``s`` is ``2i + (s < 0)``, the label of the half-edge crossed.
Rewritten relators are kept raw (freely reduced over the fresh basis
symbols, but never simplified further) so the counting identities are exact:
``generators = n·(m-1) + 1`` and ``relators = n·k`` make the presentation
Euler characteristic multiply by the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator

from .cosets import CosetTable, Presentation, iter_low_index_tables
from .errors import AlphabetMismatch, BadBound, BadGenus, RelatorNotKilled
from .transversal import (
    SubgroupBasis,
    crossings,
    schreier_basis,
    schreier_transversal,
    tree_numbering,
)
from .words import Alphabet, FreeWord

MAX_GENUS = 12
DEFAULT_REPORT_MAX_GENUS = 4
DEFAULT_REPORT_MAX_INDEX = 6

SymbolWord = tuple[int, ...]  # symbol codes 2i + (s < 0)


@dataclass(frozen=True)
class SubgroupPresentation:
    """Raw rewritten presentation of the subgroup of a coset table.

    ``relators`` are words over fresh basis symbols, stored as symbol
    codes ``2i + (s < 0)``; symbol ``i`` prints as ``x<i>`` and stands for
    ``basis.elements[i]``.
    """

    table: CosetTable
    generator_count: int
    relators: tuple[SymbolWord, ...]

    @cached_property
    def basis(self) -> SubgroupBasis:
        """The Schreier basis the symbols stand for, spelled on first use."""
        return schreier_basis(schreier_transversal(self.table))

    def symbols_paired(self) -> bool:
        """True iff every symbol occurs exactly once with sign +1 and once
        with sign -1 across the relators: each code ``0 .. 2·count - 1``
        occurs once, and any other code gives False.  For a surface group
        this is the lifted surface closing up: the cover of the one-vertex
        genus-``g`` complex is a closed orientable surface, so each of its
        edges off the spanning tree borders exactly two faces, in opposite
        directions (Stillwell, *Classical Topology and Combinatorial Group
        Theory*, §§3–4)."""
        width = 2 * self.generator_count
        # width codes whose set is the width expected ones: each expected
        # code occurs, so none occurs twice
        if sum(map(len, self.relators)) != width:
            return False
        return set(chain.from_iterable(self.relators)) == set(range(width))

    def symbol_name(self, position: int) -> str:
        return f"x{position}"

    def relator_text(self, relator: SymbolWord) -> str:
        if not relator:
            return "1"
        return " ".join(
            self.symbol_name(k >> 1) + ("^-1" if k & 1 else "") for k in relator
        )


@dataclass(frozen=True)
class SurfaceReport:
    """Rank-deficiency bookkeeping for one index-``index`` subgroup of the
    genus-``genus`` surface group.  Stores ``euler_G1``, counted off the
    rewritten presentation, and ``symbols_paired``; derives the rest."""

    genus: int
    index: int
    euler_G1: int
    symbols_paired: bool

    @property
    def rho_G(self) -> int:
        return 2 * self.genus - 1

    @property
    def euler_G(self) -> int:
        return 2 - 2 * self.genus

    @property
    def rho_G1_formula(self) -> int:
        return self.index * self.rho_G + (1 - self.index)

    @property
    def rho_G1_counts(self) -> int:
        return 1 - self.euler_G1

    @property
    def checks_pass(self) -> bool:
        """``rho_G1_counts == rho_G1_formula`` needs no check of its own:
        ``1 - e = n(2g - 1) + 1 - n`` exactly when ``e = n(2 - 2g)``."""
        return self.euler_G1 == self.index * self.euler_G and self.symbols_paired


def surface_presentation(g: int) -> Presentation:
    """The genus-``g`` orientable surface presentation: ``2g`` generators
    and the single relator that multiplies out their ``g`` commutators."""
    if not 1 <= g <= MAX_GENUS:
        raise BadGenus(f"genus must be in 1..{MAX_GENUS}, got {g}")
    alphabet = Alphabet.first(2 * g)
    # the commutator of generators 2i and 2i + 1: their codes 4i and
    # 4i + 2, then their inverses' 4i + 1 and 4i + 3
    codes = tuple(4 * i + k for i in range(g) for k in (0, 2, 1, 3))
    return Presentation(alphabet, (FreeWord(alphabet, codes),))


def rewrite_presentation(p: Presentation, t: CosetTable) -> SubgroupPresentation:
    """Rewrite every relator through every coset of the table.

    Requires each relator to act trivially on every coset (so that all its
    conjugates lie in the subgroup); otherwise :class:`RelatorNotKilled`
    names the first offending pair, relator by relator and coset by coset
    within each.  The rewritten relators are listed coset by coset.
    """
    if p.alphabet != t.alphabet:
        raise AlphabetMismatch("presentation and table use different alphabets")
    label = tree_numbering(t)
    walks = []
    for rel in p.relators:
        row = []
        for c in range(t.n):
            codes, end = crossings(t, label, c, rel)
            if end != c:
                raise RelatorNotKilled(rel, c)
            row.append(tuple(codes))
        walks.append(row)
    generator_count = (len(label) - label.count(None)) // 2
    # zip regroups the walks coset by coset
    return SubgroupPresentation(t, generator_count, tuple(chain.from_iterable(zip(*walks))))


def surface_survey(
    g: int,
    n: int,
    max_genus: int = DEFAULT_REPORT_MAX_GENUS,
    max_index: int = DEFAULT_REPORT_MAX_INDEX,
) -> Iterator[tuple[SurfaceReport, SubgroupPresentation]]:
    """One (report, rewritten presentation) pair per index-``n`` subgroup of
    the genus-``g`` surface group, in canonical table order; the table is
    the presentation's ``table``.  A generator over
    :func:`~schreierkit.cosets.iter_low_index_tables`: each table and pair
    is built when it is asked for, so only one packed key per subgroup
    stays in memory."""
    if not 1 <= g <= max_genus:
        raise BadBound(f"genus {g} outside 1..{max_genus}")
    if not 1 <= n <= max_index:
        raise BadBound(f"index {n} outside 1..{max_index}")
    presentation = surface_presentation(g)
    for table in iter_low_index_tables(presentation, n, max_index=n):
        sp = rewrite_presentation(presentation, table)
        yield SurfaceReport(
            g, n, 1 - sp.generator_count + len(sp.relators), sp.symbols_paired()
        ), sp
