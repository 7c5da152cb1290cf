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
Only the spanning tree's numbering of the non-tree edges is needed, and
:func:`~schreierkit.transversal.tree_numbering` numbers them during the
breadth-first search that spells the transversal, without spelling any
word: the basis elements are spelled on demand, when printed.
Rewritten relators are kept raw (freely reduced over the fresh basis
symbols, but never simplified further) so the counting identities are exact:
``generators = n·(m-1) + 1`` and ``relators = n·k`` make the presentation
Euler characteristic multiply by the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, product
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
from .words import Alphabet, Letter, free_reduce

MAX_GENUS = 12
DEFAULT_REPORT_MAX_GENUS = 4
DEFAULT_REPORT_MAX_INDEX = 6

SignedSymbol = tuple[int, int]  # (basis symbol position, sign)
SymbolWord = tuple[SignedSymbol, ...]


@lru_cache(maxsize=16)
def _signed_symbols(count: int) -> frozenset[SignedSymbol]:
    """``(i, +1)`` and ``(i, -1)`` for every symbol ``i < count``.  Every
    subgroup of one survey has the same count, so the set is built once."""
    return frozenset(product(range(count), (1, -1)))


@dataclass(frozen=True)
class SubgroupPresentation:
    """Raw rewritten presentation of the subgroup of a coset table.

    ``relators`` are words over fresh basis symbols, stored as signed
    position sequences; symbol ``i`` prints as ``x<i>`` and stands for
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
        with sign -1 across the relators.  For a surface group this is the
        lifted surface closing up: the cover of the one-vertex genus-``g``
        complex is a closed orientable surface, so each of its edges off the
        spanning tree borders exactly two faces, in opposite directions
        (Stillwell, *Classical Topology and Combinatorial Group Theory*,
        §§3–4).  A symbol outside ``0 .. generator_count - 1`` gives False."""
        count = self.generator_count
        # 2 * count symbols whose set is the 2 * count expected ones:
        # each expected symbol occurs, so none occurs twice
        if sum(map(len, self.relators)) != 2 * count:
            return False
        return set(chain.from_iterable(self.relators)) == _signed_symbols(count)

    def symbol_name(self, position: int) -> str:
        return f"x{position}"

    def relator_text(self, relator: SymbolWord) -> str:
        if not relator:
            return "1"
        return " ".join(
            self.symbol_name(pos) if sign > 0 else self.symbol_name(pos) + "^-1"
            for pos, sign in relator
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
    letters: list[Letter] = []
    for i in range(g):
        a, b = 2 * i, 2 * i + 1
        letters.extend([Letter(a, 1), Letter(b, 1), Letter(a, -1), Letter(b, -1)])
    relator = free_reduce(alphabet, letters)
    assert len(relator) == 4 * g
    return Presentation(alphabet, (relator,))


def rewrite_presentation(p: Presentation, t: CosetTable) -> SubgroupPresentation:
    """Rewrite every relator through every coset of the table.

    Requires each relator to act trivially on every coset (so that all its
    conjugates lie in the subgroup); otherwise :class:`RelatorNotKilled`
    names the first offending pair, relator by relator and coset by coset
    within each.  The rewritten relators are listed coset by coset.
    """
    if p.alphabet != t.alphabet:
        raise AlphabetMismatch("presentation and table use different alphabets")
    numbering = tree_numbering(t)
    walks = []
    for rel in p.relators:
        row = []
        for c in range(t.n):
            positions, end = crossings(t, numbering, c, rel)
            if end != c:
                raise RelatorNotKilled(rel, c)
            row.append(tuple(positions))
        walks.append(row)
    generator_count = len(numbering) - numbering.count(None)
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
