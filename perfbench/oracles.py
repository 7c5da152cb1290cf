"""Output checks that do not trust the program.

Each ``expect_*`` returns a check ``(exit_code, stdout) -> failure | None``.
None of them imports ``schreierkit``: certificates are read as plain JSON,
and the number of index-``n`` subgroups of a genus-``g`` surface group is
computed here from the character degrees of S_n (Mednykh's formula with
Hall's transitivity recursion).
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import comb, factorial


def expect_notfound(code: int, out: str) -> str | None:
    if code != 1 or out != "NOTFOUND\n":
        return f"expected NOTFOUND with exit 1, got exit {code}: {out[:60]!r}"
    return None


def expect_ok(code: int, out: str) -> str | None:
    if code != 0 or out != "OK\n":
        return f"verify did not answer OK: exit {code}, {out[:200]!r}"
    return None


def expect_certificate(word: str, order: int):
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"witness exit {code}, expected a certificate"
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"certificate is not JSON: {exc}"
        if doc.get("relator") != word:
            return f"certificate relator {doc.get('relator')!r} != {word!r}"
        if doc.get("image_order") != order:
            return f"image order {doc.get('image_order')} != recorded {order}"
        return None

    return check


def expect_basis(order: int, gens: int, facts: dict):
    """``basis --through r`` on an index-``order`` table: transversal,
    header, ``order*(gens-1)+1`` elements, then the certificate's
    ``r_position``."""
    rank = order * (gens - 1) + 1

    def check(code: int, out: str) -> str | None:
        lines = out.splitlines()
        if code != 0 or len(lines) != order + rank + 2:
            return f"basis: exit {code}, {len(lines)} lines"
        if lines[order] != f"index={order} rank={rank}":
            return f"basis header {lines[order]!r}"
        if lines[-1] != f"r_position={facts.get('r_position')}":
            return f"basis {lines[-1]!r}, certificate says {facts.get('r_position')}"
        return None

    return check


def expect_rewrite(order: int, gens: int, relators: int):
    generators = order * (gens - 1) + 1

    def check(code: int, out: str) -> str | None:
        lines = out.splitlines()
        header = f"generators={generators} relators={order * relators}"
        if code != 0 or not lines or lines[0] != header:
            return f"rewrite: exit {code}, header {lines[:1]}, expected {header!r}"
        if len(lines) != 1 + generators + order * relators:
            return f"rewrite: {len(lines)} lines"
        return None

    return check


def expect_surface(genus: int, index: int):
    count = surface_subgroups(genus, index)
    summary = f"subgroups={count} all_checks=pass"

    def check(code: int, out: str) -> str | None:
        tail = out[out.rfind("\n", 0, len(out) - 1) + 1:].rstrip("\n")
        if code != 0 or tail != summary:
            return f"surface: exit {code}, summary {tail!r}, expected {summary!r}"
        records = out.count("\nsubgroup=") + out.startswith("subgroup=")
        if records != count:
            return f"surface: {records} records, expected {count}"
        return None

    return check


def table_text(names: str, action: list[list[int]]) -> str:
    """Coset-table file text for a certificate's ``table.action``."""
    lines = [f"n={len(action[0])}"]
    lines += [f"{name}: " + " ".join(map(str, col)) for name, col in zip(names, action)]
    return "\n".join(lines) + "\n"


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def character_degrees(n: int) -> list[int]:
    """Degrees of the irreducible characters of S_n, by the hook length
    formula."""
    degrees = []
    for shape in _partitions(n):
        conjugate = [sum(1 for row in shape if row > j) for j in range(shape[0] if shape else 0)]
        hooks = 1
        for i, row in enumerate(shape):
            for j in range(row):
                hooks *= row - j + conjugate[j] - i - 1
        degrees.append(factorial(n) // hooks)
    return degrees


@lru_cache(maxsize=None)
def surface_subgroups(genus: int, index: int) -> int:
    """Number of index-``index`` subgroups of the genus-``genus`` orientable
    surface group.  Mednykh: ``|Hom(G, S_k)| = k! * sum_chi (k!/chi(1))^(2g-2)``;
    Hall: transitive homomorphisms ``t_k = h_k - sum_j C(k-1, j-1) t_j h_(k-j)``,
    and there are ``t_k / (k-1)!`` subgroups of index ``k``."""
    h = [1]
    for k in range(1, index + 1):
        fk = factorial(k)
        h.append(fk * sum((fk // d) ** (2 * genus - 2) for d in character_degrees(k)))
    t = [0] * (index + 1)
    for k in range(1, index + 1):
        t[k] = h[k] - sum(comb(k - 1, j - 1) * t[j] * h[k - j] for j in range(1, k))
    return t[index] // factorial(index - 1)
