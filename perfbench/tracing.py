"""Outside-in layer tracing for the benchmark.

Every public function defined in a layer module is wrapped from here, and
the wrapper is bound in every ``schreierkit`` namespace that holds the
original, because modules call each other through names they imported
(``lemma.fold_verify``, ``rewriting.low_index_tables``, ...).  Nothing under
``src/`` changes.  Private helpers and methods are not wrapped; their time
counts as self time of the wrapped function that called them.

Each call records one span (function, parent span, start, end) in flat
arrays kept in memory; :meth:`Tracer.pass_metrics` derives the per-layer
metrics from the spans of one pass, and :meth:`Tracer.write_spans` writes
the spans out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import defaultdict
from functools import update_wrapper
from pathlib import Path
from time import perf_counter

PACKAGE = "schreierkit"
LAYERS = ("words", "perms", "cosets", "transversal", "lemma", "rewriting", "cli")

# Per-function metrics are reported for these; the others are wrapped too,
# so that layer self times stay exact, but only count towards their layer.
REPORTED = (
    "words.is_reduced",
    "words.concat_reduce",
    "words.invert",
    "words.free_reduce",
    "words.letter_word",
    "words.prefixes",
    "words.parse_word",
    "perms.eval_word",
    "perms.kills_relators",
    "perms.image_closure",
    "cosets.regular_table",
    "cosets.trace",
    "cosets.contains",
    "cosets.separates_prefixes",
    "cosets.acts_trivially",
    "cosets.low_index_tables",
    "cosets.table_to_text",
    "cosets.table_from_text",
    "transversal.schreier_transversal",
    "transversal.schreier_basis",
    "transversal.rewrite_in_basis",
    "transversal.fold_verify",
    "transversal.check_basis",
    "lemma.find_separating_quotient",
    "lemma.run_lemma",
    "lemma.verify_certificate",
    "lemma.certificate_to_json",
    "lemma.certificate_from_json",
    "rewriting.rewrite_presentation",
    "rewriting.surface_survey",
    "cli.main",
    "cli.cmd_witness",
    "cli.cmd_verify",
    "cli.cmd_basis",
    "cli.cmd_surface",
    "cli.cmd_rewrite",
)


def _found(c, args, result):
    c["lemma.find_separating_quotient.found"] += result is not None


def _ok(c, args, result):
    c["lemma.verify_certificate.ok"] += bool(result)


def _fold(c, args, result):
    c["transversal.fold_verify.letters_in"] += sum(len(u) for u in args[0].elements)
    c["transversal.fold_verify.passed"] += bool(result)


def _tables(c, args, result):
    c["cosets.low_index_tables.tables_out"] += len(result)


def _elements(c, args, result):
    c["perms.image_closure.elements"] += len(result)


def _relators(c, args, result):
    c["rewriting.rewrite_presentation.relators_out"] += len(result.relators)


OBSERVERS = {
    "lemma.find_separating_quotient": _found,
    "lemma.verify_certificate": _ok,
    "transversal.fold_verify": _fold,
    "cosets.low_index_tables": _tables,
    "perms.image_closure": _elements,
    "rewriting.rewrite_presentation": _relators,
}

# (metric, numerator count, denominator function or None for a plain count)
DERIVED = (
    ("lemma.find_separating_quotient.found_ratio", "lemma.find_separating_quotient.found",
     "lemma.find_separating_quotient"),
    ("lemma.verify_certificate.ok_ratio", "lemma.verify_certificate.ok",
     "lemma.verify_certificate"),
    ("transversal.fold_verify.letters_in", "transversal.fold_verify.letters_in", None),
    ("transversal.fold_verify.pass_ratio", "transversal.fold_verify.passed",
     "transversal.fold_verify"),
    ("cosets.low_index_tables.tables_out", "cosets.low_index_tables.tables_out", None),
    ("perms.image_closure.elements", "perms.image_closure.elements", None),
    ("rewriting.rewrite_presentation.relators_out",
     "rewriting.rewrite_presentation.relators_out", None),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units: dict[str, str] = {}
    for name in REPORTED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for metric, _, denominator in DERIVED:
        units[metric] = "ratio" if denominator else "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Wraps the layer functions of one imported ``schreierkit`` and records
    a span per call while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._installed: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    name = f"{layer}.{attr}"
                    self._wrappers[id(obj)] = self._wrap(
                        len(self.names), obj, OBSERVERS.get(name)
                    )
                    self.names.append(name)

    def _wrap(self, fid: int, fn, observe):
        fns, parents, starts, ends = self.fn, self.parent, self.start, self.end
        stack, counts = self.stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        return update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Rebind every original in every package namespace to its wrapper."""
        namespaces = [
            module
            for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, orig in self._installed:
            setattr(module, attr, orig)
        self._installed = []

    def pass_metrics(self, wall_s: float) -> tuple[dict[str, float], float]:
        """Per-layer metrics from the spans of one pass that took ``wall_s``,
        plus the harness's own time in that pass: the wall time outside every
        top-level span.  Consumes the observers' counts."""
        # one slot per function, plus an always-empty one for a reported
        # function the program no longer has
        n = len(self.names)
        calls = [0] * (n + 1)
        total = [0.0] * (n + 1)
        own = [0.0] * (n + 1)
        child = array("d", bytes(8 * len(self.fn)))
        fns, parents, starts, ends = self.fn, self.parent, self.start, self.end
        top = 0.0
        # children have larger indices than their parents, so a reverse scan
        # has every child's duration summed before its parent is reached
        for i in range(len(fns) - 1, -1, -1):
            f = fns[i]
            dur = ends[i] - starts[i]
            calls[f] += 1
            total[f] += dur
            own[f] += dur - child[i]
            p = parents[i]
            if p >= 0:
                child[p] += dur
            else:
                top += dur
        metrics: dict[str, float] = {}
        index = {name: i for i, name in enumerate(self.names)}
        for name in REPORTED:
            i = index.get(name, n)
            metrics[f"{name}.calls"] = calls[i]
            metrics[f"{name}.total_s"] = total[i]
            metrics[f"{name}.self_s"] = own[i]
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                own[i] for i, name in enumerate(self.names) if name.split(".")[0] == layer
            )
        for metric, numerator, denominator in DERIVED:
            value = self.counts.get(numerator, 0.0)
            if denominator is not None:
                base = calls[index.get(denominator, n)]
                value = value / base if base else 0.0
            metrics[metric] = value
        self.counts.clear()
        return metrics, wall_s - top

    def write_spans(self, stem: Path) -> None:
        """Write the recorded spans: ``<stem>.bin`` holds the columns one
        after another as raw machine arrays, ``<stem>.json`` names them, the
        functions and the span count.  ``parent`` is a span index, -1 for a
        top-level span; ``start`` and ``end`` are ``perf_counter`` seconds."""
        columns = (
            ("fn", self.fn), ("parent", self.parent), ("start", self.start), ("end", self.end)
        )
        with open(stem.with_suffix(".bin"), "wb") as out:
            for _, column in columns:
                column.tofile(out)
        header = {
            "spans": len(self.fn),
            "byteorder": sys.byteorder,
            "columns": [[name, column.typecode, column.itemsize] for name, column in columns],
            "functions": self.names,
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")

    def clear(self) -> None:
        """Forget the recorded spans, keeping memory to one pass."""
        for column in (self.fn, self.parent, self.start, self.end):
            del column[:]
