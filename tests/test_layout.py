"""Module layout rules checked from the source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "schreierkit"


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders.extend(
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert offenders == []


def test_sibling_imports_are_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                unused.extend(
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name) not in used
                )
    assert unused == []


def test_every_error_class_is_used():
    errors = ast.parse((SRC / "errors.py").read_text())
    defined = {
        node.name
        for node in errors.body
        if isinstance(node, ast.ClassDef) and node.name != "SchreierKitError"
    }
    named = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("__init__.py", "errors.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert sorted(defined - named) == []
