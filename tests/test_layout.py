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


def test_every_verifier_failure_name_is_tested():
    lemma = ast.parse((SRC / "lemma.py").read_text())
    verify = next(
        node for node in lemma.body
        if isinstance(node, ast.FunctionDef) and node.name == "verify_certificate"
    )
    # the only identifier-shaped strings in the verifier are its failure names
    emitted = {
        node.value
        for node in ast.walk(verify)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
    }
    tests = (SRC.parent.parent / "tests" / "test_lemma.py").read_text()
    assert len(emitted) >= 16
    assert sorted(name for name in emitted if f'"{name}"' not in tests) == []
