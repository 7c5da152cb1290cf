"""Module layout rules checked from the source text."""

import ast
import inspect
import io
from contextlib import redirect_stdout
from pathlib import Path

import schreierkit

SRC = Path(__file__).resolve().parent.parent / "src" / "schreierkit"
README = SRC.parent.parent / "README.md"


def readme_tour() -> str:
    """The python block of the README's library tour."""
    text = README.read_text()
    start = text.index("```python\n", text.index("## Library tour")) + len("```python\n")
    return text[start:text.index("```", start)]


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


def test_unchecked_constructors_stay_where_their_input_is_proved():
    # every read of `X._trusted`, call or not, with its module and the
    # top-level function it is in
    reads = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            reads.extend(
                (path.stem, getattr(top, "name", None), ast.unparse(node.value))
                for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr == "_trusted"
            )
    assert sorted(reads) == [
        ("cosets", "iter_low_index_tables", "CosetTable"),
        ("words", "parse_word", "FreeWord"),
    ]


def test_sibling_imports_are_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # sibling and standard-library imports alike; `import a.b` binds `a`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                unused.extend(
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name) not in used
                )
            elif isinstance(node, ast.Import):
                unused.extend(
                    f"{path.name}: import {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.partition(".")[0]) not in used
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
    assert emitted == {
        "alphabets_consistent", "hom_kills_relators", "image_order_matches",
        "table_matches_regular", "relators_in_subgroup", "relator_in_subgroup",
        "prefixes_separated", "transversal_valid", "transversal_seeded",
        "basis_invariants", "r_position_valid", "matched_inverse_consistent",
        "basis_matches_schreier_method", "generator_bound_matches", "fold_verify_passes",
    }
    assert sorted(name for name in emitted if f'"{name}"' not in tests) == []


def test_src_never_reads_letter_outside_its_definition():
    # a word is its letter codes; Letter stays only for callers that spell
    # letters by generator and sign, so no module reads it
    definitions, reads = [], []

    def visit(node, path, inside):
        if isinstance(node, ast.ClassDef) and node.name == "Letter":
            definitions.append(path.name)
            inside = True
        if not inside and (
            isinstance(node, ast.Name) and node.id == "Letter"
            or isinstance(node, ast.Attribute) and node.attr == "Letter"
        ):
            reads.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, inside)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, False)
    assert definitions == ["words.py"]
    assert reads == []


def src_nodes_with_scope():
    """Every node of ``src/`` with its module and the dotted name of the
    definitions enclosing it (``""`` at module level)."""
    def visit(node, module, scope):
        yield node, module, scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        yield from visit(ast.parse(path.read_text(), filename=str(path)), path.stem, "")


def test_src_decodes_a_sign_only_where_a_letter_is_pickled():
    # a letter and a rewritten relator's symbol are both codes 2i + (s < 0):
    # src/ reads k >> 1 and k & 1, and spells the sign out only to rebuild
    # a Letter from its pickled (generator, sign)
    decodings = [
        (module, scope)
        for node, module, scope in src_nodes_with_scope()
        if isinstance(node, ast.IfExp)
        and (ast.unparse(node.body), ast.unparse(node.orelse)) == ("-1", "1")
    ]
    assert decodings == [("words", "Letter.__getnewargs__")]


def test_process_caches_are_the_two_known_ones():
    def names_a_cache(node):
        # functools.cache, or cache and lru_cache imported by name
        if isinstance(node, ast.Attribute):
            return node.attr in ("cache", "lru_cache") and ast.unparse(node.value) == "functools"
        return isinstance(node, ast.Name) and node.id in ("cache", "lru_cache")

    cached, mentions = [], 0
    for node, module, scope in src_nodes_with_scope():
        mentions += names_a_cache(node)
        if isinstance(node, ast.FunctionDef):
            for decorator in node.decorator_list:
                if names_a_cache(getattr(decorator, "func", decorator)):
                    cached.append((module, f"{scope}.{node.name}" if scope else node.name))
    assert cached == [("cli", "_parser"), ("lemma", "_symmetric")]
    # functools.cache or lru_cache is named nowhere but in those decorators
    assert mentions == len(cached)


def test_every_export_is_used_in_src_or_shown_in_the_tour():
    # a public function or class that only tests call does not belong in src/,
    # exported or not; main finds the cmd_* handlers by name
    referenced = set()
    defined = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and node.id not in defining:
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            referenced.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            visit(tree, frozenset())
            defined.update(
                node.name
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith(("_", "cmd_"))
            )
    tour = {
        alias.name
        for node in ast.walk(ast.parse(readme_tour()))
        if isinstance(node, ast.ImportFrom) and node.module == "schreierkit"
        for alias in node.names
    }
    exported = {
        name
        for name in schreierkit.__all__
        if inspect.isfunction(obj := getattr(schreierkit, name)) or inspect.isclass(obj)
    }
    assert len(exported) >= 60
    assert {"prefix_cosets", "tree_edges", "kills", "Letter", "basis_letters"} <= defined
    assert sorted((exported | defined) - referenced - tour) == []


def test_readme_tour_runs_and_prints_what_it_says():
    tour = readme_tour()
    expected = [
        line.split("#", 1)[1].strip() for line in tour.splitlines() if line.startswith("print(")
    ]
    assert expected == ["['b', 'aa', 'abA']"]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(tour, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
