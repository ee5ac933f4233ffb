"""Every import in ``src/repro`` is used by the module that makes it.

No linter ships with the project, so this parses each module and fails on
any imported name the module never reads.  ``__init__.py`` files are
skipped (their imports are the package's re-exports), as are names a
module lists in ``__all__``.  A name used only inside a string annotation
counts as used.
"""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported(tree):
    """(bound name, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    """Every name the module reads, including inside string annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {element.value for element in node.value.elts}
    return set()


def unused_imports(path):
    """``path:line: name`` for each import ``path`` never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    kept = _used(tree) | _exported(tree)
    return [
        f"{path.relative_to(SOURCE.parent)}:{line}: {name}"
        for name, line in _imported(tree)
        if name not in kept
    ]


def test_no_module_imports_a_name_it_never_uses():
    modules = [path for path in sorted(SOURCE.rglob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 50
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert unused == []


def test_the_scan_flags_what_is_unused_and_reads_string_annotations():
    tree = ast.parse(
        "from typing import Dict, Optional, Sequence\n"
        "import os.path\n"
        "def f(x: 'Optional[int]') -> Dict:\n"
        "    return {}\n"
    )
    assert [name for name, _line in _imported(tree) if name not in _used(tree)] == [
        "Sequence",
        "os",
    ]
