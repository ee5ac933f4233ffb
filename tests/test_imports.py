"""Every import in ``src/repro`` is used by the module that makes it.

No linter ships with the project, so this parses each module and fails on
any imported name the module never reads.  ``__init__.py`` files are
skipped (their imports are the package's re-exports), as are names a
module lists in ``__all__``.  A name used only inside a string annotation
counts as used.  Heavy standard-library modules that only a rare path runs
are imported on that path, and a fresh interpreter checks that importing
the scenario layer and running a serial sweep loads none of them.
"""

import ast
import os
import pathlib
import subprocess
import sys

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


#: Standard-library modules only a rare path needs: a process pool
#: (``jobs > 1``), the health prober's median, an unknown defense name.
LAZY_MODULES = ("multiprocessing", "statistics", "difflib")


def test_a_serial_sweep_loads_no_lazy_module():
    code = (
        "import sys\n"
        "from repro.scenarios.registry import build_scenario\n"
        "from repro.scenarios.runner import SweepRunner\n"
        "spec = build_scenario('lan-baseline', good_clients=2, bad_clients=2, duration=1.0)\n"
        "SweepRunner(jobs=1).run_specs([spec])\n"
        f"print(sorted(set({LAZY_MODULES!r}) & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert completed.stdout.strip() == "[]"
