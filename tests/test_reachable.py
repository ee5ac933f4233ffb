"""Every definition in ``src/repro`` is reached by code that runs.

A module-level ``def`` or ``class``, or a method that is not a dunder, is
reached when its name appears in a ``.py`` file under ``src/``,
``benchmarks/``, ``examples/`` or ``perfbench/``, outside every definition
of that name: as a name, an attribute, an import alias, or a string
literal equal to the identifier (which covers ``getattr`` and perfbench's
``BOUNDARIES``).  So a method that only a same-named override calls, or
that only calls itself, is not reached by that call.  Tests do not count.
A definition under a registering decorator (any decorator but the
descriptor, dataclass and cache ones) is reached too, because registry
factories register themselves.  A property's setter is part of its
property.

What only tests reach is deleted, or stays on :data:`ALLOWED` with a
one-line reason.  An entry that is reached again, or gone, is stale and
fails the test too, so the list stays short.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The trees whose code counts as running the simulator.
REACHING = ("src", "benchmarks", "examples", "perfbench")

#: Definitions only tests reach that stay, each with its reason.
ALLOWED = {
    "analysis/auction.py:adversarial_advantage": (
        "Theorem 3.1, the bound simulated advantage is compared against"
    ),
    "experiments/base.py:ExperimentScale.test": "the documented test scale",
    "simnet/network.py:FluidNetwork.active_flows": (
        "test observation API: the max-min tests check every active flow"
    ),
    "simnet/topology.py:FatTreeTopology.edge_agg_link": (
        "the fat-tree structure test reads each edge-aggregation cable"
    ),
    "simnet/topology.py:FatTreeTopology.pod_core_link": (
        "the fat-tree structure test reads each pod-core cable"
    ),
    "telemetry/spec.py:TelemetrySpec.footprint_budget": (
        "the memory bound that the 500k-client CI step checks"
    ),
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_ACCESSORS = frozenset({"setter", "getter", "deleter"})
#: Decorators that register nothing: a definition under one still needs a use.
_PLAIN = frozenset(
    {"property", "classmethod", "staticmethod", "dataclass", "lru_cache", "cache",
     "cached_property", "abstractmethod"}
) | _ACCESSORS


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_accessor(node):
    return any(_decorator_name(d) in _ACCESSORS for d in node.decorator_list)


def _definitions(tree):
    """(qualified name, node) for each module-level def/class and method."""
    for node in tree.body:
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)) or _is_dunder(node.name):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and not _is_dunder(item.name):
                    if not _is_accessor(item):
                        yield f"{node.name}.{item.name}", item


def _occurrences(tree):
    """(identifier, line) for every name, attribute, import and identifier
    string in ``tree``, except the property named by an accessor decorator."""
    accessor_targets = {
        id(decorator.value)
        for node in ast.walk(tree)
        if isinstance(node, _FUNCTIONS)
        for decorator in node.decorator_list
        if isinstance(decorator, ast.Attribute) and decorator.attr in _ACCESSORS
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if id(node) not in accessor_targets:
                yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node.lineno
                if alias.asname:
                    yield alias.asname, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def _span(node):
    """First and last line of a definition, its decorators included."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno


def unreached(root):
    """``path:qualname`` of each ``root/src/repro`` definition nothing reaches."""
    source = root / "src" / "repro"
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for tree_root in REACHING
        for path in sorted((root / tree_root).rglob("*.py"))
    }
    spans = {}
    for path, tree in trees.items():
        for _qualname, node in _definitions(tree):
            spans.setdefault(node.name, []).append((path, *_span(node)))
    reached = set()
    for path, tree in trees.items():
        for name, line in _occurrences(tree):
            if not any(
                where == path and first <= line <= last
                for where, first, last in spans.get(name, ())
            ):
                reached.add(name)
    found = []
    for path, tree in trees.items():
        if source not in path.parents:
            continue
        for qualname, node in _definitions(tree):
            if any(_decorator_name(d) not in _PLAIN for d in node.decorator_list):
                continue
            if node.name not in reached:
                found.append(f"{path.relative_to(source).as_posix()}:{qualname}")
    return found


def audit(root, allowed):
    """(unreached definitions not in ``allowed``, stale ``allowed`` entries)."""
    found = set(unreached(root))
    return sorted(found - set(allowed)), sorted(set(allowed) - found)


def test_every_definition_is_reached_or_allowed():
    assert len(list((ROOT / "src" / "repro").rglob("*.py"))) > 50
    assert audit(ROOT, ALLOWED) == ([], [])


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_the_scan_flags_test_only_definitions_and_stale_entries(tmp_path):
    _write(
        tmp_path / "src" / "repro" / "mod.py",
        "def register(name):\n"
        "    return lambda factory: factory\n"
        "def used():\n"
        "    return 1\n"
        "def only_tested():\n"
        "    return only_tested() if used() else 0\n"
        "@register('planted')\n"
        "def registered():\n"
        "    return 2\n"
        "class Kind:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 3\n"
        "    @size.setter\n"
        "    def size(self, value):\n"
        "        pass\n"
        "    @property\n"
        "    def label(self):\n"
        "        return 'label'\n"
        "    @label.setter\n"
        "    def label(self, value):\n"
        "        pass\n"
        "class Base:\n"
        "    def count(self):\n"
        "        return 1\n"
        "class Child(Base):\n"
        "    def count(self):\n"
        "        return super().count() + 1\n",
    )
    _write(
        tmp_path / "benchmarks" / "bench.py",
        "from repro.mod import Child, Kind\nKind().size\n",
    )
    _write(tmp_path / "examples" / "run.py", "import repro.mod\n")
    _write(tmp_path / "perfbench" / "tracer.py", "BOUNDARIES = ('register',)\n")
    _write(
        tmp_path / "tests" / "test_mod.py",
        "from repro.mod import Child, Kind, only_tested\n"
        "only_tested()\nKind().label\nChild().count()\n",
    )
    # Reached by a test alone, or by nothing but its own body, its setter or
    # a same-named override that only a test calls: flagged.  Reached by a
    # decorator, a string or another body: not.
    flagged = [
        "mod.py:Base.count",
        "mod.py:Child.count",
        "mod.py:Kind.label",
        "mod.py:only_tested",
    ]
    assert audit(tmp_path, {}) == (flagged, [])
    allowed = {"mod.py:only_tested": "a reason", "mod.py:used": "reached now"}
    assert audit(tmp_path, allowed) == (flagged[:3], ["mod.py:used"])
    assert audit(tmp_path, {"mod.py:gone": "deleted"}) == (flagged, ["mod.py:gone"])
