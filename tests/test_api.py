"""The exported surface: every name `qburst` exports has a caller inside the
package or is listed in README's "Public API" section, and every name listed
there resolves on the package.  And no module keeps an import it never reads
(`__init__` is left out: its imports are the package's exports)."""

import ast
import re
import types
from pathlib import Path

import qburst

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [path for path in (ROOT / "src" / "qburst").glob("*.py") if path.name != "__init__.py"]


def _public_api() -> set[str]:
    """The backticked names of README's "Public API" section (none without it)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Public API\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    return set(re.findall(r"`([^`]+)`", section.group(1))) if section else set()


def _has_caller(tree: ast.AST, name: str) -> bool:
    """True when `name` is read as a name or attribute outside its own def
    or class (imports are not reads)."""
    stack = [tree]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name:
                continue
            if getattr(child, "id", None) == name or getattr(child, "attr", None) == name:
                return True
            stack.append(child)
    return False


def test_every_export_has_a_caller_or_is_listed():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    exported = [
        name for name in qburst.__all__
        if not isinstance(getattr(qburst, name), types.ModuleType)
    ]
    uncalled = {name for name in exported if not any(_has_caller(t, name) for t in trees)}
    assert uncalled <= _public_api(), sorted(uncalled - _public_api())


def test_every_listed_name_resolves():
    listed = _public_api()
    assert listed
    for dotted in sorted(listed):
        obj = qburst
        for part in dotted.split("."):
            assert hasattr(obj, part), f"README Public API lists {dotted!r}"
            obj = getattr(obj, part)


# perfbench's tracer patches this binding and its self-test reads it
UNREAD_ON_PURPOSE = {("qrsburst", "row_reduce")}


def _unread_imports(tree: ast.Module) -> set[str]:
    """The names bound by the module-level imports of `tree` that nothing in
    it reads."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return bound - read


def test_every_module_level_import_is_read():
    unread = {
        (path.stem, name)
        for path in SOURCES
        for name in _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert unread <= UNREAD_ON_PURPOSE, sorted(unread - UNREAD_ON_PURPOSE)
