"""What a simplification leaves behind in ``src/scsa``: module-level imports
that their module no longer uses, and private module-level names that nothing
refers to. Parsed with ``ast`` alone, so no linter needs to be installed."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "scsa"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def imported_names(tree):
    """The names the module-level imports of ``tree`` bind, but for
    ``from __future__`` imports."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def private_definitions(tree):
    """``(name, node)`` for each module-level function, class or assignment
    whose name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def references(tree, skip=None):
    """The names ``tree`` refers to outside the subtree ``skip``: loaded
    names, attribute names, and names imported from another module."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py"}))
def test_every_module_level_import_is_used(module):
    tree = MODULES[module]
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    assert sorted(set(imported_names(tree)) - used) == []


def test_every_private_name_is_referenced():
    unused = []
    for module, tree in MODULES.items():
        for name, node in private_definitions(tree):
            seen = any(
                name in references(other, skip=node if other is tree else None)
                for other in MODULES.values()
            )
            if not seen:
                unused.append(f"{module}:{name}")
    assert unused == []
