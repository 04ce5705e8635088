"""Source hygiene: every name a module of the package imports is used, and
networkx is imported in one place only."""

import ast
from pathlib import Path

import pytest

import tmh

MODULES = sorted(Path(tmh.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert not unused, "%s imports names it never uses: %r" % (path.name, unused)


def _networkx_imports(node, scope, found):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "networkx" for name in names):
            found.append(scope)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _networkx_imports(child, scope + (child.name,), found)
        else:
            _networkx_imports(child, scope, found)


def test_only_planar_rotation_imports_networkx():
    found = []
    for path in MODULES:
        _networkx_imports(ast.parse(path.read_text(), filename=str(path)),
                          (path.stem,), found)
    assert found == [("graphs", "planar_rotation")]
