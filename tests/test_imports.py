"""Source hygiene: every name a module of the package imports is used,
networkx is imported in one place only, no function imports a module of
the package, every private definition is referenced, and the count of
optional parameters and the package's line count are pinned."""

import ast
from pathlib import Path

import pytest

import tmh

MODULES = sorted(Path(tmh.__file__).resolve().parent.glob("*.py"))
# parameters with a default over every function of the package, lambdas
# aside: a change that adds or drops a knob moves this number with it
OPTIONAL_PARAMETERS = 80
# lines of the package's modules, as `cat src/tmh/*.py | wc -l` counts
# them: a change moves this number with its diff
SOURCE_LINES = 6724


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


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


def test_no_function_imports_a_package_module():
    found = []
    for path in MODULES:
        for fn in _functions(ast.parse(path.read_text(), filename=str(path))):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] if node.level == 0 else ["tmh"]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(name.split(".")[0] == "tmh" for name in names):
                    found.append("%s.%s (line %d)" % (path.stem, fn.name, node.lineno))
    assert not found, "functions that import a tmh module: %r" % found


def test_optional_parameter_count_is_pinned():
    count = sum(len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)
                for path in MODULES for fn in _functions(ast.parse(path.read_text())))
    assert count == OPTIONAL_PARAMETERS


def test_source_line_count_is_pinned():
    assert sum(path.read_text().count("\n") for path in MODULES) == SOURCE_LINES


def _private_definitions_and_references():
    """The underscore-named functions, methods and classes defined in the
    package (dunder methods aside), and for each name the references to it
    as a Name, an Attribute or an import alias, each with the definitions
    that enclose it."""
    defs, refs = [], []

    def visit(node, where, enclosing):
        for child in ast.iter_child_nodes(node):
            inner = enclosing
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if name.startswith("_") and not (name.startswith("__")
                                                 and name.endswith("__")):
                    defs.append((name, where, child))
                inner = enclosing + (child,)
            elif isinstance(child, ast.Name):
                refs.append((child.id, inner))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, inner))
            elif isinstance(child, ast.alias):
                refs.append((child.asname or child.name, inner))
            visit(child, where, inner)

    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        visit(tree, path.stem, ())
    return defs, refs


def test_every_private_definition_is_referenced_elsewhere():
    defs, refs = _private_definitions_and_references()
    orphans = sorted(
        "%s.%s (line %d)" % (where, name, node.lineno) for name, where, node in defs
        if not any(ref == name and node not in enclosing for ref, enclosing in refs))
    assert len(defs) > 80
    assert not orphans, "private definitions no code refers to: %r" % orphans
