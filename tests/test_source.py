"""Static checks on the package source, with the standard library's ast.

No linter is a dependency, so these run with the tests: every module
uses what it imports, every module-level private name is read
somewhere in the package, and the package's __all__ lists exactly the
names its __init__ imports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diracweyl"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _loaded(tree):
    """The names the tree loads."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _reads(tree):
    """Every name the tree reads: loaded names, attribute names and names imported from modules."""
    out = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _imported(tree):
    """The names an import binds in the module, with their line numbers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _module_level_private(tree):
    """Names starting with _ that a module defines at its top level, with their line numbers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_every_import_is_used():
    unused = []
    for module, tree in TREES.items():
        if module == "__init__.py":  # it imports to re-export
            continue
        loaded = _loaded(tree)
        unused += [f"{module}:{line} {name}" for name, line in _imported(tree)
                   if name not in loaded]
    assert unused == []


def test_every_private_name_is_read():
    read = set().union(*map(_reads, TREES.values()))
    dead = [f"{module}:{line} {name}" for module, tree in TREES.items()
            for name, line in _module_level_private(tree) if name not in read]
    assert dead == []


def test_init_exports_exactly_what_it_imports():
    """__all__ lists each name __init__ imports, once, and nothing else but __version__."""
    tree = TREES["__init__.py"]
    listed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__")
    imported = [name for name, _ in _imported(tree)]
    assert len(listed) == len(set(listed))
    assert set(listed) - {"__version__"} == set(imported)
