"""Static checks on the package source, with the standard library's ast.

No linter is a dependency, so these run with the tests: every module
uses what it imports, every module-level private name is read
somewhere in the package, the package's __all__ lists exactly the
names its __init__ imports, no matmul operand is a transposed view, the
Pauli encoding stays out of the file format, and a principal symbol
holds its components p and nothing else.
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


def _transposed_view(node):
    """Whether an expression is a swapaxes/transpose/moveaxis call or a .T/.mT, maybe indexed."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in ("T", "mT")
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name in ("swapaxes", "transpose", "moveaxis")
    return False


def _transposed_matmul_operands(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            for operand in (node.left, node.right):
                if _transposed_view(operand):
                    yield node.lineno, ast.unparse(operand)


def test_no_matmul_operand_is_a_transposed_view():
    """A swapped view as an @ operand sends numpy's batched matmul to its non-BLAS loop
    (p^T p on 32^3 points: 11.7 ms against 2.9 ms plus a 1.0 ms copy); fields._transposed
    makes the contiguous copy."""
    caught = [line for line, _ in _transposed_matmul_operands(ast.parse(
        "a = np.swapaxes(p, -1, -2) @ p\n"
        "b = x @ y.T\n"
        "c = np.swapaxes(e, -1, -2)[..., None, :, :] @ d\n"
        "d = m.transpose(0, 2, 1) @ m\n"
        "e = _transposed(p) @ p\n"
    ))]
    assert caught == [1, 2, 3, 4]
    found = [f"{module}:{line} {text}" for module, tree in TREES.items()
             for line, text in _transposed_matmul_operands(tree)]
    assert found == []


def test_serialize_stores_no_pauli_encoding():
    """Files hold the symbol's real frame components; the Pauli encoding lives in geometry.

    A version-1 file's complex matrices are decoded by PrincipalSymbolField, not here.
    """
    tree = TREES["serialize.py"]
    imported = {name for name, _ in _imported(tree)}
    assert imported.isdisjoint({"PAULI", "pauli_components", "pauli_matrices"})
    chains = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and node.attr == "sigma" and isinstance(node.value, ast.Attribute)
              and node.value.attr == "sigma"]
    assert chains == []


def _self_attributes_assigned(cls):
    """The self.<name> targets a class body assigns, augments or deletes, with line numbers."""
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    yield sub.attr, sub.lineno


def test_principal_symbol_assigns_only_p():
    """Nothing derived is kept on a symbol: a cache there would be held by every operator."""
    caught = [name for name, _ in _self_attributes_assigned(ast.parse(
        "class S:\n"
        "    def f(self):\n"
        "        self.p = 1\n"
        "        self._cache = 2\n"
        "        self.a, self.b = 3, 4\n"
        "        self.n += 1\n"
    ))]
    assert caught == ["p", "_cache", "a", "b", "n"]
    cls = next(node for node in TREES["geometry.py"].body
               if isinstance(node, ast.ClassDef) and node.name == "PrincipalSymbolField")
    assigned = {f"{name} (line {line})" for name, line in _self_attributes_assigned(cls)
                if name != "p"}
    assert assigned == set()
