"""Static checks on the package source, with the standard library's ast.

No linter is a dependency, so these run with the tests: every module,
the test modules included, uses what it imports, every module-level
private name is read somewhere in the package, the package's __all__
lists exactly the names of the lazy export table in its __init__, no
matmul operand is a transposed view or a product with a complex
constant, the components-first 3x3 kernels take no batched @ or
einsum, the Pauli encoding and per-float Python lists stay out of the
file format, no module builds an operator's complex symbol stack, the
module state that changes at run time is the declared one name, no
functools cache is used, only fields._fourier_content takes a forward
transform of a whole grid, the README's paper-to-code table names
exported functions and collected tests, the open-defects list of
CHANGES.md names the open FOUND entries of its log, and its recent log
entries are short.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diracweyl"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
TEST_TREES = {f"tests/{path.name}": ast.parse(path.read_text())
              for path in sorted(Path(__file__).resolve().parent.glob("*.py"))}


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


def _module_level_names(tree):
    """The functions, classes and names a module defines at its top level, with their line numbers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node.lineno


def _module_level_private(tree):
    """Names starting with _ that a module defines at its top level, with their line numbers."""
    for name, line in _module_level_names(tree):
        if name.startswith("_") and not name.startswith("__"):
            yield name, line


def test_every_import_is_used():
    unused = []
    for module, tree in {**TREES, **TEST_TREES}.items():
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
    """__init__ imports each export on first use, from its module -> names table: the
    table lists each name once, each defined at the top level of the module it names,
    __all__ is __version__ followed by the table's names, and no submodule is imported."""
    import diracweyl

    tree = TREES["__init__.py"]
    table = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "_EXPORTS")
    names = [name for group in table.values() for name in group]
    assert len(names) == len(set(names))
    assert diracweyl.__all__ == ["__version__", *names]
    unresolved = [f"{module}.{name}" for module, group in table.items()
                  for name in group
                  if name not in {n for n, _ in _module_level_names(TREES[f"{module}.py"])}]
    assert unresolved == []
    assert [name for name, _ in _imported(tree)] == ["import_module"]


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


def _complex_product(node):
    """Whether an expression is a complex constant or a product with one (1j * x, -2j * x * y)."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    if isinstance(node, ast.Constant):
        return isinstance(node.value, complex)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and (_complex_product(node.left) or _complex_product(node.right)))


def _slow_matmul_operands(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            for operand in (node.left, node.right):
                if _transposed_view(operand) or _complex_product(operand):
                    yield node.lineno, ast.unparse(operand)


def test_no_matmul_operand_takes_the_non_blas_loop():
    """A swapped view as an @ operand sends numpy's batched matmul to its non-BLAS loop
    (p^T p on 32^3 points: 11.7 ms against 2.9 ms plus a 1.0 ms copy); fields._transposed
    makes the contiguous copy.  So does a complex operand against a real one: 1j * x @ m
    parses as (1j * x) @ m, and a trigonometric interpolant's phases at 50 points took 41 ms that way
    against 3.6 ms for 1j * (x @ m)."""
    caught = [line for line, _ in _slow_matmul_operands(ast.parse(
        "a = np.swapaxes(p, -1, -2) @ p\n"
        "b = x @ y.T\n"
        "c = np.swapaxes(e, -1, -2)[..., None, :, :] @ d\n"
        "d = m.transpose(0, 2, 1) @ m\n"
        "e = _transposed(p) @ p\n"
        "f = np.exp(1j * pts @ modes)\n"
        "g = x @ (-0.5j * y * z)\n"
        "h = np.exp(1j * (pts @ modes))\n"
    ))]
    assert sorted(caught) == [1, 2, 3, 4, 6, 7]
    found = [f"{module}:{line} {text}" for module, tree in TREES.items()
             for line, text in _slow_matmul_operands(tree)]
    assert found == []


def _batched_products(tree):
    """Line numbers of every @ product and every einsum call in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            yield node.lineno
        elif isinstance(node, ast.Call) and "einsum" in (getattr(node.func, "attr", None),
                                                        getattr(node.func, "id", None)):
            yield node.lineno


# Kernels that hold their 3x3 fields components first, with the helpers they call.
_COMPONENTS_FIRST_KERNELS = {
    "geometry.py": ("_torsion", "coframe", "_coframe", "_dual_2forms", "_star_torsion_from_curl",
                    "decode_metric", "topological_charge"),
    "operators.py": ("_dirac_a0", "check_dirac", "gauge_transform", "_half_divergence",
                     "_subprincipal"),
}


def test_components_first_kernels_take_no_batched_matmul():
    """numpy's batched @ on an (n, n, n, 3, 3) stack calls BLAS once per 3x3 matrix: one
    product on 32^3 points took 2.1-2.5 ms, and 2.8 ms with a grid-first view of a
    components-first array (a symbol's p) as operand.  geometry._matmul_cm is one einsum
    on contiguous components-first fields: a 3x3 by 3x3 product measured 0.91 ms (1.21 ms
    for its former per-entry ufunc loop), 2x3 by 3x3 0.61 ms and 3x3 by 3x1 0.29 ms.  So
    these kernels route their grid 3x3 algebra through _matmul_cm, where the one einsum
    lives; the torsion of the grid-first layout, with seven batched products and an
    einsum, is caught."""
    caught = list(_batched_products(ast.parse(
        "g = e_t @ d\n"
        "ax2 = np.einsum('...kh,...kh->...', cof, curl)\n"
        "c = _matmul_cm(ec, gc)\n"
        "t = einsum('ii', m)\n"
    )))
    assert caught == [1, 2, 4]
    found = []
    for module, names in _COMPONENTS_FIRST_KERNELS.items():
        bodies = {node.name: node for node in TREES[module].body if isinstance(node, ast.FunctionDef)}
        assert set(names) <= set(bodies), module
        found += [f"{module}:{line} in {name}" for name in names
                  for line in _batched_products(bodies[name])]
    assert found == []


def test_serialize_stores_no_pauli_encoding():
    """Files hold the symbol's real frame components; the Pauli encoding lives in geometry."""
    imported = {name for name, _ in _imported(TREES["serialize.py"])}
    assert imported.isdisjoint({"PAULI", "pauli_components", "pauli_matrices"})


def _symbol_stack_reads(tree):
    """Line numbers of every x.sigma.sigma in the tree: an operator's complex symbol stack."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and node.attr == "sigma" and isinstance(node.value, ast.Attribute)
            and node.value.attr == "sigma"]


def test_no_module_builds_an_operators_complex_symbol_stack():
    """Library code reads an operator's symbol through its real components op.sigma.p;
    op.sigma.sigma builds the (n, n, n, 3, 2, 2) complex stack on every read."""
    assert _symbol_stack_reads(ast.parse("a = op.sigma.sigma\nb = op.sigma.p\nc = sym.sigma\n")) == [1]
    found = [f"{module}:{line}" for module, tree in TREES.items() for line in _symbol_stack_reads(tree)]
    assert found == []


def _tolist_calls(tree):
    """Line numbers of every .tolist() call in the tree."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "tolist"]


def test_serialize_builds_no_python_float_lists():
    """Version-3 files hold each grid array as base64 bytes; a .tolist() in the writer
    would go back to one Python float, and one JSON float, per stored number."""
    caught = _tolist_calls(ast.parse("a = e.tolist()\nb = list(e)\nc = np.asarray(e).tolist()\n"))
    assert caught == [1, 3]
    assert _tolist_calls(TREES["serialize.py"]) == []


def _module_state_written(tree):
    """The names a global statement declares, and the module-level names a function writes
    into or deletes from by subscript: the module state that changes at run time."""
    top = {name for name, _ in _module_level_names(tree)}
    for node in (n for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for n in ast.walk(fn)):
        if isinstance(node, ast.Global):
            yield from node.names
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
              and isinstance(node.value, ast.Name) and node.value.id in top):
            yield node.value.id


_CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def _cache_decorators(tree):
    """Line numbers of every functools cache decorator in the tree, called or not."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                func = dec.func if isinstance(dec, ast.Call) else dec
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in _CACHE_DECORATORS:
                    yield dec.lineno


def test_module_state_is_declared_and_bounded():
    """One module-level name changes at run time: geometry._HELD_P, the p arrays live symbols
    hold, keyed on a crc32 (weak values, so it holds nothing alive).  Any further global,
    written container or functools cache has to be added here, with its bound."""
    state = set(_module_state_written(ast.parse(
        "_SEEN = {}\n_LIMITS = [1, 2]\n_LIMITS[1] = 3\n"
        "def f(k):\n    global _count\n    _SEEN[k] = 1\n    local = {}\n    local[k] = _LIMITS[0]\n"
        "class C:\n    def g(self, k):\n        del _SEEN[k]\n        _LIMITS[0] = 1\n"
    )))
    assert state == {"_count", "_SEEN", "_LIMITS"}
    caught = list(_cache_decorators(ast.parse(
        "@functools.lru_cache(maxsize=4)\ndef f(x): pass\n"
        "@cache\ndef g(x): pass\n"
        "class C:\n    @cached_property\n    def h(self): pass\n"
        "@staticmethod\ndef k(x): pass\n"
    )))
    assert caught == [1, 3, 6]
    written = {f"{module[:-3]}.{name}" for module, tree in TREES.items()
               for name in _module_state_written(tree)}
    assert written == {"geometry._HELD_P"}
    found = [f"{module}:{line}" for module, tree in TREES.items() for line in _cache_decorators(tree)]
    assert found == []


_GRID_TRANSFORMS = {"fftn", "rfftn"}


def _grid_transforms(tree):
    """Line numbers of every fftn or rfftn call in the tree."""
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and _GRID_TRANSFORMS & {getattr(node.func, "attr", None), getattr(node.func, "id", None)}}


def test_only_fourier_content_transforms_a_whole_grid():
    """Which Fourier modes a grid field holds is decided in one place: the Galerkin assembly
    and the resolution refusal read fields._fourier_content, the one forward whole-grid
    transform.  Per-axis transforms (spectral derivatives) are not caught."""
    caught = _grid_transforms(ast.parse(
        "a = np.fft.fftn(x, axes=(0, 1, 2))\nb = np.fft.fft(x, axis=0)\n"
        "c = np.fft.rfftn(x)\nd = fftn(x)\ne = np.fft.ifftn(x)\n"
    ))
    assert caught == {1, 3, 4}
    helper = next((node for node in TREES["fields.py"].body
                   if isinstance(node, ast.FunctionDef) and node.name == "_fourier_content"), None)
    allowed = set() if helper is None else _grid_transforms(helper)
    found = [f"{module}:{line}" for module, tree in TREES.items()
             for line in sorted(_grid_transforms(tree) - (allowed if module == "fields.py" else set()))]
    assert found == []
    assert len(allowed) == 1


def _collected(tree):
    """The test names pytest collects from a test module: its test* functions, and the test*
    methods of its Test* classes as Class::method."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            out.add(node.name)
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            out.update(f"{node.name}::{f.name}" for f in node.body
                       if isinstance(f, ast.FunctionDef) and f.name.startswith("test"))
    return out


def test_readme_paper_table_names_exported_functions_and_collected_tests():
    """Each of the eight rows of the table that opens the README names at least one function
    that diracweyl exports and one test that pytest collects."""
    import diracweyl

    head = (PACKAGE.parent.parent / "README.md").read_text().split("\n## ")[0]
    rows = [line.strip("|").split("|") for line in head.splitlines() if line.startswith("|")][2:]
    assert len(rows) == 8
    for _, functions, tests in rows:
        names, ids = re.findall(r"`(\w+)`", functions), re.findall(r"`(tests/\w+\.py)::([\w:]+)`", tests)
        assert names and ids, (functions, tests)
        assert [name for name in names if not callable(getattr(diracweyl, name, None))] == []
        assert [f"{path}::{name}" for path, name in ids if name not in _collected(TEST_TREES[path])] == []


def test_open_defects_list_names_the_open_found_entries_of_the_log():
    """Each "FOUND n (item k)" bullet under "Open defects" in CHANGES.md names log entry n,
    counting the log's first entry as 1, and that entry begins "- FOUND:".  The numbers are
    unique and ascending, and every log entry that begins "- FOUND:" is listed."""
    head, log = (PACKAGE.parent.parent / "CHANGES.md").read_text().split("\n## Log\n")
    opening = head.split("## Open defects")[1]
    listed = [int(n) for n in re.findall(r"^- FOUND (\d+) \(item \d+\)", opening, re.M)]
    entries = [line for line in log.splitlines() if line.startswith("- ")]
    assert listed and listed == sorted(set(listed))
    assert [n for n in listed if not (n <= len(entries) and entries[n - 1].startswith("- FOUND:"))] == []
    assert listed == [n for n, entry in enumerate(entries, 1) if entry.startswith("- FOUND:")]


def test_recent_changes_entries_fit_fifteen_lines_of_100_columns():
    """Each CHANGES.md log entry from "One Galerkin coefficient table" on, FOUND and MENDED
    entries aside, is at most 15 lines, its first "- " line and the indented ones after it,
    each of at most 100 characters."""
    log = (PACKAGE.parent.parent / "CHANGES.md").read_text().split("\n## Log\n")[1]
    recent = "- One Galerkin coefficient table" + log.split("\n- One Galerkin coefficient table")[1]
    entries = [entry.splitlines() for entry in re.split(r"\n(?=- )", recent.strip())]
    checked = [lines for lines in entries if not lines[0].startswith(("- FOUND:", "- MENDED:"))]
    assert len(checked) >= 2
    assert [(lines[0][:60], len(lines), max(map(len, lines))) for lines in checked
            if len(lines) > 15 or max(map(len, lines)) > 100] == []
