"""Static checks on the package source, with the standard library's ast.

No linter is a dependency, so these run with the tests: every module,
the test modules included, uses what it imports, every module-level
private name is read somewhere in the package, the package's __all__
lists exactly the names of the lazy export table in its __init__, no
matmul operand is a transposed view or a product with a complex
constant, the components-first 3x3 kernels take no batched @ or
einsum, the Pauli encoding and per-float Python lists stay out of the
file format, no module builds an operator's complex symbol stack, a
principal symbol keeps its components p alone alive and only geometry
sets weak links between its results, one builder forms the subprincipal
symbol, only one declared global is rebound at run time, no functools
cache is used, only geometry imports a checksum module, only
fields._fourier_content takes a forward transform of a whole grid, and
numpy.fft is called in three functions only, none of them a derivative.
"""

import ast
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
    parses as (1j * x) @ m, and the interpolant's phases at 50 points took 41 ms that way
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


def _callers(name):
    """module:function for every package function that calls name, methods by their own name."""
    return {f"{module[:-3]}.{fn.name}" for module, tree in TREES.items() for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            and any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
                    for node in ast.walk(fn))}


def test_one_builder_forms_the_subprincipal_symbol():
    """A_sub = a0 + (i/2) s^j div_j is formed by operators._subprincipal alone: on the grid for
    the self-adjointness gate, subprincipal_symbol and check_dirac, and at its points for the
    b1 fibre route.  b reads tr A_sub = tr a0, so b_density forms none.  The grid divergence is
    taken by _half_divergence alone."""
    assert _callers("_subprincipal") == {"operators.__post_init__", "operators.subprincipal_symbol",
                                         "operators.check_dirac", "asymptotics.b1_density_fiber"}
    assert _callers("_half_divergence") == {"operators.__post_init__",
                                            "operators.subprincipal_symbol", "operators.check_dirac"}
    assert _callers("subprincipal_symbol") == set()


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
    """Nothing derived is kept alive on a symbol: a cache there would be held by every
    operator.  Its class body assigns p alone; the one other attribute a symbol gets is
    decode_metric's weak link (test_only_geometry_sets_weak_links)."""
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


def _foreign_attributes_assigned(tree):
    """(function, "owner.name", whether the value is a weakref.ref call) for every assignment to
    an attribute of a named object other than self, function the top-level def holding it."""
    for fn in tree.body:
        for node in ast.walk(fn):
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            weak = (isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "ref"
                    and getattr(node.value.func.value, "id", None) == "weakref")
            targets = getattr(node, "targets", None) or [node.target]
            for sub in (e for t in targets for e in getattr(t, "elts", [t])):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                        and sub.value.id != "self"):
                    yield getattr(fn, "name", ""), f"{sub.value.id}.{sub.attr}", weak


def test_only_geometry_sets_weak_links():
    """decode_metric links a symbol to its metric and the metric to its p, and torsion the
    metric to its bundle, each by a weak reference, so a result is shared only while a
    caller holds it and no link keeps anything alive.  No other package function assigns
    an attribute of a named object other than self."""
    caught = list(_foreign_attributes_assigned(ast.parse(
        "def f(sym, m):\n"
        "    sym._metric = weakref.ref(m)\n"
        "    m._cache = m.vol\n"
        "    self.p = 1\n"
        "    m.flags.writeable = False\n"
        "    a.x, b = 1, 2\n"
    )))
    assert caught == [("f", "sym._metric", True), ("f", "m._cache", False), ("f", "a.x", False)]
    found = {(module, *link) for module, tree in TREES.items()
             for link in _foreign_attributes_assigned(tree)}
    assert found == {("geometry.py", "decode_metric", "sym._metric", True),
                     ("geometry.py", "decode_metric", "metric._p", True),
                     ("geometry.py", "torsion", "metric._torsion", True)}


def _globals_declared(tree):
    """The names of every global statement in the tree."""
    return {name for node in ast.walk(tree) if isinstance(node, ast.Global) for name in node.names}


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
    """One module-level name is rebound at run time: spectra's unit-width counting CDF (one
    fixed grid, built on first use).  Any further global or functools cache has to be
    added here, with its bound."""
    caught = list(_cache_decorators(ast.parse(
        "@functools.lru_cache(maxsize=4)\ndef f(x): pass\n"
        "@cache\ndef g(x): pass\n"
        "class C:\n    @cached_property\n    def h(self): pass\n"
        "@staticmethod\ndef k(x): pass\n"
    )))
    assert caught == [1, 3, 6]
    declared = {f"{module[:-3]}.{name}" for module, tree in TREES.items()
                for name in _globals_declared(tree)}
    assert declared == {"spectra._unit_cdf_grid"}
    found = [f"{module}:{line}" for module, tree in TREES.items() for line in _cache_decorators(tree)]
    assert found == []


_CHECKSUM_MODULES = {"zlib", "hashlib"}


def _checksum_imports(tree):
    """Line numbers of every import of zlib or hashlib, or of a name from them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in _CHECKSUM_MODULES for name in names):
            yield node.lineno


def test_only_geometry_takes_content_checksums():
    """geometry._HELD_P keys the p arrays it shares between symbols on a crc32.  No other
    module imports zlib or hashlib, so a checksum of an array's bytes does not come back
    as a cache key: decode_metric and torsion share their results through weak
    references to the objects themselves."""
    caught = list(_checksum_imports(ast.parse(
        "import zlib\nfrom hashlib import blake2b\nimport json, hashlib\nimport weakref\n"
    )))
    assert caught == [1, 2, 3]
    found = [f"{module}:{line}" for module, tree in TREES.items() if module != "geometry.py"
             for line in _checksum_imports(tree)]
    assert found == []


_GRID_TRANSFORMS = {"fftn", "rfftn"}


def _grid_transforms(tree):
    """Line numbers of every fftn or rfftn call in the tree."""
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and _GRID_TRANSFORMS & {getattr(node.func, "attr", None), getattr(node.func, "id", None)}}


def test_only_fourier_content_transforms_a_whole_grid():
    """Which Fourier modes a grid field holds is decided in one place: the interpolant, the
    Galerkin assembly and the resolution refusal read fields._fourier_content, the one
    forward whole-grid transform.  Per-axis transforms (spectral derivatives) are not caught."""
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


# The functions that may call numpy.fft: which modes a field holds, the FFT bin order, and the
# one-transform synthesis of random scenario fields.
_FFT_CALLERS = {("fields.py", "_fourier_content"), ("fields.py", "_integer_modes"),
                ("scenarios.py", "_trig_polynomial")}


def _fft_uses(tree):
    """(function, line) of every numpy.fft call and import; function is the top-level def or the
    method holding it, "" at module level."""
    def uses(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                owner = sub.func.value
                if getattr(owner, "attr", None) == "fft" or getattr(owner, "id", None) == "fft":
                    yield sub.lineno
            elif isinstance(sub, ast.ImportFrom) and (sub.module or "").startswith("numpy.fft"):
                yield sub.lineno

    for node in tree.body:
        defs = [node] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
        if isinstance(node, ast.ClassDef):
            defs = [d for d in node.body if isinstance(d, ast.FunctionDef)]
        for owner in defs:
            yield from ((owner.name, line) for line in uses(owner))
        if not defs:
            yield from (("", line) for line in uses(node))


def test_only_three_functions_call_numpy_fft():
    """A derivative is one matrix product (fields._derivative), so no Fourier transform
    differentiates: numpy.fft is called only to find a field's modes, to order the FFT bins
    and to synthesise a random scenario field.  The real-FFT derivative that
    spectral_derivative used to take is caught."""
    caught = list(_fft_uses(ast.parse(
        "def spectral_derivative(values, ax):\n"
        "    spectrum = np.fft.rfft(values, axis=ax)\n"
        "    return np.fft.irfft(spectrum, axis=ax)\n"
        "class K:\n    def f(self, x):\n        return fft.ifft(x)\n"
        "from numpy.fft import rfft\nx = numpy.fft.fftfreq(4)\ny = np.fftn(x)\n"
    )))
    assert caught == [("spectral_derivative", 2), ("spectral_derivative", 3), ("f", 6), ("", 7), ("", 8)]
    found = {(module, name) for module, tree in TREES.items() for name, _ in _fft_uses(tree)}
    assert found == _FFT_CALLERS
