"""Span tracer that the benchmark installs around diracweyl from the outside.

Installing a Tracer wraps every public function of the package layers
(the names in LAYERS) and re-binds each wrapped name in every
``diracweyl.*`` module that imported it, so calls between modules are
seen too.  The numpy kernels beneath the package (``np.fft.*``,
``np.einsum``, ``np.linalg.eigvalsh``) and ``json.load`` are wrapped the
same way.  No library file is changed; ``uninstall`` restores every
binding.

Each wrapped call records a span (name, layer, start, end, parent, the
operation it belongs to).  Self time is a span's duration minus the
durations of its direct children; the code is single threaded, so the
children never overlap.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = (
    "fields",
    "geometry",
    "operators",
    "asymptotics",
    "spectra",
    "serialize",
    "cli",
    "scenarios",
)

FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")
FIBER_ROUTES = (
    "asymptotics.b1_density_fiber",
    "asymptotics.b2_density_fiber_torsion",
    "asymptotics.b2_density_fiber_curvature",
)
COUNTING = (
    "spectra.counting_function",
    "spectra.counting_bounds",
    "spectra.asymptotic_comparison",
    "spectra.mollified_count",
    "spectra.lattice_count",
)
GALERKIN = "spectra.galerkin_spectrum"
DECODERS = ("geometry.decode_frame", "geometry.decode_metric")
LOADERS = ("serialize.load_operator", "serialize.load_symbol", "serialize.load_frame")
CLI_COMMANDS = ("decode", "check_dirac", "asymptotics", "spectrum")

# span record fields
NAME, LAYER, START, END, PARENT, OP, FIBER = range(7)


def _path_arg(args, kwargs, index=1, key="path"):
    path = kwargs.get(key, args[index] if len(args) > index else None)
    return path if isinstance(path, (str, os.PathLike)) else None


class Tracer:
    """Records spans and counts for the calls it wraps while installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.symbols: set = set()  # (operation, symbol digest) pairs
        self.galerkin: list = []  # (matrix order, eigenvalues kept)
        self.exact: list = []  # (lattice points kept, lattice points enumerated)
        self.op = -1
        self._restore: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn, after=None):
        spans, stack, errors = self.spans, self.stack, self.errors
        fiber_root = name in FIBER_ROUTES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            in_fiber = fiber_root or (parent >= 0 and spans[parent][FIBER])
            rec = [name, layer, 0.0, 0.0, parent, self.op, in_fiber]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent < 0 or spans[parent][LAYER] != layer:
                    errors[layer] += 1
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _bind(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the package layers and the numpy/json kernels beneath them."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = [importlib.import_module(f"diracweyl.{layer}") for layer in LAYERS]
        owners = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "diracweyl"]
        for layer, module in zip(LAYERS, package):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, layer, fn, self._after_hook(name))
                for owner in owners:
                    if vars(owner).get(attr) is fn:
                        self._bind(owner, attr, wrapped)

        for attr in FFT_FUNCTIONS:
            self._bind(np.fft, attr, self._wrap("numpy.fft", "numpy.fft", getattr(np.fft, attr), self._fft_points))
        self._bind(np, "einsum", self._wrap("numpy.einsum", "numpy.einsum", np.einsum))
        self._bind(
            np.linalg,
            "eigvalsh",
            self._wrap("numpy.eigvalsh", "numpy.linalg", np.linalg.eigvalsh),
        )
        self._bind(json, "load", self._count_json_load(json.load))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- counters fed from wrapped calls ------------------------------------

    def _after_hook(self, name):
        if name in DECODERS:
            return self._note_symbol
        if name == GALERKIN:
            return self._note_galerkin
        if name == "spectra.torus_exact_spectrum":
            return self._note_exact
        if name.startswith("serialize.save_") or name.startswith("serialize.write_"):
            return self._bytes_written
        return None

    def _note_symbol(self, args, kwargs, result):
        sym = kwargs.get("sym", args[0] if args else None)
        sigma = np.ascontiguousarray(sym.sigma)
        self.symbols.add((self.op, hashlib.blake2b(sigma.view(np.uint8), digest_size=16).digest()))

    def _note_galerkin(self, args, kwargs, result):
        self.galerkin.append((result.metadata["matrix_order"], int(result.multiplicities.sum())))

    def _note_exact(self, args, kwargs, result):
        # Each lattice point gives one eigenvalue pair (the zero mode counts twice),
        # out of the (2 lambda + 1)^3 box a meshgrid scan visits.
        shift = result.metadata["shift"]
        lam = result.coverage[1]
        box = 1
        for s in shift:
            box *= int(np.ceil(s + lam)) - int(np.floor(s - lam)) + 1
        self.exact.append((int(result.multiplicities.sum()) // 2, box))

    def _bytes_written(self, args, kwargs, result):
        path = _path_arg(args, kwargs)
        if path is not None and os.path.exists(path):
            self.counts["serialize.bytes_written"] += os.path.getsize(path)

    def _fft_points(self, args, kwargs, result):
        self.counts["numpy.fft.points"] += int(np.size(args[0]))

    def _count_json_load(self, fn):
        @functools.wraps(fn)
        def load(fh, *args, **kwargs):
            self.counts["serialize.json_parses"] += 1
            try:
                self.counts["serialize.bytes_read"] += os.fstat(fh.fileno()).st_size
            except (AttributeError, OSError, ValueError):
                pass
            return fn(fh, *args, **kwargs)

        return load

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(self.spans, child)]

    def layer_entry_s(self, layer: str) -> float:
        """Inclusive time of the calls that entered ``layer`` from outside it."""
        spans = self.spans
        return sum(
            r[END] - r[START]
            for r in spans
            if r[LAYER] == layer and (r[PARENT] < 0 or spans[r[PARENT]][LAYER] != layer)
        )

    def dump(self, path: str, extra: dict) -> None:
        """Write the spans (name, layer, start, end, parent, op) and counts."""
        t0 = self.spans[0][START] if self.spans else 0.0
        doc = dict(extra)
        doc["fields"] = ["name", "layer", "start_s", "end_s", "parent", "op"]
        doc["spans"] = [
            [r[NAME], r[LAYER], round(r[START] - t0, 7), round(r[END] - t0, 7), r[PARENT], r[OP]]
            for r in self.spans
        ]
        doc["counts"] = dict(self.counts)
        doc["errors"] = dict(self.errors)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def layer_metrics(tracer: Tracer, n_ops: int, invocations: Counter) -> dict:
    """Per-layer metrics of one traced round of ``n_ops`` operations.

    Call counts, self times and byte counts are per operation of the
    round.  The ``spectra.galerkin.*`` and ``spectra.exact.*`` timings
    are per call of ``galerkin_spectrum`` / ``torus_exact_spectrum``;
    ``cli.<command>.self_s`` is per invocation of that subcommand and
    ``serialize.json_parses`` per ``--input`` invocation (counts in
    ``invocations``).
    """
    per_op = 1.0 / max(n_ops, 1)
    spans, counts = tracer.spans, tracer.counts
    calls: Counter = Counter()
    name_self: Counter = Counter()
    layer_self: Counter = Counter()
    fiber_self = gal_total = eig_total = 0.0
    for rec, own in zip(spans, tracer.self_times()):
        calls[rec[NAME]] += 1
        name_self[rec[NAME]] += own
        layer_self[rec[LAYER]] += own
        if rec[FIBER] and not rec[LAYER].startswith("numpy"):
            fiber_self += own
        if rec[NAME] == GALERKIN:
            gal_total += rec[END] - rec[START]
        elif rec[NAME] == "numpy.eigvalsh" and rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == GALERKIN:
            eig_total += rec[END] - rec[START]

    def self_of(*names):
        return sum(name_self[n] for n in names)

    n_gal = max(calls[GALERKIN], 1)
    n_exact = max(calls["spectra.torus_exact_spectrum"], 1)
    decodes = calls["geometry.decode_frame"] + calls["geometry.decode_metric"]

    gal_order = max((o for o, _ in tracer.galerkin), default=0)
    gal_computed = sum(o for o, _ in tracer.galerkin)
    exact_enum = sum(e for _, e in tracer.exact)

    m = {
        "fields.derivative_stack.calls": calls["fields.derivative_stack"] * per_op,
        "fields.spectral_derivative.calls": calls["fields.spectral_derivative"] * per_op,
        "fields.self_s": layer_self["fields"] * per_op,
        "numpy.fft.calls": calls["numpy.fft"] * per_op,
        "numpy.fft.points": counts["numpy.fft.points"] * per_op,
        "geometry.decode_frame.calls": calls["geometry.decode_frame"] * per_op,
        "geometry.decode_metric.calls": calls["geometry.decode_metric"] * per_op,
        "geometry.torsion.calls": calls["geometry.torsion"] * per_op,
        "geometry.coframe.calls": calls["geometry.coframe"] * per_op,
        "geometry.torsion.self_s": self_of("geometry.torsion") * per_op,
        "geometry.self_s": layer_self["geometry"] * per_op,
        "geometry.decode_useful_ratio": len(tracer.symbols) / decodes if decodes else 0.0,
        "operators.check_dirac.self_s": self_of("operators.check_dirac") * per_op,
        "operators.dirac_operator.calls": calls["operators.dirac_operator"] * per_op,
        "operators.dirac_operator.self_s": self_of("operators.dirac_operator") * per_op,
        "numpy.einsum.calls": calls["numpy.einsum"] * per_op,
        "numpy.einsum.self_s": layer_self["numpy.einsum"] * per_op,
        "asymptotics.b_density.calls": calls["asymptotics.b_density"] * per_op,
        "asymptotics.b_density.self_s": self_of("asymptotics.b_density") * per_op,
        "asymptotics.fiber_routes.self_s": fiber_self * per_op,
        "spectra.galerkin.assembly_s": (gal_total - eig_total) / n_gal,
        "spectra.galerkin.eigensolve_s": eig_total / n_gal,
        "spectra.galerkin.matrix_order": float(gal_order),
        "spectra.galerkin.useful_fraction": sum(k for _, k in tracer.galerkin) / gal_computed
        if gal_computed
        else 0.0,
        "spectra.exact.self_s": self_of("spectra.torus_exact_spectrum") / n_exact,
        "spectra.exact.useful_fraction": sum(k for k, _ in tracer.exact) / exact_enum if exact_enum else 0.0,
        "spectra.counting.self_s": self_of(*COUNTING) * per_op,
        "spectra.lattice_count.self_s": self_of("spectra.lattice_count") * per_op,
        "serialize.save_operator.self_s": self_of("serialize.save_operator") * per_op,
        "serialize.load.self_s": self_of(*LOADERS) * per_op,
        "serialize.json_parses": counts["serialize.json_parses"] / max(invocations["input"], 1)
        if invocations["input"]
        else 0.0,
        "serialize.bytes_written": counts["serialize.bytes_written"] * per_op,
        "serialize.bytes_read": counts["serialize.bytes_read"] * per_op,
    }
    for cmd in CLI_COMMANDS:
        n = invocations[cmd]
        m[f"cli.{cmd}.self_s"] = self_of(f"cli.cmd_{cmd}") / n if n else 0.0
    for layer in LAYERS:
        m[f"{layer}.errors"] = float(tracer.errors[layer])
    return m
