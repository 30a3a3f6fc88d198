"""The three benchmark workloads: inputs built from the seed, operations, oracles.

A workload builds its inputs in ``setup`` (timed as set-up) and hands
out one round of operations at a time.  An operation is a call into the
library (or one ``diracweyl`` process) plus an oracle that checks what
it returned.  Every random input -- frames, gauge fields, fiber points,
counting thresholds -- comes from the seed; the library receives only
the generated inputs.

verdict  full analysis of one operator at grid 32 per operation
spectra  exact torus tables, counting batches and cutoff-4 Galerkin tables
cli      one cold ``python -m diracweyl.cli`` process per operation,
         plus ``save_operator`` of the file that the ``--input`` calls read
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import diracweyl as dw

FOUR_PI_3 = 4.0 * np.pi / 3.0
TRIVIAL = (0.0, 0.0, 0.0)
HALF3 = (0.0, 0.0, 0.5)

PROFILES = {
    "full": {
        "setup_reps": 3,
        "amplitude": 0.003,
        "gauge_amplitude": 0.04,
        "verdict_grid": 32,
        "fiber_points": 5,
        "spectra_grid": 16,
        "cutoff": 4,
        "window": 2.0,
        "lambda_max": 100.0,
        "counting_batches": 2,
        "thresholds": 40,
        "threshold_max": 30.0,
        "dyadic": (5.0, 10.0, 20.0, 40.0, 80.0),
        "compare": (5.0, 100.0),
        "mollified": (5.0, 90.0),
        "sphere_lambda": 101.0,
        "sphere_ints": 20,
        "cli_grid": 16,
        "file_grid": 24,
        "cli_cutoff": 3,
        "cli_window": 1.4,
        "cli_lambda": 45.0,
        "cli_compare": (5.0, 40.0),
        "cli_mollified": (5.0, 35.0),
    },
    # Seconds-long smoke profile for the benchmark's own tests.
    "tiny": {
        "setup_reps": 1,
        "amplitude": 1e-6,
        "gauge_amplitude": 1e-3,
        "verdict_grid": 8,
        "fiber_points": 2,
        "spectra_grid": 8,
        "cutoff": 2,
        "window": 1.0,
        "lambda_max": 10.0,
        "counting_batches": 1,
        "thresholds": 5,
        "threshold_max": 9.0,
        "dyadic": (2.5, 5.0),
        "compare": (2.5, 9.0),
        "mollified": (1.5, 2.0),
        "sphere_lambda": 11.0,
        "sphere_ints": 3,
        "cli_grid": 8,
        "file_grid": 8,
        "cli_cutoff": 2,
        "cli_window": 1.0,
        "cli_lambda": 10.0,
        "cli_compare": (2.5, 9.0),
        "cli_mollified": (1.5, 2.0),
    },
}


class OracleFailure(Exception):
    """An operation returned a value its oracle rejects."""


def expect(ok, message: str) -> None:
    if not ok:
        raise OracleFailure(message)


def expect_close(got, want, tol: float, what: str) -> None:
    gap = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    expect(gap <= tol, f"{what}: off by {gap:.3e} (tolerance {tol:.0e})")


@dataclass
class Op:
    """One timed operation and the oracle for its result.

    ``wellformed`` is false for the deliberately malformed CLI inputs;
    ``latency`` says whether the operation enters the workload's p50.
    ``tags`` name what a traced run should count it as.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    wellformed: bool = True
    latency: bool = True
    tags: tuple = field(default_factory=tuple)


def fresh(op: dw.FirstOrderOperator) -> dw.FirstOrderOperator:
    """A new operator object over the same arrays, so no per-object cache carries over."""
    return dw.FirstOrderOperator(dw.PrincipalSymbolField(op.sigma.sigma), op.a0)


def lattice_radii_counts(shift, lambda_max: float) -> np.ndarray:
    """r[q] = #{m in Z^3 : 4|m - s|^2 = q} for q <= (2 lambda_max)^2.

    Independent of the library: three 1-D histograms of (2 m_a - 2 s_a)^2
    summed pairwise in integers.
    """
    qmax = int(np.floor((2.0 * lambda_max) ** 2))
    reach = int(np.ceil(lambda_max)) + 1
    m = np.arange(-reach, reach + 1)
    axes = [(2 * m - int(2 * s)) ** 2 for s in shift]
    axes = [a[a <= qmax] for a in axes]
    pair = np.bincount((axes[0][:, None] + axes[1][None, :]).ravel(), minlength=qmax + 1)[: qmax + 1]
    r = np.zeros(qmax + 1, dtype=np.int64)
    for c in axes[2]:
        r[c:] += pair[: qmax + 1 - c]
    return r


def exact_reference(shift, lambda_max: float):
    """Expected (values, multiplicities) of the exact torus table."""
    r = lattice_radii_counts(shift, lambda_max)
    q = np.nonzero(r)[0]
    pos = q[q > 0]
    vals = 0.5 * np.sqrt(pos.astype(float))
    values = np.concatenate([-vals[::-1], vals])
    mults = np.concatenate([r[pos][::-1], r[pos]])
    if tuple(shift) == TRIVIAL:
        mid = len(pos)
        values = np.insert(values, mid, 0.0)
        mults = np.insert(mults, mid, 2 * r[0])
    return values, mults


def ball_count(radius: float, closed: bool) -> int:
    """#{m in Z^3 : |m| < radius} (or <= when closed), in integers where possible."""
    reach = int(np.floor(radius)) + 1
    a = np.arange(-reach, reach + 1) ** 2
    pair = (a[:, None] + a[None, :]).ravel()
    r2 = radius * radius
    m2 = pair[:, None] + a[None, :]
    return int((m2 <= r2).sum() if closed else (m2 < r2).sum())


def fourier_mode_count(op: dw.FirstOrderOperator, tol: float = 1e-13) -> int:
    """Nonzero, non-Nyquist Fourier modes of the operator coefficients."""
    n = op.sigma.sigma.shape[0]
    mags = np.zeros((n, n, n))
    for arr in (op.sigma.sigma, op.a0):
        hat = np.fft.fftn(arr, axes=(0, 1, 2)) / n**3
        mags = np.maximum(mags, np.abs(hat).reshape(n, n, n, -1).max(axis=-1))
    nyq = np.zeros((n, n, n), dtype=bool)
    for ax in range(3):
        idx = [slice(None)] * 3
        idx[ax] = n // 2
        nyq[tuple(idx)] = True
    return int(((mags > tol) & ~nyq).sum())


class Reference:
    """A fixed kernel timed between operations to gauge the machine's current speed.

    Shared machines slow down and speed up by 20-40 % over tens of
    seconds.  The slowdown hits this kernel (a Python loop, an FFT and an
    einsum on a fixed 32^3 field) and the workloads alike, so an
    operation's time divided by the kernel time measured around it moves
    much less.  The kernel calls numpy directly and never touches the
    package.
    """

    def __init__(self):
        rng = np.random.default_rng(20120915)
        shape = (32, 32, 32, 3, 2, 2)
        self.field = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        hat = np.fft.fftn(self.field, axes=(0, 1, 2))
        np.einsum("...apq,...aqr->...pr", hat, self.field)
        return time.perf_counter() - t0


class Workload:
    """Seeded inputs (``setup``) and rounds of operations (``round``)."""

    name = ""

    def __init__(self, profile: dict, seed: int, workdir: str):
        self.p = profile
        self.seed = seed
        self.workdir = workdir
        # Round-level draws (thresholds, points) come from their own stream,
        # so repeating setup never shifts them.
        self.draw = np.random.default_rng([seed, 1])

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, in_process: bool = False) -> list:
        raise NotImplementedError

    def layer_metrics(self) -> dict:
        """Workload-specific per-layer metrics measured outside the tracer."""
        return {}


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------


class Verdict(Workload):
    """Full analysis of one operator per operation.

    The seeded mix: a random band-limited frame, a twisted frame with
    k3 in {1, 2}, a gauge transform of the random Dirac operator, and
    the two constant perturbations of the standard Dirac operator.
    """

    name = "verdict"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        n, amp = self.p["verdict_grid"], self.p["amplitude"]
        k3 = int(rng.choice([1, 2]))
        frame_seed, gauge_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
        rand = dw.dirac_operator(dw.random_band_limited_frame(frame_seed, n, amplitude=amp))
        gauge = dw.random_gauge_field(gauge_seed, n, amplitude=self.p["gauge_amplitude"])
        std = dw.standard_frame(n)
        self.cases = [
            ("random", rand, {"dirac": True}),
            ("twisted", dw.dirac_operator(dw.twisted_frame(k3, n)), {"dirac": True, "k3": k3}),
            ("gauged", dw.gauge_transform(rand, gauge), {"dirac": True}),
            ("scalar", dw.dirac_plus_scalar(std, 0.3), {"dirac": False, "q": 0.3}),
            ("traceless", dw.dirac_plus_traceless(std, 0.1), {"dirac": False, "epsilon": 0.1}),
        ]

    def round(self, in_process: bool = False) -> list:
        n, k = self.p["verdict_grid"], self.p["fiber_points"]
        ops = []
        for family, op, want in self.cases:
            pts = self.draw.integers(0, n, size=(k, 3))
            target = fresh(op)
            ops.append(
                Op(
                    "analysis",
                    lambda o=target, p=pts: analyse(o, p),
                    lambda res, w=want, p=pts, f=family: check_analysis(res, w, p, f),
                    tags=(family,),
                )
            )
        return ops


def analyse(op, pts) -> dict:
    sym = op.sigma
    frame = dw.decode_frame(sym)
    metric = dw.decode_metric(sym)
    return {
        "metric": metric,
        "charge": dw.topological_charge(sym),
        "torsion": dw.torsion(frame, metric),
        "verdict": dw.check_dirac(op),
        "coeffs": dw.b_density(op),
        "b1_fiber": dw.b1_density_fiber(op, pts),
        "b2_torsion": dw.b2_density_fiber_torsion(sym, pts),
        "b2_curvature": dw.b2_density_fiber_curvature(sym, pts),
    }


def check_analysis(res: dict, want: dict, pts, family: str) -> None:
    v, c = res["verdict"], res["coeffs"]
    expect(res["charge"] == 1, f"{family}: charge {res['charge']}")
    expect_close(res["metric"].g_contra, np.eye(3), 1e-10, f"{family}: decoded metric")
    expect(v.is_dirac == want["dirac"], f"{family}: is_dirac {v.is_dirac}")
    expect_close(c.a_global, FOUR_PI_3, 1e-9, f"{family}: a_global")
    b_want = -4.0 * np.pi * want.get("q", 0.0)
    expect_close(c.b_global, b_want, 1e-6, f"{family}: b_global")
    if "q" in want:
        expect_close(v.cond_b_residual, want["q"] / (2.0 * np.pi**2), 1e-8, f"{family}: cond_b")
    if "epsilon" in want:
        expect_close(v.cond_a_residual, want["epsilon"], 1e-9, f"{family}: cond_a")
    if "k3" in want:
        axial = float(res["torsion"].axial_dual.mean())
        expect_close(axial, -2.0 * want["k3"] / 3.0, 1e-10, f"{family}: axial dual mean")
    idx = tuple(np.asarray(pts).T)
    expect_close(res["b1_fiber"], c.b1[idx], 1e-7, f"{family}: b1 fiber route")
    expect_close(res["b2_torsion"], c.b2[idx], 1e-6, f"{family}: b2 torsion route")
    expect_close(res["b2_curvature"], c.b2[idx], 1e-6, f"{family}: b2 curvature route")


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


class Spectra(Workload):
    """Exact tables, counting batches and Galerkin tables.

    All operators are built in set-up, so the timed loop runs spectra
    code only.  Structured operators have 1-3 Fourier modes, coupled
    ones about 1.4-2.6 thousand.
    """

    name = "spectra"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        n, amp = self.p["spectra_grid"], self.p["amplitude"]
        lam, w = self.p["lambda_max"], self.p["window"]
        seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
        twisted = dw.dirac_operator(dw.twisted_frame(1, n))
        gauge = dw.random_gauge_field(seeds[2], n, amplitude=self.p["gauge_amplitude"])
        trivial, half = exact_reference(TRIVIAL, w + 1.0), exact_reference(HALF3, w + 1.0)
        shifted = (trivial[0] + 0.3, trivial[1])
        self.galerkin = [
            ("galerkin_structured", "standard", dw.dirac_operator(dw.standard_frame(n)), trivial),
            ("galerkin_structured", "twisted", twisted, half),
            ("galerkin_structured", "scalar", dw.dirac_plus_scalar(dw.standard_frame(n), 0.3), shifted),
            ("galerkin_coupled", "random-a", self._random(seeds[0], n, amp), trivial),
            ("galerkin_coupled", "random-b", self._random(seeds[1], n, amp), trivial),
            ("galerkin_coupled", "gauged-twisted", dw.gauge_transform(twisted, gauge), half),
        ]
        self.modes = {label: fourier_mode_count(op) for _, label, op, _ in self.galerkin}
        self.shifts = [s.shift for s in dw.all_spin_structures()]
        self.exact_refs = {s: exact_reference(s, lam) for s in self.shifts}
        self.table = dw.torus_exact_spectrum(TRIVIAL, lam)
        self.sphere = dw.sphere_exact_spectrum(self.p["sphere_lambda"])
        self.sphere18 = dw.sphere_exact_spectrum(18.0)
        self.dyadic = {r: ball_count(r, closed=True) for r in self.p["dyadic"]}
        t0 = time.perf_counter()
        dw.mollified_count(self.sphere18, 10.0)
        self.kernel_s = time.perf_counter() - t0

    @staticmethod
    def _random(seed, n, amp):
        return dw.dirac_operator(dw.random_band_limited_frame(seed, n, amplitude=amp))

    def round(self, in_process: bool = False) -> list:
        ops = []
        for s in self.shifts:
            ops.append(
                Op(
                    "exact_table",
                    lambda s=s: dw.torus_exact_spectrum(dw.SpinStructure(s), self.p["lambda_max"]),
                    lambda t, s=s: check_table(t, self.exact_refs[s], f"exact {s}"),
                )
            )
        for _ in range(self.p["counting_batches"]):
            ops.append(self._counting_op())
        w, cutoff = self.p["window"], self.p["cutoff"]
        for kind, label, op, ref in self.galerkin:
            ops.append(
                Op(
                    kind,
                    lambda o=op: dw.galerkin_spectrum(o, cutoff, window=(-w, w)),
                    lambda t, r=ref, lab=label: check_table(t, window_of(r, w), f"galerkin {lab}", 1e-8),
                    tags=(label,),
                )
            )
        return ops

    def _counting_op(self) -> Op:
        p, draw = self.p, self.draw
        lams = draw.uniform(1e-3, p["threshold_max"], size=p["thresholds"])
        ints = draw.integers(2, int(p["sphere_lambda"]) - 1, size=p["sphere_ints"])
        moll = float(draw.uniform(*p["mollified"]))
        want_ball = [ball_count(lam, closed=False) for lam in lams]

        def call():
            t, sphere = self.table, self.sphere
            return {
                "n_plus_1": [dw.counting_function(t, lam) + 1 for lam in lams],
                "lattice": [dw.lattice_count((0.0, 0.0, 0.0), lam) for lam in lams],
                "dyadic": [dw.counting_function(t, r + 1e-9) + 1 for r in self.dyadic],
                "report": dw.asymptotic_comparison(t, FOUR_PI_3, 0.0, lambda_range=p["compare"]),
                "torus_mollified": dw.mollified_count(t, moll),
                "sphere": [dw.counting_function(sphere, float(k)) for k in ints],
                "sphere_mollified": dw.mollified_count(self.sphere18, 10.0),
            }

        def check(res):
            expect(res["n_plus_1"] == res["lattice"], "criterion 5: N+1 != lattice_count")
            expect(res["lattice"] == want_ball, "lattice_count disagrees with the integer ball count")
            expect(res["dyadic"] == list(self.dyadic.values()), "criterion 8: dyadic ball counts")
            rep = res["report"]
            expect(rep.decreasing, f"criterion 8: window maxima not decreasing {rep.window_maxima}")
            expect(rep.fitted_exponent <= 2.0, f"criterion 8: exponent {rep.fitted_exponent}")
            scaled = abs(res["torus_mollified"] - FOUR_PI_3 * moll**3) / moll**2
            expect(scaled <= 0.35, f"mollified torus count off by {scaled:.3f} lambda^2")
            expect(res["sphere"] == [(int(k) ** 3 - int(k)) // 3 for k in ints], "criterion 7: sphere counts")
            expect(abs(res["sphere_mollified"] - 330.0) < 5.0, "criterion 7: mollified sphere count")

        return Op("counting", call, check)

    def layer_metrics(self) -> dict:
        modes = list(self.modes.values())
        return {
            "spectra.mollifier_kernel_s": self.kernel_s,
            "spectra.galerkin.fourier_modes": sum(modes) / len(modes),
        }


def window_of(ref, w: float):
    values, mults = ref
    keep = np.abs(values) <= w
    return values[keep], mults[keep]


def check_table(table, ref, what: str, tol: float = 0.0) -> None:
    values, mults = ref
    expect(len(table.values) == len(values), f"{what}: {len(table.values)} eigenvalues, want {len(values)}")
    expect_close(table.values, values, tol, f"{what}: eigenvalues")
    expect(np.array_equal(table.multiplicities, mults), f"{what}: multiplicities differ")


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def invoke_process(argv, cwd: str):
    proc = subprocess.run(
        [sys.executable, "-m", "diracweyl.cli", *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=150,
    )
    return proc.returncode, proc.stdout, proc.stderr


def invoke_in_process(argv):
    """``diracweyl.cli.main(argv)`` with the exit code a process would give."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = importlib.import_module("diracweyl.cli").main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def report_of(res, code: int = 0) -> dict:
    got, out, err = res
    expect("Traceback" not in err, f"traceback on stderr: {err.strip().splitlines()[-1:]}")
    expect(got == code, f"exit code {got}, want {code}")
    return json.loads(out) if code in (0, 1) else {}


class Cli(Workload):
    """Sequential ``diracweyl`` invocations, one cold process each."""

    name = "cli"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.k3 = int(rng.integers(1, 4))
        self.frame_seed = int(rng.integers(0, 1000))
        self.q = float(rng.choice([0.1, 0.2, 0.3]))
        file_seed = int(rng.integers(0, 2**31))
        self.operator = dw.dirac_operator(
            dw.random_band_limited_frame(file_seed, self.p["file_grid"], amplitude=self.p["amplitude"])
        )
        self.op_path = os.path.join(self.workdir, "operator.json")
        self.csv_path = os.path.join(self.workdir, "densities.csv")
        self.truncated = os.path.join(self.workdir, "truncated.json")
        self.not_json = os.path.join(self.workdir, "not-json.json")
        self.missing = os.path.join(self.workdir, "missing.json")
        small = os.path.join(self.workdir, "small.json")
        dw.save_operator(dw.dirac_operator(dw.standard_frame(8)), small)
        with open(small) as fh:
            doc = json.load(fh)
        doc["a0"] = doc["a0"][: len(doc["a0"]) // 2]
        with open(self.truncated, "w") as fh:
            json.dump(doc, fh)
        with open(self.not_json, "w") as fh:
            fh.write("sigma = [[0, 1], [1, 0]]\n")
        w = self.p["cli_window"]
        self.galerkin_ref = window_of(exact_reference(HALF3, w + 1.0), w)

    def round(self, in_process: bool = False) -> list:
        if in_process:
            run = invoke_in_process
        else:
            def run(argv):
                return invoke_process(argv, self.workdir)
        p, g = self.p, str(self.p["cli_grid"])
        count = float(self.draw.uniform(1.0, min(30.0, p["cli_lambda"] - 1.0)))
        moll = float(self.draw.uniform(*p["cli_mollified"]))
        lo, hi = p["cli_compare"]
        w = p["cli_window"]
        k3, q = self.k3, self.q

        def cli(kind, argv, check, tags=(), wellformed=True):
            return Op(kind, lambda: run(argv), check, wellformed, True, tags)

        def decode_twisted(res):
            rep = report_of(res)
            expect(rep["charge"] == 1, "decode: charge")
            expect_close(rep["torsion"]["axial_dual_mean"], -2.0 * k3 / 3.0, 1e-10, "decode: axial")

        def dirac_verdict(res, code=0):
            rep = report_of(res, code)
            expect(rep["is_dirac"] == (code == 0), "check-dirac: verdict")

        def asym(b_want):
            def check(res):
                rep = report_of(res)
                expect_close(rep["a_global"], FOUR_PI_3, 1e-9, "asymptotics: a_global")
                expect_close(rep["b_global"], b_want, 1e-6, "asymptotics: b_global")

            return check

        def decode_file(res):
            rep = report_of(res)
            expect(rep["charge"] == 1, "decode --input: charge")
            expect_close(rep["metric"]["volume"], (2 * np.pi) ** 3, 1e-8, "decode --input: volume")

        def csv_written(res):
            asym(0.0)(res)
            with open(self.csv_path) as fh:
                rows = fh.read().splitlines()
            expect(len(rows) == p["cli_grid"] + 1, f"csv has {len(rows)} rows")

        def spectrum_exact(res):
            rep = report_of(res)
            expect(rep["count"]["strict"] == ball_count(count, closed=False) - 1, "spectrum: --count")
            scaled = abs(rep["mollified"]["value"] - FOUR_PI_3 * moll**3) / moll**2
            expect(scaled <= 0.35, f"spectrum: mollified off by {scaled:.3f} lambda^2")
            cmp_ = rep["comparison"]
            expect(cmp_["window_maxima_decreasing"], "spectrum: window maxima not decreasing")
            expect(cmp_["fitted_exponent"] <= 2.0, "spectrum: exponent")
            expect_close(cmp_["a_global"], FOUR_PI_3, 1e-9, "spectrum: a_global")

        def spectrum_galerkin(res):
            rep = report_of(res)
            got = np.array(rep["eigenvalues"], dtype=float).reshape(-1, 2)
            values, mults = self.galerkin_ref
            expect(len(got) == len(values), "spectrum galerkin: eigenvalue count")
            expect_close(got[:, 0], values, 1e-8, "spectrum galerkin: eigenvalues")
            expect(np.array_equal(got[:, 1].astype(int), mults), "spectrum galerkin: multiplicities")

        def refused(res):
            report_of(res, 2)

        def version(res):
            got, out, _ = res
            expect(got == 0 and out.strip() == f"diracweyl {dw.__version__}", f"--version: {out!r}")

        def write():
            dw.save_operator(self.operator, self.op_path)
            return os.path.getsize(self.op_path)

        inp = self.op_path
        return [
            Op("file_write", write, lambda size: expect(size > 0, "empty operator file"), latency=False),
            cli("version", ["--version"], version, ("startup",)),
            cli("decode", ["decode", "--scenario", "twisted-torus", "--k3", str(k3), "--grid", g],
                decode_twisted, ("decode",)),
            cli("check-dirac", ["check-dirac", "--scenario", "random-band-limited", "--seed",
                                str(self.frame_seed), "--amplitude", str(p["amplitude"]), "--grid", g],
                dirac_verdict, ("check_dirac",)),
            cli("asymptotics", ["asymptotics", "--scenario", "dirac-plus-scalar", "--q", str(q), "--grid", g],
                asym(-4.0 * np.pi * q), ("asymptotics",)),
            cli("decode-input", ["decode", "--input", inp], decode_file, ("decode", "input")),
            cli("check-dirac-input", ["check-dirac", "--input", inp], dirac_verdict, ("check_dirac", "input")),
            cli("asymptotics-input", ["asymptotics", "--input", inp], asym(0.0), ("asymptotics", "input")),
            cli("asymptotics-csv", ["asymptotics", "--scenario", "twisted-torus", "--k3", str(k3), "--grid", g,
                                    "--format", "csv", "--out", self.csv_path], csv_written, ("asymptotics",)),
            cli("spectrum-exact", ["spectrum", "--shift", "0,0,0", "--lambda-max", str(p["cli_lambda"]),
                                   "--count", repr(count), "--mollified", repr(moll),
                                   "--compare", f"{lo},{hi}"], spectrum_exact, ("spectrum",)),
            cli("spectrum-galerkin", ["spectrum", "--scenario", "twisted-torus", "--k3", "1", "--grid", g,
                                      "--method", "galerkin", "--cutoff", str(p["cli_cutoff"]),
                                      f"--window=-{w},{w}"], spectrum_galerkin, ("spectrum",)),
            cli("malformed-truncated", ["decode", "--input", self.truncated], refused,
                ("decode", "input"), wellformed=False),
            cli("malformed-missing", ["check-dirac", "--input", self.missing], refused,
                ("check_dirac", "input"), wellformed=False),
            cli("malformed-not-json", ["asymptotics", "--input", self.not_json], refused,
                ("asymptotics", "input"), wellformed=False),
        ]


WORKLOADS = {w.name: w for w in (Verdict, Spectra, Cli)}
