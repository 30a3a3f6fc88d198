#!/usr/bin/env python3
"""Benchmark of diracweyl: end-to-end timings, or a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload verdict --seed 1 --seconds 15 --trace 0

Workloads: verdict, spectra, cli (see bench/README.md).  One caller in a
closed loop runs whole rounds of the workload's operation mix until
``--seconds`` have passed.  The package is imported from ``src/`` of the
checkout.  The last line of stdout is the result object; the line
before it holds the details (per-kind quartiles, failures, environment).

With ``--trace 1`` the run sets up once, runs a warm-up round, times one
untraced round, then one round under the tracer, and reports the
per-layer metrics and the tracing overhead; spans go to ``bench/out/``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS before numpy loads; CLI children inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
STARTUP_SAMPLES = 5
# Reference timings around an operation that set its speed estimate.
REF_WINDOW = 10
# Operation kinds behind the per-kind medians in the detail line.
NAMED = {
    "analysis": "analysis_p50_s",
    "exact_table": "exact_table_p50_s",
    "counting": "counting_p50_s",
    "galerkin_structured": "galerkin_structured_p50_s",
    "galerkin_coupled": "galerkin_coupled_p50_s",
    "version": "cli_startup_s",
    "file_write": "file_write_p50_s",
}


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q1, "p50": q2, "p75": q3, "n": len(values)}


def run_op(op) -> dict:
    """Time one operation, then check its result outside the timed span."""
    error = None
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # any exception is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if error is None:
        try:
            op.check(result)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return {"op": op, "kind": op.kind, "s": elapsed, "error": error}


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "seed": seed,
        "commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def setup(workload, reps: int) -> list:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def failures(records) -> list:
    seen = Counter()
    out = []
    for r in records:
        if r["error"] and seen[r["kind"]] < 3:
            seen[r["kind"]] += 1
            out.append(f"{r['kind']}: {r['error']}")
    return out


def timed_run(workload, seconds: float, import_s: float, reps: int):
    """End-to-end metrics: whole rounds, closed loop, tracing off.

    The reference kernel runs before the first operation and after each
    one.  An operation's ``ref`` is its time divided by the median of
    the REF_WINDOW reference timings around it.
    """
    from workloads import Reference

    setup_s = import_s + statistics.median(setup(workload, reps))
    reference = Reference()
    records, rounds = [], 0
    start = time.perf_counter()
    refs = [reference()]
    while rounds == 0 or time.perf_counter() - start < seconds:
        for op in workload.round():
            records.append(run_op(op))
            refs.append(reference())
        rounds += 1
    measured = time.perf_counter() - start
    half = REF_WINDOW // 2
    for i, rec in enumerate(records):
        rec["ref"] = rec["s"] / statistics.median(refs[max(0, i + 1 - half) : i + 1 + half])

    per_round = Counter(r["kind"] for r in records)
    latency = [r for r in records if r["op"].latency]

    def by_kind(key):
        out: dict = {}
        for r in records:
            out.setdefault(r["kind"], []).append(r[key])
        return {k: quartiles(v) for k, v in out.items()}

    kinds, kinds_ref = by_kind("s"), by_kind("ref")

    def round_total(stats):
        return sum(per_round[k] / rounds * stats[k]["p50"] for k in stats)

    failed = sum(1 for r in records if r["error"])
    self_usage = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup_s, "s"),
        "round_ref": (round_total(kinds_ref), "ref"),
        "peak_rss_mb": (resource.getrusage(self_usage).ru_maxrss / 1024.0, "MB"),
        "ok_fraction": (1.0 - failed / len(records), "1"),
    }
    named = {NAMED[k]: q for k, q in kinds.items() if k in NAMED}
    if workload.name == "cli":
        named["cli_p50_s"] = quartiles([r["s"] for r in latency])
    detail = {
        "named": named,
        "p50_s": statistics.median(r["s"] for r in latency),
        "p50_ref": statistics.median(r["ref"] for r in latency),
        "round_s": round_total(kinds),
        "reference_s": quartiles(refs),
        "rounds": rounds,
        "measured_s": measured,
        "import_s": import_s,
        "kinds": kinds,
        "kinds_ref": kinds_ref,
        "failed_fraction": failed / len(records),
        "failed_wellformed": sum(1 for r in records if r["error"] and r["op"].wellformed),
        "failures": failures(records),
    }
    return records, metrics, detail


def startup_samples() -> dict:
    """Interpreter start (``python -c pass``) and package import (``-X importtime``)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    interp, imports = [], []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        interp.append(time.perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import diracweyl"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "diracweyl":
                imports.append(int(parts[1]) * 1e-6)
    return {
        "cli.interpreter_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
    }


def alloc_peaks(workload) -> dict:
    """tracemalloc peaks of one exact table and one Galerkin table per class."""
    peaks = Counter()
    targets = {"exact_table": "spectra.exact.peak_alloc_mb"}
    targets.update(dict.fromkeys(("galerkin_structured", "galerkin_coupled"), "spectra.galerkin.peak_alloc_mb"))
    done = set()
    tracemalloc.start()
    try:
        for op in workload.round():
            if op.kind not in targets or op.kind in done:
                continue
            done.add(op.kind)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            op.call()
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            peaks[targets[op.kind]] = max(peaks[targets[op.kind]], peak)
    finally:
        tracemalloc.stop()
    return dict(peaks)


def traced_run(workload, seed: int):
    """Per-layer metrics: a warm-up round, an untraced round, then the same mix traced."""
    from tracer import LAYERS, Tracer, layer_metrics

    with Tracer() as build:
        workload.setup()
    build_s = build.layer_entry_s("scenarios")

    in_process = workload.name == "cli"
    # The first round fills lazy state (imports, the mollifier kernel cache,
    # page faults); the overhead compares the second untraced round with the traced one.
    warm = [run_op(op) for op in workload.round(in_process)]
    plain = [run_op(op) for op in workload.round(in_process)]
    ops = workload.round(in_process)
    tracer = Tracer()
    traced = []
    with tracer:
        for i, op in enumerate(ops):
            tracer.op = i
            traced.append(run_op(op))
    plain_s = sum(r["s"] for r in plain)
    traced_s = sum(r["s"] for r in traced)

    invocations = Counter(tag for op in ops for tag in op.tags)
    metrics = layer_metrics(tracer, len(ops), invocations)
    metrics.update(
        {
            "scenarios.build_s": build_s,
            "spectra.galerkin.fourier_modes": 0.0,
            "spectra.galerkin.peak_alloc_mb": 0.0,
            "spectra.exact.peak_alloc_mb": 0.0,
            "spectra.mollifier_kernel_s": 0.0,
            "cli.interpreter_s": 0.0,
            "cli.import_s": 0.0,
            "trace.overhead_s": (traced_s - plain_s) / len(ops),
            "trace.overhead_fraction": traced_s / plain_s - 1.0,
        }
    )
    metrics.update(workload.layer_metrics())
    if workload.name == "spectra":
        metrics.update(alloc_peaks(workload))
    if workload.name == "cli":
        metrics.update(startup_samples())

    records = warm + plain + traced
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.dump(str(path), {"workload": workload.name, "seed": seed, "layers": list(LAYERS)})
    detail = {
        "untraced_round_s": plain_s,
        "traced_round_s": traced_s,
        "spans": len(tracer.spans),
        "spans_file": str(path.relative_to(ROOT)),
        "failures": failures(records),
        "failed_wellformed": sum(1 for r in records if r["error"] and r["op"].wellformed),
    }
    units = {"calls": "count", "points": "count", "errors": "count", "json_parses": "count",
             "matrix_order": "count", "fourier_modes": "count", "bytes_written": "B", "bytes_read": "B",
             "useful_fraction": "1", "decode_useful_ratio": "1", "overhead_fraction": "1", "peak_alloc_mb": "MB"}
    out = {k: (v, units.get(k.rsplit(".", 1)[-1], "s")) for k, v in metrics.items()}
    return records, out, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verdict", "spectra", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "diracweyl" / "__init__.py").is_file():
        print(f"error: no diracweyl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))

    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import diracweyl

    import_s = time.perf_counter() - t0
    if Path(diracweyl.__file__).resolve().parent != SRC / "diracweyl":
        print(f"error: imported diracweyl from {diracweyl.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import PROFILES, WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        profile = PROFILES[args.size]
        workload = WORKLOADS[args.workload](profile, args.seed, workdir)
        if args.trace:
            records, metrics, detail = traced_run(workload, args.seed)
        else:
            records, metrics, detail = timed_run(workload, args.seconds, import_s, profile["setup_reps"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in detail["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    detail.update(workload=args.workload, size=args.size, trace=args.trace, environment=environment(args.seed))
    print(json.dumps({"detail": detail}))
    result = {
        "correct": detail["failed_wellformed"] == 0,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["error"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
