"""Command-line interface.

Subcommands
-----------
decode       recover frame, metric, charge and torsion from a symbol
check-dirac  decide whether an operator is a massless Dirac operator
asymptotics  two-term spectral growth coefficients of an operator
spectrum     exact or Galerkin eigenvalue tables, counting, mollification

Exit codes: 0 success (and positive verdict), 1 negative verdict,
2 bad input, 3 ellipticity or internal-consistency failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .asymptotics import b_density
from .errors import DiracweylError, InputError
from .fields import grid_integral
from .geometry import decode_frame, decode_metric, topological_charge, torsion
from .operators import check_dirac
from .scenarios import SCENARIO_NAMES, build_scenario
from .serialize import _from_document, _load_document, write_json_report, write_spectrum_csv
from .spectra import (
    SpectrumTable,
    SpinStructure,
    asymptotic_comparison,
    counting_bounds,
    galerkin_spectrum,
    mollified_count,
    sphere_exact_spectrum,
    torus_exact_spectrum,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", choices=SCENARIO_NAMES, help="built-in scenario name")
    p.add_argument("--input", help="JSON file holding a symbol or operator")
    p.add_argument("--grid", type=int, default=16, help="grid points per axis (default 16)")
    p.add_argument("--k3", type=int, default=1, help="twist number for twisted-torus")
    p.add_argument("--q", type=float, default=0.3, help="scalar shift for dirac-plus-scalar")
    p.add_argument(
        "--epsilon", type=float, default=0.1, help="traceless shift for dirac-plus-traceless"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for random-band-limited")
    p.add_argument("--amplitude", type=float, default=0.003, help="random frame amplitude")
    p.add_argument("--out", help="write the report to this path")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _scenario_params(args) -> dict:
    return {
        "k3": args.k3,
        "q": args.q,
        "epsilon": args.epsilon,
        "seed": args.seed,
        "amplitude": args.amplitude,
    }


def _config_block(args, command: str) -> dict:
    cfg = {
        "command": command,
        "version": __version__,
        "grid": args.grid,
        "scenario": args.scenario,
        "input": args.input,
    }
    if args.scenario == "twisted-torus":
        cfg["k3"] = args.k3
    if args.scenario == "dirac-plus-scalar":
        cfg["q"] = args.q
    if args.scenario == "dirac-plus-traceless":
        cfg["epsilon"] = args.epsilon
    if args.scenario == "random-band-limited":
        cfg["seed"] = args.seed
        cfg["amplitude"] = args.amplitude
    return cfg


def _load_any(path: str):
    doc = _load_document(path)
    key = {"principal-symbol": "symbol"}.get(doc["kind"], doc["kind"])
    return {key: _from_document(doc, path)}


def _resolve_objects(args, need: str):
    """Fetch the requested object ('symbol' or 'operator') from flags."""
    if args.input:
        objs = _load_any(args.input)
        if need == "symbol" and "symbol" not in objs:
            if "operator" in objs:
                objs["symbol"] = objs["operator"].sigma
            else:
                raise InputError("input file does not provide a principal symbol")
        if need == "operator" and "operator" not in objs:
            raise InputError("input file does not provide an operator")
        return objs
    if not args.scenario:
        raise InputError("provide either --scenario or --input")
    return build_scenario(args.scenario, args.grid, **_scenario_params(args))


def cmd_decode(args) -> int:
    objs = _resolve_objects(args, "symbol")
    sym = objs["symbol"]
    frame = decode_frame(sym)
    metric = decode_metric(sym)
    charge = topological_charge(sym)
    tors = torsion(frame, metric)
    eigs = np.linalg.eigvalsh(metric.g_contra)
    report = {
        "config": _config_block(args, "decode"),
        "charge": int(charge),
        "metric": {
            "volume": float(grid_integral(metric.vol)),
            "eigenvalue_min": float(eigs[..., 0].min()),
            "eigenvalue_max": float(eigs[..., -1].max()),
        },
        "torsion": {
            "axial_dual_mean": float(tors.axial_dual.mean()),
            "axial_dual_min": float(tors.axial_dual.min()),
            "axial_dual_max": float(tors.axial_dual.max()),
            "star_trace_mean": float(np.einsum("...aa->...", tors.star_T).mean()),
            "route_residuals": {k: float(v) for k, v in tors.route_residuals.items()},
        },
    }
    print(write_json_report(report, args.out))
    return 0


def cmd_check_dirac(args) -> int:
    objs = _resolve_objects(args, "operator")
    verdict = check_dirac(objs["operator"], tol=args.tol)
    report = {
        "config": _config_block(args, "check-dirac"),
        "is_dirac": bool(verdict.is_dirac),
        "tolerance": verdict.tol,
        "cond_a_residual": verdict.cond_a_residual,
        "cond_b_residual": verdict.cond_b_residual,
        "reconstructed_gap": verdict.reconstructed_gap,
    }
    print(write_json_report(report, args.out))
    return 0 if verdict.is_dirac else 1


def cmd_asymptotics(args) -> int:
    objs = _resolve_objects(args, "operator")
    coeffs = b_density(objs["operator"])
    report = {
        "config": _config_block(args, "asymptotics"),
        "charge": int(coeffs.charge),
        "a_global": coeffs.a_global,
        "b_global": coeffs.b_global,
        "density_extrema": {
            "a": [float(coeffs.a.min()), float(coeffs.a.max())],
            "b1": [float(coeffs.b1.min()), float(coeffs.b1.max())],
            "b2": [float(coeffs.b2.min()), float(coeffs.b2.max())],
            "b": [float(coeffs.b.min()), float(coeffs.b.max())],
        },
    }
    if args.format == "csv" and args.out:
        _write_density_csv(coeffs, args.out)
        print(write_json_report(report, None))
    else:
        print(write_json_report(report, args.out))
    return 0


def _write_density_csv(coeffs, path: str) -> None:
    """Densities along the x^3 axis at x^1 = x^2 = 0."""
    import csv

    n = coeffs.b.shape[0]
    x3 = 2.0 * np.pi * np.arange(n) / n
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x3", "a_density", "b1_density", "b2_density", "b_density"])
        for i in range(n):
            writer.writerow(
                [
                    f"{x3[i]:.15g}",
                    f"{coeffs.a[0, 0, i]:.15g}",
                    f"{coeffs.b1[0, 0, i]:.15g}",
                    f"{coeffs.b2[0, 0, i]:.15g}",
                    f"{coeffs.b[0, 0, i]:.15g}",
                ]
            )


def _parse_floats(text: str, count: int, flag: str) -> list:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise InputError(f"{flag} expects {count} comma-separated numbers: {exc}") from None
    if len(parts) != count:
        raise InputError(f"{flag} expects {count} comma-separated numbers, got {len(parts)}")
    return parts


def _parse_shift(text: str) -> SpinStructure:
    return SpinStructure(tuple(_parse_floats(text, 3, "--shift")))


def cmd_spectrum(args) -> int:
    if args.scenario == "sphere":
        table = sphere_exact_spectrum(args.lambda_max)
    elif args.method == "exact":
        if args.shift is not None:
            shift = _parse_shift(args.shift)
        elif args.scenario == "twisted-torus":
            shift = SpinStructure((0.0, 0.0, (args.k3 / 2.0) % 1.0))
        elif args.scenario in ("standard-torus", None):
            shift = SpinStructure((0.0, 0.0, 0.0))
        elif args.scenario == "dirac-plus-scalar":
            # Adding q*I shifts every eigenvalue of the flat operator by q.
            base = torus_exact_spectrum(
                SpinStructure((0.0, 0.0, 0.0)), args.lambda_max + abs(args.q)
            )
            table = SpectrumTable(
                values=base.values + args.q,
                multiplicities=base.multiplicities,
                provenance="exact-shifted",
                coverage=(base.coverage[0] + args.q, base.coverage[1] + args.q),
                metadata={"q": args.q},
            )
            shift = None
        else:
            raise InputError(f"no exact spectrum for scenario {args.scenario!r}")
        if shift is not None:
            table = torus_exact_spectrum(shift, args.lambda_max)
    else:
        objs = _resolve_objects(args, "operator")
        window = None
        if args.window:
            lo, hi = _parse_floats(args.window, 2, "--window")
            window = (lo, hi)
        table = galerkin_spectrum(
            objs["operator"],
            args.cutoff,
            window=window,
            reliable_fraction=args.reliable_fraction,
        )

    report = {
        "config": _config_block(args, "spectrum"),
        "provenance": table.provenance,
        "coverage": list(table.coverage),
        "n_distinct": len(table),
        "n_total": int(table.multiplicities.sum()),
        "metadata": {k: v for k, v in table.metadata.items() if not isinstance(v, np.ndarray)},
    }
    if args.count is not None:
        below, above, ambiguous = counting_bounds(table, args.count)
        report["count"] = {
            "lambda": args.count,
            "strict": below,
            "with_boundary": above,
            "ambiguous": ambiguous,
        }
    if args.mollified is not None:
        report["mollified"] = {
            "lambda": args.mollified,
            "kernel_width": args.kernel_width,
            "value": mollified_count(table, args.mollified, args.kernel_width),
        }
    if args.compare is not None:
        parts = _parse_floats(args.compare, 2, "--compare")
        if args.scenario == "sphere":
            # The round-sphere count is the exact cubic lam**3/3 - lam/3.
            a_g, b_g = 1.0 / 3.0, 0.0
        else:
            if args.scenario is None and not args.input:
                # Bare exact tables default to the standard torus above;
                # use the matching operator for the growth coefficients.
                args.scenario = "standard-torus"
            coeffs = b_density(_resolve_objects(args, "operator")["operator"])
            a_g, b_g = coeffs.a_global, coeffs.b_global
        comp = asymptotic_comparison(table, a_g, b_g, lambda_range=(parts[0], parts[1]))
        lam = comp.lambda_grid
        b_fit = float(np.sum((comp.counts - a_g * lam**3) * lam**2) / np.sum(lam**4))
        report["comparison"] = {
            "lambda_range": parts,
            "a_global": a_g,
            "b_global": b_g,
            "fitted_b": b_fit,
            "max_scaled_residual": comp.max_scaled_residual,
            "octave_lambdas": [float(v) for v in comp.octave_lambdas],
            "octave_scaled_residuals": [float(v) for v in comp.octave_scaled_residuals],
            "window_maxima_decreasing": bool(comp.decreasing),
            "fitted_exponent": comp.fitted_exponent,
        }
    if args.format == "csv":
        if not args.out:
            raise InputError("csv output requires --out")
        write_spectrum_csv(table, args.out)
        print(write_json_report(report, None))
    else:
        report["eigenvalues"] = [
            [float(v), int(m)] for v, m in zip(table.values, table.multiplicities)
        ]
        print(write_json_report(report, args.out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracweyl",
        description="Geometry and spectral asymptotics of 2x2 elliptic first-order operators",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="recover geometry from a principal symbol")
    _add_common(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("check-dirac", help="massless Dirac verdict for an operator")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-7, help="verdict tolerance")
    p.set_defaults(func=cmd_check_dirac)

    p = sub.add_parser("asymptotics", help="two-term Weyl coefficients")
    _add_common(p)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("spectrum", help="eigenvalue tables and counting")
    _add_common(p)
    p.add_argument("--method", choices=("exact", "galerkin"), default="exact")
    p.add_argument("--lambda-max", type=float, default=20.0, help="exact-table reach")
    p.add_argument("--shift", help="spin-structure shift a,b,c (entries 0 or 0.5)")
    p.add_argument("--cutoff", type=int, default=4, help="Galerkin mode cutoff")
    p.add_argument("--window", help="Galerkin window lo,hi (write --window=-2,2 for negative lo)")
    p.add_argument(
        "--reliable-fraction",
        type=float,
        default=0.5,
        help="fraction of the cutoff considered spectrally reliable",
    )
    p.add_argument("--count", type=float, help="report N(lambda) at this lambda")
    p.add_argument("--mollified", type=float, help="report mollified count at this lambda")
    p.add_argument("--kernel-width", type=float, default=6.0)
    p.add_argument(
        "--compare",
        help="lo,hi range: compare counts against the two-term growth law",
    )
    p.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DiracweylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
