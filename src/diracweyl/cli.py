"""Command-line interface.

Subcommands
-----------
decode       recover frame, metric, charge and torsion from a symbol
check-dirac  decide whether an operator is a massless Dirac operator
asymptotics  two-term spectral growth coefficients of an operator
spectrum     exact or Galerkin eigenvalue tables, counting, mollification

Every subcommand reads one source: --scenario (a row of
scenarios.SCENARIOS), --input (a saved operator, symbol or frame) or,
for spectrum only, --shift (a flat-torus spin structure, by default
0,0,0).  A second source, or a flag the source does not read, is bad
input.

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
from .geometry import FrameField, decode_frame, decode_metric, symbol_from_frame
from .geometry import topological_charge, torsion
from .operators import FirstOrderOperator, check_dirac
from .scenarios import _DEFAULT_GRID, SCENARIOS, build_scenario, scenario_params, scenario_spectrum
from .serialize import _from_document, _load_document, load_operator, write_csv, write_json_report
from .spectra import SpinStructure, asymptotic_comparison, counting_bounds, galerkin_spectrum
from .spectra import mollified_count, torus_exact_spectrum

# Every flat-torus spin structure counts like the unit ball: a = 4 pi/3, b = 0.
_FLAT_TORUS_GROWTH = (4.0 * np.pi / 3.0, 0.0)


def _parameters() -> dict:
    """Each scenario parameter with the (scenario, default) pairs that read it."""
    readers = {}
    for name, row in SCENARIOS.items():
        for key, default in row.params.items():
            readers.setdefault(key, []).append((name, default))
    return readers


def _add_common(p: argparse.ArgumentParser, csv: bool = False) -> None:
    p.add_argument("--scenario", choices=tuple(SCENARIOS), help="built-in scenario name")
    p.add_argument("--input", help="JSON file holding an operator, a principal symbol or a frame")
    p.add_argument("--grid", type=int, help=f"scenario grid size per axis (default {_DEFAULT_GRID})")
    for key, readers in _parameters().items():
        help_ = "read by " + ", ".join(f"{name} (default {d})" for name, d in readers)
        p.add_argument(f"--{key}", type=type(readers[0][1]), help=help_)
    p.add_argument("--out", help="write the report to this path")
    if csv:
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="csv writes the table to --out and the report to stdout only")


class _Source:
    """The one source the flags name, and the report's config block.

    The config block echoes the grid, the source and every parameter
    the source reads; an input file reports its own grid once read.
    """

    def __init__(self, args):
        self.args = args
        flags = ["--scenario", "--input"] + (["--shift"] if hasattr(args, "shift") else [])
        named = [f for f in flags if getattr(args, f[2:]) is not None]
        if len(named) > 1 or not (named or "--shift" in flags):
            got = " and ".join(named) or "none"
            raise InputError(f"provide exactly one of {', '.join(flags)}; got {got}")
        given = {k: getattr(args, k) for k in ("grid", *_parameters())}
        given = {k: v for k, v in given.items() if v is not None}
        if given and args.scenario is None:
            raise InputError(f"{', '.join('--' + k for k in given)} only apply to --scenario")
        grid = given.pop("grid", _DEFAULT_GRID)
        self.params = scenario_params(args.scenario, **given) if args.scenario else {}
        self.config = {"command": args.command, "version": __version__, "grid": grid,
                       "scenario": args.scenario, "input": args.input, **self.params}

    def _read(self, obj):
        self.config["grid"] = obj.chart.n
        return obj

    def operator(self) -> FirstOrderOperator:
        if self.args.input is not None:
            return self._read(load_operator(self.args.input))
        if self.args.scenario is None:
            raise InputError("--method galerkin needs --scenario or --input, not a --shift table")
        return build_scenario(self.args.scenario, self.config["grid"], **self.params)

    def symbol(self):
        """The scenario's symbol, or the one an input operator, symbol or frame holds."""
        if self.args.input is None:
            return self.operator().sigma
        obj = _from_document(_load_document(self.args.input), self.args.input)
        if isinstance(obj, FirstOrderOperator):
            obj = obj.sigma
        elif isinstance(obj, FrameField):
            obj = symbol_from_frame(obj)
        return self._read(obj)

    def exact(self, lambda_max: float):
        """The exact table and its growth law (a, b), or None where the operator gives it."""
        if self.args.input is not None:
            raise InputError("--input has no exact spectrum; add --method galerkin")
        if self.args.scenario is not None:
            table = scenario_spectrum(self.args.scenario, lambda_max, **self.params)
            return table, SCENARIOS[self.args.scenario].growth
        text = "0,0,0" if self.args.shift is None else self.args.shift
        shift = _parse_floats(text, 3, "--shift")
        return torus_exact_spectrum(SpinStructure(tuple(shift)), lambda_max), _FLAT_TORUS_GROWTH


def _emit(args, report: dict, columns: dict | None = None) -> None:
    """Print the report, and write it to --out; with --format csv, --out gets the columns."""
    csv = getattr(args, "format", "json") == "csv"
    if csv:
        write_csv(columns, args.out)
    print(write_json_report(report, None if csv else args.out))


def cmd_decode(args) -> int:
    src = _Source(args)
    sym = src.symbol()
    frame = decode_frame(sym)
    metric = decode_metric(sym)
    charge = topological_charge(sym)
    tors = torsion(frame, metric)
    eigs = np.linalg.eigvalsh(metric.g_contra)
    report = {
        "config": src.config,
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
    _emit(args, report)
    return 0


def cmd_check_dirac(args) -> int:
    src = _Source(args)
    verdict = check_dirac(src.operator(), tol=args.tol)
    report = {
        "config": src.config,
        "is_dirac": bool(verdict.is_dirac),
        "tolerance": verdict.tol,
        "cond_a_residual": verdict.cond_a_residual,
        "cond_b_residual": verdict.cond_b_residual,
        "reconstructed_gap": verdict.reconstructed_gap,
    }
    _emit(args, report)
    return 0 if verdict.is_dirac else 1


def cmd_asymptotics(args) -> int:
    src = _Source(args)
    coeffs = b_density(src.operator())
    report = {
        "config": src.config,
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
    n = coeffs.b.shape[0]
    # the densities along the x^3 axis at x^1 = x^2 = 0
    columns = {"x3": 2.0 * np.pi * np.arange(n) / n}
    columns.update({f"{k}_density": getattr(coeffs, k)[0, 0] for k in ("a", "b1", "b2", "b")})
    _emit(args, report, columns)
    return 0


def _parse_floats(text: str, count: int, flag: str) -> list:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise InputError(f"{flag} expects {count} comma-separated numbers: {exc}") from None
    if len(parts) != count:
        raise InputError(f"{flag} expects {count} comma-separated numbers, got {len(parts)}")
    return parts


def cmd_spectrum(args) -> int:
    src = _Source(args)
    op = growth = None
    if args.method == "galerkin":
        window = _parse_floats(args.window, 2, "--window") if args.window else None
        op = src.operator()
        table = galerkin_spectrum(
            op, args.cutoff, window=window, reliable_fraction=args.reliable_fraction
        )
    else:
        table, growth = src.exact(args.lambda_max)

    report = {
        "config": src.config,
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
        if growth is None:
            coeffs = b_density(src.operator() if op is None else op)
            growth = coeffs.a_global, coeffs.b_global
        a_g, b_g = growth
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
    if args.format == "json":
        report["eigenvalues"] = [
            [float(v), int(m)] for v, m in zip(table.values, table.multiplicities)
        ]
    _emit(args, report, {"eigenvalue": table.values, "multiplicity": table.multiplicities})
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
    _add_common(p, csv=True)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("spectrum", help="eigenvalue tables and counting")
    _add_common(p, csv=True)
    p.add_argument("--method", choices=("exact", "galerkin"), default="exact")
    p.add_argument("--lambda-max", type=float, default=20.0, help="exact-table reach")
    p.add_argument("--shift", help="exact flat-torus table of spin-structure shift a,b,c "
                                   "(entries 0 or 0.5); the source when none is named, as 0,0,0")
    p.add_argument("--cutoff", type=int, default=4, help="Galerkin mode cutoff")
    p.add_argument("--window", help="Galerkin window lo,hi (write --window=-2,2 for negative lo)")
    p.add_argument("--reliable-fraction", type=float, default=0.5,
                   help="fraction of the cutoff considered spectrally reliable")
    p.add_argument("--count", type=float, help="report N(lambda) at this lambda")
    p.add_argument("--mollified", type=float, help="report mollified count at this lambda")
    p.add_argument("--kernel-width", type=float, default=6.0)
    p.add_argument("--compare", help="lo,hi range: compare counts against the two-term growth law")
    p.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "format", "json") == "csv" and not args.out:
            raise InputError("csv output requires --out")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DiracweylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
