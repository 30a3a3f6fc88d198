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
0,0,0).  A second source, a flag the source does not read, or a
spectrum flag the chosen method or block does not read is bad input.

Exit codes: 0 success (and positive verdict), 1 negative verdict,
2 bad input, 3 ellipticity or internal-consistency failure.  A reader
that closes stdout early (| head) ends the process by SIGPIPE, as it
ends cat, with no traceback.

The parser and every check of a request, an input file's header and
its base64 arrays included, run on the standard library.  A subcommand
imports numpy and the numerical modules once its source is read, so
--version, --help and refused requests load none of them.
"""

from __future__ import annotations

import argparse
import math
import signal
import sys
from typing import TYPE_CHECKING

from . import __version__
from .defaults import _DEFAULT_KERNEL_WIDTH, _DEFAULT_TOL
from .errors import DiracweylError, InputError
from .scenarios import (_DEFAULT_GRID, SCENARIOS, _scenario_frame, build_scenario, scenario_params,
                        scenario_spectrum)
from .serialize import _from_document, _load_document, load_operator, write_csv, write_json_report

if TYPE_CHECKING:
    from .operators import FirstOrderOperator

# Every flat-torus spin structure counts like the unit ball: a = 4 pi/3, b = 0.
_FLAT_TORUS_GROWTH = (4.0 * math.pi / 3.0, 0.0)


def _galerkin(args) -> bool:
    return args.method == "galerkin"


# spectrum options that one method or block alone reads:
# option -> (default, its reader, whether the arguments select that reader)
_SPECTRUM_OPTIONS = {
    "lambda_max": (20.0, "--method exact", lambda a: not _galerkin(a)),
    "cutoff": (4, "--method galerkin", _galerkin),
    "window": (None, "--method galerkin", _galerkin),
    "kernel_width": (_DEFAULT_KERNEL_WIDTH, "--mollified", lambda a: a.mollified is not None),
}


def _finite(text: str) -> float:
    """A float flag's value; nan and inf are refused like any other non-number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


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
        type_ = _finite if isinstance(readers[0][1], float) else type(readers[0][1])
        p.add_argument(f"--{key}", type=type_, help=help_)
    p.add_argument("--out", help="write the report to this path")
    if csv:
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="csv writes the table to --out and the report to stdout only")


class _Source:
    """The one source the flags name, and the report's config block.

    The config block echoes the grid (null where the source builds
    none), the source, every parameter the source reads and, for
    spectrum, the shift of a --shift table; an input file reports its
    own grid once read.
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
        gridless = args.input is None and (args.scenario is None
                                           or SCENARIOS[args.scenario].frame is None)
        if "grid" in given and gridless:
            raise InputError(f"--grid is read only by scenarios with an operator; "
                             f"{args.scenario!r} has none")
        grid = None if gridless else given.pop("grid", _DEFAULT_GRID)
        self.params = scenario_params(args.scenario, **given) if args.scenario else {}
        self.config = {"command": args.command, "version": __version__, "grid": grid,
                       "scenario": args.scenario, "input": args.input, **self.params}
        if "--shift" in flags:  # the shift table is the source when no other is named
            table = args.scenario is None and args.input is None
            self.config["shift"] = (_parse_floats(args.shift or "0,0,0", 3, "--shift")
                                    if table else None)

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
        """The symbol of the scenario's frame, or the one an input operator, symbol or frame holds."""
        if self.args.input is None:
            obj = _scenario_frame(self.args.scenario, self.config["grid"], self.params)
        else:
            obj = _from_document(_load_document(self.args.input), self.args.input)
        from .geometry import FrameField, symbol_from_frame
        from .operators import FirstOrderOperator

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
        from .spectra import SpinStructure, torus_exact_spectrum

        shift = SpinStructure(tuple(self.config["shift"]))
        return torus_exact_spectrum(shift, lambda_max), _FLAT_TORUS_GROWTH


def _emit(args, report: dict, columns: dict | None = None) -> None:
    """Print the report, and write it to --out; with --format csv, --out gets the columns."""
    csv = getattr(args, "format", "json") == "csv"
    if csv:
        write_csv(columns, args.out)
    print(write_json_report(report, None if csv else args.out))


def cmd_decode(args) -> int:
    src = _Source(args)
    sym = src.symbol()
    import numpy as np

    from .fields import grid_integral
    from .geometry import decode_frame, decode_metric
    from .geometry import topological_charge, torsion

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
        },
    }
    _emit(args, report)
    return 0


def cmd_check_dirac(args) -> int:
    src = _Source(args)
    op = src.operator()
    from .operators import check_dirac

    verdict = check_dirac(op, tol=args.tol)
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
    op = src.operator()
    import numpy as np

    from .asymptotics import b_density

    coeffs = b_density(op)
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
        parts = [_finite(p) for p in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"{flag} expects {count} comma-separated numbers: {exc}") from None
    if len(parts) != count:
        raise InputError(f"{flag} expects {count} comma-separated numbers, got {len(parts)}")
    return parts


def _read_spectrum_options(args) -> None:
    """Give each absent option its default; refuse one that no chosen method or block reads."""
    for key, (default, reader, reads) in _SPECTRUM_OPTIONS.items():
        if getattr(args, key) is None:
            setattr(args, key, default)
        elif not reads(args):
            raise InputError(f"--{key.replace('_', '-')} is read only by {reader}")


def cmd_spectrum(args) -> int:
    src = _Source(args)
    _read_spectrum_options(args)
    op = growth = None
    if args.method == "galerkin":
        window = _parse_floats(args.window, 2, "--window") if args.window else None
        op = src.operator()
        from .spectra import galerkin_spectrum

        table = galerkin_spectrum(op, args.cutoff, window=window)
    else:
        table, growth = src.exact(args.lambda_max)
    import numpy as np

    from .spectra import asymptotic_comparison, counting_bounds, mollified_count

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
            from .asymptotics import b_density

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


def _add_read_by(p: argparse.ArgumentParser, key: str, help_: str, type_) -> None:
    """Add one of _SPECTRUM_OPTIONS; its help names the reader and the default."""
    default, reader, _ = _SPECTRUM_OPTIONS[key]
    note = f"read by {reader}" + ("" if default is None else f", default {default}")
    p.add_argument("--" + key.replace("_", "-"), type=type_, help=f"{help_} ({note})")


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
    p.add_argument("--tol", type=_finite, default=_DEFAULT_TOL, help="verdict tolerance")
    p.set_defaults(func=cmd_check_dirac)

    p = sub.add_parser("asymptotics", help="two-term Weyl coefficients")
    _add_common(p, csv=True)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("spectrum", help="eigenvalue tables and counting")
    _add_common(p, csv=True)
    p.add_argument("--method", choices=("exact", "galerkin"), default="exact")
    _add_read_by(p, "lambda_max", "exact-table reach", _finite)
    p.add_argument("--shift", help="exact flat-torus table of spin-structure shift a,b,c "
                                   "(entries 0 or 0.5); the source when none is named, as 0,0,0")
    _add_read_by(p, "cutoff", "Galerkin mode cutoff", int)
    _add_read_by(p, "window", "Galerkin window lo,hi inside the reliable zone, by default all of "
                 "it: -cutoff/2,cutoff/2 (write --window=-2,2 for negative lo)", str)
    p.add_argument("--count", type=_finite, help="report N(lambda) at this lambda")
    p.add_argument("--mollified", type=_finite, help="report mollified count at this lambda")
    _add_read_by(p, "kernel_width", "mollifier Fourier half-width", _finite)
    p.add_argument("--compare", help="lo,hi range: compare counts against the two-term growth law")
    p.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Called without argv, main is the process's entry point (the
    diracweyl script, python -m diracweyl.cli): it restores the default
    SIGPIPE action where the platform has one.  Python ignores SIGPIPE
    at start-up, which turns a closed stdout into a BrokenPipeError
    traceback.
    """
    if argv is None and hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
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
