"""Command-line entry points, exercised through main()."""

import argparse
import base64
import json
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracweyl as dw
from diracweyl.cli import build_parser, main


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _loads(text):
    """Strict JSON: a NaN or Infinity constant fails the test instead of parsing."""
    return json.loads(text, parse_constant=_refuse_constant)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, _loads(out) if out.strip() else None


def test_decode_standard_scenario(capsys):
    code, report = _run(capsys, "decode", "--scenario", "standard-torus", "--grid", "8")
    assert code == 0
    assert report["charge"] == 1
    assert report["config"]["command"] == "decode"
    assert report["config"]["version"] == dw.__version__
    assert abs(report["metric"]["volume"] - (2 * np.pi) ** 3) < 1e-8


def test_decode_twisted_reports_axial(capsys):
    code, report = _run(capsys, "decode", "--scenario", "twisted-torus", "--k3", "2", "--grid", "12")
    assert code == 0
    assert abs(report["torsion"]["axial_dual_mean"] + 4.0 / 3.0) < 1e-10
    assert abs(report["torsion"]["star_trace_mean"] + 4.0) < 1e-10


def test_decode_inverted_frame_file(tmp_path, capsys):
    """The mirror-image frame decodes to charge -1."""
    flipped = dw.standard_frame(8).e.copy()
    flipped[..., 2, :] *= -1.0
    path = tmp_path / "sym.json"
    dw.save_symbol(dw.symbol_from_frame(flipped), str(path))
    code, report = _run(capsys, "decode", "--input", str(path))
    assert code == 0
    assert report["charge"] == -1


def test_decode_frame_file(tmp_path, capsys):
    """A frame file decodes through its symbol; operator commands refuse it by kind."""
    path = tmp_path / "frame.json"
    dw.save_frame(dw.twisted_frame(1, 8), str(path))
    code, report = _run(capsys, "decode", "--input", str(path))
    assert code == 0
    assert report["charge"] == 1
    assert report["config"]["grid"] == 8
    assert abs(report["torsion"]["axial_dual_mean"] + 2.0 / 3.0) < 1e-10
    for command in ("check-dirac", "asymptotics"):
        assert main([command, "--input", str(path)]) == 2
        assert "'frame'" in capsys.readouterr().err


# each built the operator first: the random frame's missed the self-adjointness gate (exit 3)
# at the default grid 16, and the others' a0 the limit of 1e300 (exit 2)
DECODED_SCENARIOS = {
    "random-amplitude-0.01": (["--scenario", "random-band-limited", "--amplitude", "0.01"],
                              lambda: dw.random_band_limited_frame(0, 16, 0.01)),
    "scalar-q-2e300": (["--scenario", "dirac-plus-scalar", "--q", "2e300", "--grid", "8"],
                       lambda: dw.standard_frame(8)),
    "traceless-epsilon-2e300": (["--scenario", "dirac-plus-traceless", "--epsilon", "2e300",
                                 "--grid", "8"], lambda: dw.standard_frame(8)),
}


@pytest.mark.parametrize("case", sorted(DECODED_SCENARIOS))
def test_decode_scenario_reads_its_frame_alone(case, tmp_path, capsys):
    """A scenario decodes the symbol of its frame, as decode --input does the saved frame."""
    argv, frame = DECODED_SCENARIOS[case]
    path = tmp_path / "frame.json"
    dw.save_frame(frame(), str(path))
    reports = [_run(capsys, "decode", *argv), _run(capsys, "decode", "--input", str(path))]
    assert [code for code, _ in reports] == [0, 0]
    blocks = [{k: report[k] for k in ("charge", "metric", "torsion")} for _, report in reports]
    assert blocks[0] == blocks[1]


def test_decode_without_source_is_usage_error(capsys):
    code = main(["decode"])
    assert code == 2
    assert "scenario" in capsys.readouterr().err


def test_decode_sphere_scenario_rejected(capsys):
    code = main(["decode", "--scenario", "sphere"])
    assert code == 2


class TestCheckDirac:
    def test_dirac_passes(self, capsys):
        code, report = _run(capsys, "check-dirac", "--scenario", "twisted-torus", "--grid", "12")
        assert code == 0
        assert report["is_dirac"] is True
        assert report["tolerance"] == 1e-7

    def test_scalar_shift_fails(self, capsys):
        code, report = _run(
            capsys, "check-dirac", "--scenario", "dirac-plus-scalar", "--q", "0.3", "--grid", "8"
        )
        assert code == 1
        assert report["is_dirac"] is False
        assert abs(report["cond_b_residual"] - 0.3 / (2 * np.pi**2)) < 1e-9

    def test_cond_a_of_a_huge_traceless_term_stays_finite(self, capsys):
        """cond_a is the norm of the traceless part, with no overflow on the way: its
        squares overflowed, and the report held Infinity, which is not JSON."""
        code, report = _run(capsys, "check-dirac", "--scenario", "dirac-plus-traceless",
                            "--epsilon", "2e154", "--grid", "4")
        assert code == 1 and report["is_dirac"] is False
        assert report["cond_a_residual"] == pytest.approx(2e154, rel=1e-12)

    def test_operator_file_input(self, tmp_path, capsys):
        path = tmp_path / "op.json"
        dw.save_operator(dw.dirac_operator(dw.standard_frame(8)), str(path))
        code, report = _run(capsys, "check-dirac", "--input", str(path))
        assert code == 0
        assert report["is_dirac"] is True


def test_asymptotics_twisted(capsys):
    code, report = _run(capsys, "asymptotics", "--scenario", "twisted-torus", "--k3", "1", "--grid", "12")
    assert code == 0
    assert abs(report["a_global"] - 4 * np.pi / 3) < 1e-10
    assert abs(report["b_global"]) < 1e-10
    b1_lo, b1_hi = report["density_extrema"]["b1"]
    assert abs(b1_lo - 1 / (4 * np.pi**2)) < 1e-10
    assert abs(b1_hi - 1 / (4 * np.pi**2)) < 1e-10


def test_asymptotics_csv_export(tmp_path, capsys):
    out = tmp_path / "density.csv"
    code, _ = _run(
        capsys,
        "asymptotics", "--scenario", "dirac-plus-scalar", "--q", "0.3", "--grid", "8",
        "--format", "csv", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("x3,")
    assert len(lines) == 9


class TestSpectrum:
    def test_exact_with_count(self, capsys):
        code, report = _run(
            capsys,
            "spectrum", "--scenario", "standard-torus", "--lambda-max", "5",
            "--count", "2.0",
        )
        assert code == 0
        assert report["count"]["strict"] == 26
        assert report["count"]["with_boundary"] == 32
        assert report["count"]["ambiguous"] is True

    def test_twisted_scenario_uses_half_shift(self, capsys):
        # 10^400 + 1 exited 1 with an OverflowError traceback: k3 / 2.0 is past the float range
        for k3 in ("1", str(10**400 + 1)):
            code, report = _run(
                capsys, "spectrum", "--scenario", "twisted-torus", "--k3", k3, "--lambda-max", "2"
            )
            assert code == 0
            values = [v for v, _ in report["eigenvalues"]]
            assert min(abs(v) for v in values) == pytest.approx(0.5)

    def test_explicit_shift_flag(self, capsys):
        code, report = _run(
            capsys, "spectrum", "--shift", "0,0,0.5", "--lambda-max", "2"
        )
        assert code == 0
        values = [v for v, _ in report["eigenvalues"]]
        assert min(abs(v) for v in values) == pytest.approx(0.5)

    def test_galerkin_method(self, capsys):
        code, report = _run(
            capsys,
            "spectrum", "--scenario", "standard-torus", "--grid", "8",
            "--method", "galerkin", "--cutoff", "3", "--window=-1.4,1.4",
        )
        assert code == 0
        assert report["provenance"] == "galerkin"
        got = {round(v, 9): m for v, m in report["eigenvalues"]}
        assert got[1.0] == 6
        assert got[0.0] == 2

    def test_sphere_exact(self, capsys):
        code, report = _run(capsys, "spectrum", "--scenario", "sphere", "--lambda-max", "4")
        assert code == 0
        got = {v: m for v, m in report["eigenvalues"]}
        assert got[1.5] == 2 and got[2.5] == 6

    def test_mollified_block(self, capsys):
        code, report = _run(
            capsys,
            "spectrum", "--scenario", "standard-torus", "--lambda-max", "20",
            "--mollified", "10",
        )
        assert code == 0
        assert report["mollified"]["kernel_width"] == 6.0
        assert abs(report["mollified"]["value"] - 4 * np.pi / 3 * 1000) < 25

    def test_narrow_kernel_width(self, capsys):
        """Width 1.5 exited 3: the FFT kernel failed its own mass check below 2.75.
        The kernel's second moment 2/tau^2 adds 4 pi lambda * 2/tau^2 to the ball volume."""
        code, report = _run(
            capsys,
            "spectrum", "--lambda-max", "60", "--mollified", "10", "--kernel-width", "1.5",
        )
        assert code == 0
        assert abs(report["mollified"]["value"] - 4 * np.pi / 3 * (1000 + 6 * 10 / 1.5**2)) < 25

    def test_count_block_counts_each_eigenvalue_once(self, capsys):
        """Just above lambda = 1 the six |m| = 1 modes were counted as 6 and 12."""
        code, report = _run(capsys, "spectrum", "--lambda-max", "5", "--count", "1.0000000005")
        assert code == 0
        assert report["count"] == {
            "lambda": 1.0000000005, "strict": 0, "with_boundary": 6, "ambiguous": True,
        }

    def test_compare_block_end_to_end(self, capsys):
        """Counting vs the computed growth law: fitted b within 10% of -4*pi*q."""
        code, report = _run(
            capsys,
            "spectrum", "--scenario", "dirac-plus-scalar", "--q", "0.3", "--grid", "8",
            "--lambda-max", "45", "--compare", "5,40",
        )
        assert code == 0
        comp = report["comparison"]
        assert abs(comp["b_global"] + 1.2 * np.pi) < 1e-9
        assert abs(comp["fitted_b"] - comp["b_global"]) < 0.1 * abs(comp["b_global"])
        assert comp["window_maxima_decreasing"] is True
        assert comp["fitted_exponent"] < 2.0

    def test_csv_spectrum_requires_out(self, capsys):
        code = main(["spectrum", "--scenario", "standard-torus", "--format", "csv"])
        assert code == 2

    def test_csv_spectrum_written(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code, _ = _run(
            capsys,
            "spectrum", "--scenario", "standard-torus", "--lambda-max", "3",
            "--format", "csv", "--out", str(out),
        )
        assert code == 0
        assert out.read_text().startswith("eigenvalue,multiplicity")

    def test_bad_window_string(self, capsys):
        code = main(
            ["spectrum", "--scenario", "standard-torus", "--grid", "8",
             "--method", "galerkin", "--window", "oops"]
        )
        assert code == 2

    def test_unreliable_window_is_input_error(self, capsys):
        code = main(
            ["spectrum", "--scenario", "standard-torus", "--grid", "8",
             "--method", "galerkin", "--cutoff", "3", "--window=-4,4"]
        )
        assert code == 2


def test_nyquist_violation_exit_code(nyquist_operator, tmp_path, capsys):
    path = tmp_path / "op.json"
    dw.save_operator(nyquist_operator, str(path))
    code = main(["spectrum", "--input", str(path), "--method", "galerkin", "--cutoff", "3"])
    assert code == 3
    assert "Nyquist" in capsys.readouterr().err


def test_report_written_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _ = _run(
        capsys, "decode", "--scenario", "standard-torus", "--grid", "8", "--out", str(out)
    )
    assert code == 0
    assert _loads(out.read_text())["charge"] == 1


# --- one source, every flag read or refused --------------------------------------

REFUSED = {
    # each exited 0 and answered for another operator, or ignored a flag
    "exact-table-of-input": ["spectrum", "--input", "OP"],
    "scenario-and-input": ["check-dirac", "--scenario", "standard-torus", "--input", "OP"],
    "shift-and-scenario": ["spectrum", "--shift", "0,0,0", "--scenario", "standard-torus"],
    "shift-and-input": ["spectrum", "--shift", "0,0,0", "--input", "OP", "--method", "galerkin"],
    "sphere-galerkin": ["spectrum", "--scenario", "sphere", "--method", "galerkin"],
    "unread-parameter": ["decode", "--scenario", "standard-torus", "--k3", "5"],
    "parameter-of-shift": ["spectrum", "--shift", "0,0,0", "--q", "0.3"],
    "grid-of-input": ["check-dirac", "--input", "OP", "--grid", "8"],
    "csv-without-out": ["asymptotics", "--scenario", "standard-torus", "--format", "csv"],
    # spectrum flags that the chosen method or block does not read
    "cutoff-of-exact": ["spectrum", "--scenario", "standard-torus", "--cutoff", "9"],
    "window-of-exact": ["spectrum", "--lambda-max", "3", "--window=-1,1"],
    "lambda-max-of-galerkin": ["spectrum", "--scenario", "standard-torus", "--grid", "8",
                               "--method", "galerkin", "--cutoff", "3", "--lambda-max", "3"],
    "kernel-width-without-mollified": ["spectrum", "--count", "2", "--kernel-width", "3"],
    "grid-of-sphere": ["spectrum", "--scenario", "sphere", "--grid", "8"],
    # the Galerkin reliable zone is cutoff/2, not an option
    "reliable-fraction": ["spectrum", "--scenario", "standard-torus", "--grid", "8",
                          "--method", "galerkin", "--reliable-fraction", "5"],
    # exited 0 answering for the twist k3 = -7
    "twist-aliased": ["decode", "--scenario", "twisted-torus", "--k3=9", "--grid", "16"],
    # died with a MemoryError traceback and exit 1
    "sphere-over-budget": ["spectrum", "--scenario", "sphere", "--lambda-max", "1e9"],
    "grid-over-ceiling": ["decode", "--scenario", "standard-torus", "--grid", "100000"],
    "galerkin-cube-over-budget": ["spectrum", "--scenario", "standard-torus", "--grid", "8",
                                  "--method", "galerkin", "--cutoff", "100000"],
    # died with an OverflowError or TypeError traceback and exit 1
    "lambda-max-1e300": ["spectrum", "--lambda-max", "1e300"],
    "twist-1e20": ["decode", "--scenario", "twisted-torus", "--k3", "100000000000000000000"],
    # died with a ValueError traceback and exit 1
    "negative-grid": ["decode", "--scenario", "standard-torus", "--grid", "-4"],
    "negative-grid-random": ["asymptotics", "--scenario", "random-band-limited", "--grid", "-4"],
    "negative-seed": ["check-dirac", "--scenario", "random-band-limited", "--seed", "-1"],
    # named a lambda_max of 2005.0 that was never asked for
    "shifted-table-over-budget": ["spectrum", "--scenario", "dirac-plus-scalar", "--q", "2000",
                                  "--lambda-max", "5"],
    # exited 0 with a table covering (1, 3), cut from the reach lambda_max + |q| = 1
    "shifted-table-negative-lambda-max": ["spectrum", "--scenario", "dirac-plus-scalar", "--q", "2",
                                          "--lambda-max", "-1"],
    # printed "b_global": -Infinity, which is not JSON, or exited 3 with a NaN b decomposition
    "q-1e307": ["asymptotics", "--scenario", "dirac-plus-scalar", "--q", "1e307", "--grid", "8"],
    "q-1e308-check-dirac": ["check-dirac", "--scenario", "dirac-plus-scalar", "--q", "1e308",
                            "--grid", "8"],
    # an unwritable --out: a traceback and exit 1, for check-dirac the "not Dirac" code
    "out-in-missing-directory": ["check-dirac", "--scenario", "twisted-torus", "--k3", "1",
                                 "--grid", "8", "--out", "MISSING"],
    "out-is-a-directory": ["decode", "--scenario", "standard-torus", "--grid", "8", "--out", "DIR"],
    "csv-out-in-missing-directory": ["asymptotics", "--scenario", "standard-torus", "--grid", "8",
                                     "--format", "csv", "--out", "MISSING"],
    # exited 3 with "not Hermitian ... measured nan" after numpy overflow warnings
    "a0-1e308-galerkin": ["spectrum", "--scenario", "dirac-plus-traceless", "--epsilon=1e308",
                          "--method", "galerkin", "--grid", "8", "--cutoff", "2"],
    # exited 3 with "report holds a non-finite number" after a numpy overflow warning
    "a0-1e307-input": ["asymptotics", "--input", "HUGE"],
    # printed the kernel tail as a 300-digit number
    "kernel-tail-1e301": ["spectrum", "--mollified", "1", "--kernel-width", "1e-300"],
}
# the flag and its reader, which the error message names
NAMED = {
    "cutoff-of-exact": ("--cutoff", "--method galerkin"),
    "window-of-exact": ("--window", "--method galerkin"),
    "lambda-max-of-galerkin": ("--lambda-max", "--method exact"),
    "kernel-width-without-mollified": ("--kernel-width", "--mollified"),
    "grid-of-sphere": ("--grid", "operator"),
    "reliable-fraction": ("unrecognized arguments: --reliable-fraction",),
    "twist-aliased": ("k3 = 9 needs a grid n > 2|k3| = 18, got 16",),
    "grid-over-ceiling": ("grid size 100000 is over the ceiling of 128",),
    "galerkin-cube-over-budget": ("cutoff 100000", "budget of 4194304"),
    "lambda-max-1e300": ("lambda_max 1e+300", "budget of 4194304"),
    "shifted-table-over-budget": ("q = 2000.0", "lambda_max + |q| = 2005.0",
                                  "lower lambda_max or |q|"),
    "shifted-table-negative-lambda-max": ("lambda_max must be positive and finite, got -1.0",),
    "twist-1e20": ("n > 2|k3| = 200000000000000000000",),
    "sphere-over-budget": ("lambda_max", "budget"),
    "negative-grid": ("grid size must be even and >= 4, got -4",),
    "negative-grid-random": ("grid size must be even and >= 4, got -4",),
    "negative-seed": ("seed must be a non-negative integer, got -1",),
    "q-1e307": ("q = 1e+307", "limit |q| <= 1e+300"),
    "q-1e308-check-dirac": ("q = 1e+308", "limit |q| <= 1e+300"),
    "out-in-missing-directory": ("cannot write MISSING: No such file or directory",),
    "out-is-a-directory": ("cannot write DIR: Is a directory",),
    "csv-out-in-missing-directory": ("cannot write MISSING: No such file or directory",),
    "a0-1e308-galerkin": ("a0 has an entry of size 1e+308, over the limit 1e+300",),
    "a0-1e307-input": ("a0 has an entry of size 1e+307, over the limit 1e+300",),
    "kernel-tail-1e301": ("lambda 1.0 plus kernel tail 4.57e+301",),
}


def _plus_1e307_identity(a0):
    a0[:, 0, 0, 0] += 1e307  # real parts of the diagonal, a0 entries as (re, im)
    a0[:, 1, 1, 0] += 1e307
    return a0


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_wrong_source_or_unread_flag_exits_2(case, tmp_path, capsys):
    path = tmp_path / "op.json"
    dw.save_operator(dw.dirac_plus_scalar(dw.standard_frame(8), 0.3), str(path))
    # OP: a saved operator; MISSING: a file in a directory that does not exist; DIR: a directory;
    # HUGE: a saved 8^3 Dirac operator plus 1e307 I
    huge = tmp_path / "huge.json"
    paths = {"OP": str(path), "MISSING": str(tmp_path / "absent" / "report"), "DIR": str(tmp_path),
             "HUGE": str(huge)}
    if "HUGE" in REFUSED[case]:
        _edited_operator(lambda doc: _edit_array(doc, "a0", _plus_1e307_identity))(huge)
    try:
        code = main([paths.get(a, a) for a in REFUSED[case]])
    except SystemExit as exc:  # argparse refuses an unknown flag before main runs
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith("usage: " if case == "reliable-fraction" else "error: ")
    assert err.count("\n") == 1 or case == "reliable-fraction", err
    named = [word.replace("MISSING", paths["MISSING"]).replace("DIR", paths["DIR"])
             for word in NAMED.get(case, ())]
    assert all(word in err for word in named), err


@pytest.mark.parametrize("q", ["1e300", "-1e300"])
def test_q_at_its_limit_reports_finite_json(q, capsys):
    """b_global = -4 pi q stays a float64 at the largest |q| dirac-plus-scalar takes."""
    code, report = _run(capsys, "asymptotics", "--scenario", "dirac-plus-scalar", f"--q={q}",
                        "--grid", "8")
    assert code == 0
    assert report["b_global"] == pytest.approx(-4.0 * np.pi * float(q), rel=1e-12)


NON_FINITE = {
    # each exited 1 with a traceback, exited 0, or printed NaN into the JSON report
    "lambda-max-nan": ["spectrum", "--lambda-max", "nan"],
    "lambda-max-inf": ["spectrum", "--lambda-max", "inf"],
    "q-nan-spectrum": ["spectrum", "--scenario", "dirac-plus-scalar", "--q", "nan",
                       "--lambda-max", "3"],
    "count-nan": ["spectrum", "--lambda-max", "5", "--count", "nan"],
    "mollified-nan": ["spectrum", "--mollified", "nan"],
    "window-nan": ["spectrum", "--scenario", "standard-torus", "--grid", "8",
                   "--method", "galerkin", "--window=nan,1"],
    "q-nan-decode": ["decode", "--scenario", "dirac-plus-scalar", "--q", "nan"],
    "tol-nan": ["check-dirac", "--scenario", "standard-torus", "--grid", "8", "--tol", "nan"],
    "shift-inf": ["spectrum", "--shift", "0,inf,0"],
    "compare-nan": ["spectrum", "--lambda-max", "20", "--compare", "5,nan"],
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_number_exits_2_naming_the_flag(case, capsys):
    argv = NON_FINITE[case]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a flag's value before main runs
        code = exc.code
    out, err = capsys.readouterr()
    flag = next(a for a in reversed(argv) if a.startswith("--")).split("=")[0]
    assert code == 2 and out == ""
    assert flag in err and "finite" in err and "Traceback" not in err, err


def test_format_only_where_a_csv_exists():
    for command in ("decode", "check-dirac"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", "standard-torus", "--format", "csv", "--out", "x.csv"])
        assert exc.value.code == 2


def test_config_echoes_what_the_source_reads(tmp_path, capsys):
    _, report = _run(
        capsys, "check-dirac", "--scenario", "twisted-torus", "--k3", "2", "--grid", "8"
    )
    assert report["config"] == {
        "command": "check-dirac", "version": dw.__version__, "grid": 8,
        "scenario": "twisted-torus", "input": None, "k3": 2,
    }
    _, report = _run(capsys, "decode", "--scenario", "random-band-limited")
    assert report["config"]["seed"] == 0 and report["config"]["amplitude"] == 0.003
    path = tmp_path / "op.json"
    dw.save_operator(dw.dirac_operator(dw.standard_frame(12)), str(path))
    _, report = _run(capsys, "check-dirac", "--input", str(path))
    assert report["config"] == {
        "command": "check-dirac", "version": dw.__version__, "grid": 12,
        "scenario": None, "input": str(path),
    }
    # a shift table and the sphere build no grid; spectrum names the shift of its table
    _, report = _run(capsys, "spectrum", "--shift", "0,0,0.5", "--lambda-max", "2")
    assert report["config"] == {
        "command": "spectrum", "version": dw.__version__, "grid": None,
        "scenario": None, "input": None, "shift": [0.0, 0.0, 0.5],
    }
    _, report = _run(capsys, "spectrum", "--lambda-max", "2")
    assert report["config"]["grid"] is None and report["config"]["shift"] == [0.0, 0.0, 0.0]
    _, report = _run(capsys, "spectrum", "--scenario", "sphere", "--lambda-max", "2")
    assert report["config"] == {
        "command": "spectrum", "version": dw.__version__, "grid": None,
        "scenario": "sphere", "input": None, "shift": None,
    }
    _, report = _run(capsys, "spectrum", "--scenario", "standard-torus", "--lambda-max", "2")
    assert report["config"]["grid"] == 16 and report["config"]["shift"] is None


README = Path(__file__).resolve().parents[1] / "README.md"
README_LINES = [
    line
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    for line in block.splitlines()
    if line.startswith("diracweyl ")
]


@pytest.mark.parametrize("line", README_LINES)
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys):
    """Every diracweyl line of the README exits 0, or 1 where it says -> 1."""
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line.split(";")[0], comments=True)[1:]
    assert main(argv) == (1 if "-> 1" in line else 0), capsys.readouterr().err


def test_readme_python_blocks_run():
    """The README's python blocks run in order, in one namespace, as a reader pastes them."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def _parser_flags(parser):
    """Every --flag of a parser and of its subcommands' parsers."""
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


def test_readme_names_exactly_the_parser_flags():
    """A flag the README names but the parser lacks (or the reverse) is a stale document."""
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text(encoding="utf-8")))
    assert named - {"--no-build-isolation"} == _parser_flags(build_parser())


# --- the input boundary ------------------------------------------------------

def _edited_operator(edit):
    """A writer of a saved 8^3 Dirac operator whose document edit(doc) has changed."""

    def write(path):
        dw.save_operator(dw.dirac_operator(dw.standard_frame(8)), str(path))
        doc = _loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))

    return write


_POINT_SHAPE = {"frame": (3, 3), "a0": (2, 2, 2)}  # a0 entries as (re, im)


def _edit_array(doc, key, edit):
    """Decode doc[key] to a (points, *components) float64 array, x1 fastest,
    replace it with what edit returns and encode that back."""
    arr = np.frombuffer(base64.b64decode(doc[key]), dtype="<f8").reshape((-1,) + _POINT_SHAPE[key])
    out = np.ascontiguousarray(edit(arr.copy()), dtype="<f8")
    doc[key] = base64.b64encode(out.tobytes()).decode("ascii")


def _edit_bytes(doc, key, edit):
    """Replace doc[key]'s decoded bytes with edit(bytes), base64 encoded."""
    doc[key] = base64.b64encode(edit(base64.b64decode(doc[key]))).decode("ascii")


def _nan_in_frame(frame):
    frame[5, 1, 2] = float("nan")
    return frame


MALFORMED = {
    "wrong-length-array": ("decode", _edited_operator(
        lambda doc: _edit_array(doc, "a0", lambda a0: a0[: len(a0) // 2]))),
    "frame-missing": ("decode", _edited_operator(lambda doc: doc.pop("frame"))),
    "frame-wrong-shape": ("check-dirac", _edited_operator(
        lambda doc: _edit_array(doc, "frame", lambda frame: frame[:, :2]))),
    "frame-non-finite": ("asymptotics", _edited_operator(
        lambda doc: _edit_array(doc, "frame", _nan_in_frame))),
    "frame-not-base64": ("decode", _edited_operator(
        lambda doc: doc.update(frame=doc["frame"][:100] + "!" + doc["frame"][101:]))),
    "a0-bytes-not-multiple-of-8": ("check-dirac", _edited_operator(
        lambda doc: _edit_bytes(doc, "a0", lambda raw: raw[:-3]))),
    "frame-json-list": ("asymptotics", _edited_operator(
        lambda doc: doc.update(frame=[[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]] * 8**3))),
    "frame-nan-bytes": ("decode", _edited_operator(
        lambda doc: _edit_bytes(doc, "frame", lambda raw: b"\xff" * 8 + raw[8:]))),
    "missing-path": ("check-dirac", lambda path: None),
    "not-json": ("asymptotics", lambda path: path.write_text("sigma = [[0, 1], [1, 0]]\n")),
    "chart-grid-zero": ("decode", _edited_operator(lambda doc: doc["chart"].update(grid=0))),
}


def _child_env():
    src = str(Path(dw.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # pytest's filterwarnings covers its own process only; a child's warning fails it here
    return dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error")


def _python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_child_env(), timeout=120,
    )


def _cli_process(*argv):
    return _python("-m", "diracweyl.cli", *argv)


def _imported_modules(proc):
    """The modules a process run with -X importtime imported."""
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def _truncated_operator(path):
    """A saved operator whose a0 string has lost its second half."""
    _edited_operator(lambda doc: doc.update(a0=doc["a0"][: len(doc["a0"]) // 2]))(path)


COLD = {
    "version": (["--version"], None, 0),
    "help": (["check-dirac", "--help"], None, 0),
    "usage": (["decode", "--grid", "eight"], None, 2),
    "exact-table-of-input": (["spectrum", "--input", "IN"], _truncated_operator, 2),
    "missing": (["check-dirac", "--input", "IN"], lambda path: None, 2),
    "not-json": (["check-dirac", "--input", "IN"],
                 lambda path: path.write_text("sigma = [[0, 1], [1, 0]]\n"), 2),
    "truncated": (["check-dirac", "--input", "IN"], _truncated_operator, 2),
    "decode-sphere": (["decode", "--scenario", "sphere"], None, 2),
    "decode-missing": (["decode", "--input", "IN"], lambda path: None, 2),
}


@pytest.mark.parametrize("case", sorted(COLD))
def test_requests_that_compute_nothing_load_no_numpy(case, tmp_path):
    """--version, --help, usage errors and refused inputs are answered on the standard library."""
    argv, write, want = COLD[case]
    path = tmp_path / "input.json"
    if write is not None:
        write(path)
    proc = _python("-X", "importtime", "-m", "diracweyl.cli",
                   *[str(path) if a == "IN" else a for a in argv])
    assert proc.returncode == want
    assert "Traceback" not in proc.stderr
    assert want == 0 or any(line.startswith(("error: ", "usage: ")) for line in proc.stderr.splitlines())
    imported = _imported_modules(proc)
    assert "diracweyl.scenarios" in imported and "numpy" not in imported


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_stdout_closed_after_one_line_ends_the_process_quietly():
    """`spectrum --lambda-max 40 | head -1` printed a BrokenPipeError traceback.  The
    report (about 800 kB at --lambda-max 100) outgrows the pipe, so the process is still
    writing when its reader goes; it now ends by SIGPIPE, as cat does, with stderr empty."""
    proc = subprocess.Popen([sys.executable, "-m", "diracweyl.cli", "spectrum", "--lambda-max",
                             "100"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env())
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""
    assert code == -signal.SIGPIPE


def test_import_loads_no_numpy_and_no_submodule():
    proc = _python("-X", "importtime", "-c", "import diracweyl; diracweyl.__version__")
    assert proc.returncode == 0, proc.stderr
    imported = _imported_modules(proc)
    assert "diracweyl" in imported and "numpy" not in imported
    assert not [m for m in imported if m.startswith("diracweyl.")]


def test_exact_spectrum_loads_no_operator_or_geometry_module():
    """spectra imports FirstOrderOperator for its annotations only."""
    code = ("import json, sys\n"
            "from diracweyl.cli import main\n"
            "assert main(['spectrum', '--shift', '0,0,0.5', '--lambda-max', '3', '--count', '2']) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('diracweyl.'))))")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = set(_loads(proc.stdout.splitlines()[-1]))
    assert "diracweyl.spectra" in loaded
    assert loaded.isdisjoint({"diracweyl.operators", "diracweyl.geometry"})


def test_growth_comparison_loads_no_masked_arrays():
    """np.unique of the comparison's samples imported numpy.ma (13-30 ms) in numpy 2.4."""
    proc = _python("-X", "importtime", "-m", "diracweyl.cli", "spectrum", "--lambda-max", "20",
                   "--compare", "5,15")
    assert proc.returncode == 0, proc.stderr
    assert "numpy.ma" not in _imported_modules(proc)


@pytest.mark.parametrize("lo", ["1e-300", "1e-9"])
def test_growth_comparison_from_below_the_floor_exits_2_naming_it(lo):
    """--compare 1e-300,1 exited 0, printed two numpy RuntimeWarnings and repeated 1e-06
    among the octave samples."""
    proc = _cli_process("spectrum", "--lambda-max", "3", "--compare", f"{lo},1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "3.42e-05" in proc.stderr, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_decode_reports_the_metric_eigenvalue_extremes(tmp_path, capsys, curved_frame):
    """The extremes of LAPACK's eigvalsh over the decoded metric."""
    path = tmp_path / "frame.json"
    dw.save_frame(curved_frame, str(path))
    code, report = _run(capsys, "decode", "--input", str(path))
    assert code == 0
    w = np.linalg.eigvalsh(dw.decode_metric(dw.symbol_from_frame(curved_frame)).g_contra)
    got = report["metric"]
    assert (got["eigenvalue_min"], got["eigenvalue_max"]) == (w[..., 0].min(), w[..., 2].max())


def test_library_and_cli_import_with_numpy_alone():
    """numpy is the one runtime dependency: blocking scipy and pytest breaks no import.

    `import diracweyl` loads no submodule, so every module in the package is imported by name."""
    code = ("import sys; sys.modules.update(scipy=None, pytest=None)\n"
            "import importlib, pkgutil, diracweyl\n"
            "for m in pkgutil.iter_modules(diracweyl.__path__):\n"
            "    importlib.import_module('diracweyl.' + m.name)\n"
            "    print(m.name)")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    imported = set(proc.stdout.split())
    assert imported >= set(dw._EXPORTS) | {"cli", "defaults"}, imported


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_without_traceback(case, tmp_path):
    command, write = MALFORMED[case]
    path = tmp_path / "input.json"
    write(path)
    proc = _cli_process(command, "--input", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_galerkin_over_memory_budget_exits_2_without_traceback():
    """A random frame couples all 9261 modes of cutoff 10 into one block of order 18522."""
    proc = _cli_process(
        "spectrum", "--scenario", "random-band-limited", "--method", "galerkin", "--cutoff", "10"
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "budget" in proc.stderr


def test_failed_gate_exits_3_saying_how_far_off_and_where(tmp_path):
    """1e-3 added to one a0[0, 1] entry of a saved 8^3 Dirac operator, at flat
    index 100 (x1 fastest), which is grid point (4, 4, 1)."""
    path = tmp_path / "op.json"
    dw.save_operator(dw.dirac_operator(dw.standard_frame(8)), str(path))
    doc = _loads(path.read_text())

    def nudge(a0):
        a0[100, 0, 1, 0] += 1e-3
        return a0

    _edit_array(doc, "a0", nudge)
    path.write_text(json.dumps(doc))
    proc = _cli_process("check-dirac", "--input", str(path))
    assert proc.returncode == 3 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
    for words in ("self-adjoint", "measured 1.000e-03", "bound 1e-10", "grid point (4, 4, 1)"):
        assert words in proc.stderr, proc.stderr


def test_under_resolved_frame_exits_3_asking_for_a_finer_grid():
    """A random frame at amplitude 0.01 misses the self-adjointness gate at 16^3."""
    proc = _cli_process("check-dirac", "--scenario", "random-band-limited", "--amplitude", "0.01",
                        "--grid", "16")
    assert proc.returncode == 3 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
    for words in ("self-adjoint", "not resolved on the 16^3 grid", "of p's", "finer grid"):
        assert words in proc.stderr, proc.stderr


def test_check_dirac_accepts_a_curved_dirac_operator(curved_frame, tmp_path):
    path = tmp_path / "curved.json"
    dw.save_operator(dw.dirac_operator(curved_frame), str(path))
    proc = _cli_process("check-dirac", "--input", str(path))
    assert proc.returncode == 0, proc.stderr
    assert _loads(proc.stdout)["is_dirac"] is True
