"""Command-line entry points, exercised through main()."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracweyl as dw
from diracweyl.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_decode_standard_scenario(capsys):
    code, report = _run(capsys, "decode", "--scenario", "standard-torus", "--grid", "8")
    assert code == 0
    assert report["charge"] == 1
    assert report["config"]["command"] == "decode"
    assert report["config"]["version"] == dw.__version__
    assert abs(report["metric"]["volume"] - (2 * np.pi) ** 3) < 1e-8
    assert all(v < 1e-10 for v in report["torsion"]["route_residuals"].values())


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

    def test_scalar_shift_fails(self, capsys):
        code, report = _run(
            capsys, "check-dirac", "--scenario", "dirac-plus-scalar", "--q", "0.3", "--grid", "8"
        )
        assert code == 1
        assert report["is_dirac"] is False
        assert abs(report["cond_b_residual"] - 0.3 / (2 * np.pi**2)) < 1e-9

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
        code, report = _run(
            capsys, "spectrum", "--scenario", "twisted-torus", "--k3", "1", "--lambda-max", "2"
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


def test_nyquist_violation_exit_code(capsys):
    code = main(
        ["spectrum", "--scenario", "twisted-torus", "--k3", "4", "--grid", "8",
         "--method", "galerkin", "--cutoff", "3"]
    )
    assert code == 3
    assert "Nyquist" in capsys.readouterr().err


def test_report_written_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _ = _run(
        capsys, "decode", "--scenario", "standard-torus", "--grid", "8", "--out", str(out)
    )
    assert code == 0
    assert json.loads(out.read_text())["charge"] == 1


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
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_wrong_source_or_unread_flag_exits_2(case, tmp_path, capsys):
    path = tmp_path / "op.json"
    dw.save_operator(dw.dirac_plus_scalar(dw.standard_frame(8), 0.3), str(path))
    code = main([str(path) if a == "OP" else a for a in REFUSED[case]])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith("error: ")


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


# --- the input boundary ------------------------------------------------------

def _truncated_operator(path):
    dw.save_operator(dw.dirac_operator(dw.standard_frame(8)), str(path))
    doc = json.loads(path.read_text())
    doc["a0"] = doc["a0"][: len(doc["a0"]) // 2]
    path.write_text(json.dumps(doc))


MALFORMED = {
    "wrong-length-array": ("decode", _truncated_operator),
    "missing-path": ("check-dirac", lambda path: None),
    "not-json": ("asymptotics", lambda path: path.write_text("sigma = [[0, 1], [1, 0]]\n")),
}


def _cli_process(*argv):
    src = str(Path(dw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "diracweyl.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


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


def test_check_dirac_accepts_a_curved_dirac_operator(curved_frame, tmp_path):
    path = tmp_path / "curved.json"
    dw.save_operator(dw.dirac_operator(curved_frame), str(path))
    proc = _cli_process("check-dirac", "--input", str(path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["is_dirac"] is True
