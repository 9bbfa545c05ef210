"""The scripts write the same bytes as the CLI commands they mirror, and
report with the CLI's summary line, error lines and exit codes."""

from __future__ import annotations

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from mosquito_allee.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reproduce_trajectories.py"
SHOWCASE_ARGS = ["--alpha", "0.8", "--beta", "0.9", "--gamma", "2", "--mu", "0.4"]


def _run_script(*args: str) -> subprocess.CompletedProcess:
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_reproduce_trajectories_matches_cli(tmp_path, capsys):
    budget = 2000
    out_dir = tmp_path / "script"
    proc = _run_script("--budget", str(budget), "--out-dir", str(out_dir))
    assert proc.returncode == 0, proc.stderr

    starts = runpy.run_path(str(SCRIPT))["STARTS"]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        ["fixed_points.json"] + [f"trajectory_{name}.csv" for name in starts]
    )
    lines = proc.stdout.splitlines()
    for name, s0 in starts.items():
        cli_out = tmp_path / f"{name}.csv"
        args = ["--x0", repr(s0.x), "--y0", repr(s0.y), "--budget", str(budget), "--out", str(cli_out)]
        assert main(["simulate", *SHOWCASE_ARGS, *args]) == EXIT_OK
        assert (out_dir / f"trajectory_{name}.csv").read_bytes() == cli_out.read_bytes()
        # the start's name and coordinates, then the CLI's summary line
        summary = capsys.readouterr().out
        assert f"{name}: start ({s0.x}, {s0.y}) {summary.rstrip()}" in lines

    cli_out = tmp_path / "fixed_points.json"
    assert main(["fixed-points", *SHOWCASE_ARGS, "--out", str(cli_out)]) == EXIT_OK
    assert (out_dir / "fixed_points.json").read_bytes() == cli_out.read_bytes()


def test_reproduce_trajectories_refuses_parameters_out_of_range(tmp_path):
    out_dir = tmp_path / "script"
    proc = _run_script("--alpha", "1.5", "--out-dir", str(out_dir))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == ""
    assert proc.stderr == "error: alpha must be in (0, 1], got 1.5\n"
    assert not out_dir.exists()


# the existence threshold's denominator rounds to 0, and mu*mu underflows
REPORT_ERRORS = {
    "crash-set": (
        ["--alpha", "0.4060172786217775", "--beta", "0.6523125203403398"]
        + ["--gamma", "0.2383817077263435", "--mu", "0.5034810722044961"],
        "error: existence threshold passed but alpha*(beta-mu) - gamma*mu^2 = 0.0 <= 0\n",
    ),
    "mu-mu-underflows": (
        ["--alpha", "0.8", "--beta", "0.9", "--gamma", "2", "--mu", "1e-200"],
        "error: a quantity derived from these parameters is outside float64 range (float division by zero)\n",
    ),
}


@pytest.mark.parametrize("args, stderr", REPORT_ERRORS.values(), ids=REPORT_ERRORS.keys())
def test_reproduce_trajectories_reports_a_failed_report_as_a_usage_error(tmp_path, capsys, args, stderr):
    out_dir = tmp_path / "script"
    proc = _run_script(*args, "--out-dir", str(out_dir))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == ""
    assert proc.stderr == stderr
    assert not out_dir.exists()
    # the CLI's fixed-points reports the same line
    assert main(["fixed-points", *args]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", stderr)


def test_reproduce_trajectories_reports_an_unwritable_directory_as_an_io_error(tmp_path):
    # as the CLI does: exit 2 and one error line, with no traceback and no directory made
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    proc = _run_script("--budget", "10", "--out-dir", str(blocker / "script"))
    assert proc.returncode == EXIT_IO
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: cannot write output: ") and str(blocker / "script") in line
    assert sorted(tmp_path.iterdir()) == [blocker]
