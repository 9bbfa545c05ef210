"""Tests for the command-line interface: formats, round-trips, exit codes."""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SHOWCASE, pumped_kernel
from mosquito_allee import (
    InvarianceReport,
    Params,
    State,
    check_adult_bound,
    check_sum_identity,
    derived_constants,
    find_fixed_points,
    iterate,
)
from mosquito_allee import cli, dynamics
from mosquito_allee.cli import (
    EXIT_CONFIG,
    EXIT_FALSIFIED,
    EXIT_IO,
    EXIT_OK,
    main,
    report_to_json,
)

SHOWCASE_ARGS = ["--alpha", "0.8", "--beta", "0.9", "--gamma", "2.0", "--mu", "0.4"]

# CLI stdout, byte for byte; a change to these files changes an output contract
GOLDEN = Path(__file__).parent / "golden"


def test_simulate_csv_stdout_round_trips(capsys):
    code = main(["simulate", *SHOWCASE_ARGS, "--x0", "0.2", "--y0", "4.0", "--budget", "400"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "n,x,y"
    summary = lines[-1]
    assert summary.startswith("verdict=extinction iterations=277 ")
    assert "certificate=empirical" in summary

    trajectory = iterate(SHOWCASE, State(0.2, 4.0), 400)
    rows = lines[1:-1]
    assert len(rows) == len(trajectory.points)
    for row, index, point in zip(rows, trajectory.indices, trajectory.points):
        n_str, x_str, y_str = row.split(",")
        assert int(n_str) == index
        assert float(x_str) == point.x  # 17 significant digits are lossless
        assert float(y_str) == point.y


def test_simulate_format_option_is_a_usage_error(capsys):
    # CSV is the one trajectory format
    code = main(
        ["simulate", *SHOWCASE_ARGS, "--x0", "0.2", "--y0", "4.0", "--budget", "50", "--format", "json"]
    )
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == ["error: unrecognized arguments: --format json"]


def test_simulate_growth_summary_reports_limit(capsys):
    code = main(["simulate", *SHOWCASE_ARGS, "--x0", "5.0", "--y0", "2.0", "--budget", "100000"])
    assert code == EXIT_OK
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert "verdict=unbounded" in summary
    assert "certificate=thm2-omega2" in summary
    assert "y_limit_estimate=" in summary
    estimate = float(summary.split("y_limit_estimate=")[1].split()[0])
    assert abs(estimate - 2.0) <= 1e-6


def test_simulate_summary_omits_an_overflowing_estimate(capsys):
    # y*(1+x) overflows at the start, where the fate stops on its Omega2 certificate
    code = main(["simulate", *SHOWCASE_ARGS, "--x0", "1e200", "--y0", "1e200", "--budget", "2000"])
    assert code == EXIT_OK
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary.startswith("verdict=unbounded iterations=0 ")
    assert "certificate=thm2-omega2" in summary
    assert "y_limit_estimate=" not in summary


def test_simulate_writes_file(tmp_path, capsys):
    out_file = tmp_path / "trajectory.csv"
    code = main(
        ["simulate", *SHOWCASE_ARGS, "--x0", "0.2", "--y0", "4.0", "--budget", "400", "--out", str(out_file)]
    )
    assert code == EXIT_OK
    text = out_file.read_text()
    assert text.startswith("n,x,y\n")
    assert len(text.strip().splitlines()) == 301  # header + 300 recorded states
    # summary still goes to stdout
    assert "verdict=extinction" in capsys.readouterr().out


def test_simulate_matches_golden_summary_and_csv(tmp_path, capsys):
    # the showcase growth start at budget 1e5: the arguments CI runs
    out_file = tmp_path / "simulate_showcase.csv"
    argv = ["simulate", "--alpha", "0.8", "--beta", "0.9", "--gamma", "2", "--mu", "0.4"]
    assert main([*argv, "--x0", "0.2", "--y0", "5", "--budget", "100000", "--out", str(out_file)]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / "simulate_showcase.txt").read_bytes()
    digest, name = (GOLDEN / "simulate_showcase.sha256").read_text().split()
    assert name == out_file.name
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


def _as_json_reads(value):
    """``value`` as JSON reads it back: tuples as lists and str enums as their values."""
    if isinstance(value, dict):
        return {key: _as_json_reads(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_json_reads(item) for item in value]
    return value.value if isinstance(value, enum.Enum) else value


def _report_fields(report, params) -> dict:
    """The report's fields, in declaration order, laid out as the fixed-point JSON lays them out."""
    fields = dataclasses.asdict(report)
    fields["origin"]["eigenvalues"] = fields.pop("origin_eigenvalues")
    fields["thresholds"] = dataclasses.asdict(derived_constants(params))
    return _as_json_reads(fields)


def test_fixed_points_schema_and_round_trip(capsys):
    code = main(["fixed-points", *SHOWCASE_ARGS])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"regime", "origin", "interior", "analysis", "thresholds"}
    assert payload["regime"] == "two-fixed-points"
    assert payload["origin"]["stability"] == "attracting"
    assert payload["origin"]["eigenvalues"] == [1.0 - 0.8, 0.6]
    assert payload["interior"]["stability"] == "saddle"
    assert abs(payload["interior"]["location"]["x"] - 4.0) <= 1e-12
    assert payload["interior"]["location"]["y"] == 1.6
    assert abs(payload["analysis"]["alpha1"] - 2.56) <= 1e-9
    assert abs(payload["analysis"]["alpha2"] - 0.16) <= 1e-9
    assert payload["thresholds"] == {
        "threshold_beta": 0.8,
        "y_limit": 2.0,
        "allee_threshold_gamma": 2.4999999999999996,
    }
    # JSON floats use repr, so the parsed fields are bit-identical
    assert repr(payload) == repr(_report_fields(find_fixed_points(SHOWCASE), SHOWCASE))


def test_fixed_points_origin_only_nulls(capsys):
    code = main(["fixed-points", "--alpha", "0.8", "--beta", "0.7", "--gamma", "2.0", "--mu", "0.4"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "origin-only"
    assert payload["interior"] is None
    assert payload["analysis"] is None
    assert payload["thresholds"]["allee_threshold_gamma"] is not None


def test_threshold_past_an_overflowing_intermediate(capsys):
    # gamma*mu/alpha = 1e313 overflows, but the threshold mu*(1 + 1e313) does not
    args = ["--alpha", "1e-10", "--gamma", "1e308", "--mu", "1e-5"]
    assert main(["fixed-points", *args, "--beta", "1e300"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "origin-only"
    assert payload["thresholds"]["threshold_beta"] == 1.0000000000000002e308
    # above it, the interior point exists and simulate answers
    assert main(["simulate", *args, "--beta", "1.5e308", "--x0", "1", "--y0", "1", "--budget", "100"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1].startswith("verdict=unbounded iterations=100 ")


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["fixed-points", *SHOWCASE_ARGS], "fixed_points_showcase.json"),
        (["fixed-points", "--alpha", "0.8", "--beta", "0.7", "--gamma", "2.0", "--mu", "0.4"],
         "fixed_points_origin_only.json"),
        (["check", *SHOWCASE_ARGS, "--samples", "2000", "--seed", "7"], "check_showcase.txt"),
    ],
)
def test_stdout_matches_golden_bytes(argv, golden, capsys):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


def test_check_after_another_set_matches_golden_bytes(capsys):
    # the same seed and sample count, so the second check reuses the first one's draws
    draws = ["--samples", "2000", "--seed", "7"]
    assert main(["check", "--alpha", "0.5", "--beta", "3", "--gamma", "1", "--mu", "0.5", *draws]) == EXIT_OK
    capsys.readouterr()
    assert main(["check", *SHOWCASE_ARGS, *draws]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / "check_showcase.txt").read_bytes()


_rate = st.floats(0.05, 1.0)


@st.composite
def _params_either_regime(draw) -> Params:
    """Either regime: beta at 20%..95% of the existence threshold or 5%..300% above it."""
    alpha, mu, gamma = draw(_rate), draw(_rate), draw(st.floats(0.1, 5.0))
    threshold = mu * (1.0 + gamma * mu / alpha)
    factor = draw(st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0)))
    return Params(alpha=alpha, beta=threshold * factor, gamma=gamma, mu=mu)


@settings(max_examples=200, deadline=None)
@given(params=_params_either_regime())
def test_report_json_round_trips(params):
    report = find_fixed_points(params)
    assert repr(json.loads(report_to_json(report, params))) == repr(_report_fields(report, params))


def test_basin_csv_contents(capsys):
    code = main(
        [
            "basin", *SHOWCASE_ARGS,
            "--x-min", "0.2", "--x-max", "7", "--y-min", "0.2", "--y-max", "5",
            "--nx", "2", "--ny", "2", "--budget", "100000",
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x0,y0,verdict,iterations"
    parsed = [line.split(",") for line in lines[1:]]
    assert [(row[0], row[1], row[2]) for row in parsed] == [
        ("0.20000000000000001", "0.20000000000000001", "extinction"),
        ("7", "0.20000000000000001", "unbounded"),
        ("0.20000000000000001", "5", "unbounded"),
        ("7", "5", "unbounded"),
    ]
    assert all(int(row[3]) > 0 for row in parsed)


def test_basin_deterministic_across_runs_and_workers(tmp_path, capsys):
    args = [
        "basin", *SHOWCASE_ARGS,
        "--x-min", "0.2", "--x-max", "7", "--y-min", "0.2", "--y-max", "5",
        "--nx", "3", "--ny", "3", "--budget", "20000",
    ]
    paths = [tmp_path / f"basin_{i}.csv" for i in range(3)]
    assert main([*args, "--workers", "1", "--out", str(paths[0])]) == EXIT_OK
    assert main([*args, "--workers", "2", "--out", str(paths[1])]) == EXIT_OK
    assert main([*args, "--workers", "2", "--out", str(paths[2])]) == EXIT_OK
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    # a tally summary is printed when writing to a file
    tally = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("cells=9 ") for line in tally)


@pytest.mark.parametrize("chunk_cells", [1, 5, 7])
def test_basin_csv_does_not_depend_on_its_chunks(tmp_path, monkeypatch, chunk_cells):
    # 5 cells per chunk is one y-row of 5 cells, 7 is still one, and 1 cell is less than a row
    args = [
        "basin", *SHOWCASE_ARGS,
        "--x-min", "0", "--x-max", "7", "--y-min", "0", "--y-max", "5",
        "--nx", "5", "--ny", "4", "--budget", "2000",
    ]
    whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
    assert main([*args, "--out", str(whole)]) == EXIT_OK
    monkeypatch.setattr(cli, "_CSV_CHUNK_CELLS", chunk_cells)
    assert main([*args, "--out", str(chunked)]) == EXIT_OK
    assert chunked.read_bytes() == whole.read_bytes()
    assert len(whole.read_text().splitlines()) == 1 + 5 * 4


def test_check_passes_on_showcase(capsys):
    code = main(["check", *SHOWCASE_ARGS, "--samples", "2000", "--seed", "7"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all(": PASS" in line for line in lines)
    assert lines[0].startswith("invariance omega1:")
    assert lines[1].startswith("invariance omega2:")
    assert lines[2].startswith("sum identity:")
    assert lines[3].startswith("adult bound:")


def test_check_reports_falsification(monkeypatch, capsys):
    def fake_invariance(params, region, samples, seed, span=None):
        return InvarianceReport(
            region=region,
            samples=samples,
            escapes=3,
            counterexample=(State(1.0, 1.0), State(9.0, 9.0)),
        )

    monkeypatch.setattr(cli, "check_invariance", fake_invariance)
    code = main(["check", *SHOWCASE_ARGS, "--samples", "100"])
    assert code == EXIT_FALSIFIED
    out = capsys.readouterr().out
    assert "invariance omega1: FAIL" in out
    assert "counterexample" in out


def test_check_reports_identity_failure(monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "_identity_defect", lambda beta, gamma, mu, y: 1e-9 * y)
    code = main(["check", *SHOWCASE_ARGS, "--samples", "300", "--seed", "5"])
    assert code == EXIT_FALSIFIED
    report = check_sum_identity(SHOWCASE, 300, 5)
    w = report.witness
    # the first state drawn over its allowance, and that allowance
    assert capsys.readouterr().out.splitlines()[2] == (
        f"sum identity: FAIL (|residual| {report.worst_residual:.3g} > {report.tolerance:g} at "
        f"({w.x:.17g}, {w.y:.17g}))"
    )


def test_check_passes_rounding_at_large_beta(capsys):
    # the identity's terms are about 3e5 here, so its defect of about 1e-10 is rounding
    code = main(["check", "--alpha", "0.5", "--beta", "1e6", "--gamma", "1", "--mu", "0.5", "--samples", "1000"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "FAIL" not in out


def test_check_reports_adult_bound_failure(monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "_w0_xy", pumped_kernel)
    code = main(["check", *SHOWCASE_ARGS, "--samples", "40", "--seed", "1"])
    assert code == EXIT_FALSIFIED
    start, y_bad = check_adult_bound(SHOWCASE, 40, 1).violation
    assert capsys.readouterr().out.splitlines()[3] == (
        f"adult bound: FAIL (start ({start.x:.17g}, {start.y:.17g}) reached y={y_bad:.17g} above max(y0, 2))"
    )


class TestExitCodes:
    def test_out_of_regime_alpha(self, capsys):
        code = main(["fixed-points", "--alpha", "1.5", "--beta", "0.9", "--gamma", "2.0", "--mu", "0.4"])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_nonpositive_parameter(self, capsys):
        code = main(["fixed-points", "--alpha", "0.8", "--beta", "-1", "--gamma", "2.0", "--mu", "0.4"])
        assert code == EXIT_CONFIG

    def test_missing_required_flag(self, capsys):
        code = main(["simulate", *SHOWCASE_ARGS, "--x0", "1.0"])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_negative_initial_state(self, capsys):
        code = main(["simulate", *SHOWCASE_ARGS, "--x0", "-1", "--y0", "1"])
        assert code == EXIT_CONFIG

    def test_zero_budget(self, capsys):
        code = main(["simulate", *SHOWCASE_ARGS, "--x0", "1", "--y0", "1", "--budget", "0"])
        assert code == EXIT_CONFIG

    def test_zero_area_basin(self, capsys):
        code = main(
            [
                "basin", *SHOWCASE_ARGS,
                "--x-min", "1", "--x-max", "1", "--y-min", "0", "--y-max", "1",
                "--nx", "2", "--ny", "2",
            ]
        )
        assert code == EXIT_CONFIG

    def test_oversized_basin(self, capsys):
        code = main(
            [
                "basin", *SHOWCASE_ARGS,
                "--x-min", "0", "--x-max", "1", "--y-min", "0", "--y-max", "1",
                "--nx", "100000", "--ny", "100000", "--budget", "1",
            ]
        )
        assert code == EXIT_CONFIG
        assert "exceeds the maximum" in capsys.readouterr().err

    def test_invalid_span(self, capsys):
        code = main(["check", *SHOWCASE_ARGS, "--span", "0"])
        assert code == EXIT_CONFIG

    def test_check_needs_interior_point(self, capsys):
        code = main(["check", "--alpha", "0.8", "--beta", "0.7", "--gamma", "2.0", "--mu", "0.4"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--samples", "0"], "samples must be >= 1"),
            (["--span", "nan"], "span must be positive and finite"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
            (["--seed", "-3"], "seed must be >= 0, got -3"),
        ],
    )
    def test_check_usage_error_prints_no_report(self, extra, message, capsys):
        code = main(["check", *SHOWCASE_ARGS, *extra])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_check_overflowing_span_prints_no_report(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["check", *SHOWCASE_ARGS, "--samples", "1000", "--span", "1e300"])
        assert code == EXIT_CONFIG
        assert caught == []  # numpy's overflow warning included
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sampling span 1e+300 overflows" in captured.err

    def test_check_overflowing_adult_orbits_prints_no_report(self, capsys):
        # every adult-bound orbit is nan by step 256, which no bound catches
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            params = ["--alpha", "1", "--beta", "1e306", "--gamma", "1e10", "--mu", "1e-3"]
            code = main(["check", *params, "--samples", "100"])
        assert code == EXIT_CONFIG
        assert caught == []  # numpy's overflow warnings included
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == "error: an adult-bound orbit overflows float64 within 256 steps at these parameters"

    @pytest.mark.parametrize(
        "params",
        [
            ["--alpha", "0.8", "--beta", "0.9", "--gamma", "1e-300", "--mu", "0.4"],
            ["--alpha", "1", "--beta", "1e300", "--gamma", "1e-300", "--mu", "1"],
        ],
        ids=["beta-y-y-underflows", "fixed-point-at-zero"],
    )
    def test_check_underflowing_fixed_point_prints_no_report(self, params, capsys):
        # float64 underflow, not a counterexample to the invariance theorem
        assert main(["check", *params, "--samples", "10"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: beta*y*^2 = ") and "underflows float64's normal range" in line

    def test_check_sample_count_bounded(self, monkeypatch, capsys):
        def no_rng(seed):
            raise AssertionError("samples were drawn")

        monkeypatch.setattr("numpy.random.default_rng", no_rng)
        code = main(["check", *SHOWCASE_ARGS, "--samples", str(dynamics.MAX_SAMPLES + 1)])
        assert code == EXIT_CONFIG
        assert "exceed the maximum" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            # mu*mu underflows to 0 in derived_constants, which every command reaches
            ["fixed-points", "--alpha", "0.5", "--beta", "0.9", "--gamma", "1", "--mu", "1e-200"],
            ["simulate", "--alpha", "0.5", "--beta", "0.9", "--gamma", "1", "--mu", "1e-200", "--x0", "1", "--y0", "1"],
            ["check", "--alpha", "0.5", "--beta", "0.9", "--gamma", "1", "--mu", "1e-200", "--samples", "10"],
            [
                "basin", "--alpha", "0.5", "--beta", "0.9", "--gamma", "1", "--mu", "1e-200",
                "--x-min", "0", "--x-max", "1", "--y-min", "0", "--y-max", "1", "--nx", "2", "--ny", "2",
            ],
            # (gamma + y*)^2 underflows to 0 in the Jacobian
            ["fixed-points", "--alpha", "0.5", "--beta", "0.9", "--gamma", "1e-170", "--mu", "0.4"],
            # alpha1 comes out as 0, and alpha2 divides by it
            ["fixed-points", "--alpha", "0.5", "--beta", "1.7e308", "--gamma", "1e-20", "--mu", "1"],
            # beta*y*(2*gamma + y) and (gamma + y)^2 overflow in the Jacobian, which is then nan
            ["fixed-points", "--alpha", "0.5", "--beta", "1e300", "--gamma", "1e300", "--mu", "0.5"],
            # the interior point (2, 6.7e-6) exists past a threshold whose gamma*mu/alpha overflows;
            # its Jacobian entry overflows as above
            ["fixed-points", "--alpha", "1e-10", "--beta", "1.5e308", "--gamma", "1e308", "--mu", "1e-5"],
        ],
        ids=[
            "fixed-points-mu", "simulate-mu", "check-mu", "basin-mu",
            "fixed-points-gamma", "fixed-points-beta", "fixed-points-jacobian-overflow",
            "fixed-points-threshold-intermediate",
        ],
    )
    def test_float64_range_is_a_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "outside float64 range" in line

    def test_unwritable_output_path(self, capsys):
        code = main(["fixed-points", *SHOWCASE_ARGS, "--out", "/nonexistent-dir/report.json"])
        assert code == EXIT_IO
        assert "cannot write output" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mosquito_allee.cli", "fixed-points", *SHOWCASE_ARGS],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["regime"] == "two-fixed-points"


def test_simulate_leaves_numpy_unloaded(tmp_path):
    # a fresh interpreter: this one has loaded numpy already. simulate and
    # fixed-points need no arrays; basin loads numpy when it runs
    probe = f"""
import sys
from mosquito_allee.cli import main
args = {SHOWCASE_ARGS!r}
out = {str(tmp_path / "out.txt")!r}
for x0, y0 in (("0.2", "5.0"), ("1.0", "1.0")):  # a growth start, then an extinction start
    assert main(["simulate", *args, "--x0", x0, "--y0", y0, "--budget", "1000", "--out", out]) == 0
print("numpy" in sys.modules)
assert main(["fixed-points", *args, "--out", out]) == 0
print("numpy" in sys.modules)
grid = ["--x-min", "0", "--x-max", "7", "--y-min", "0", "--y-max", "5", "--nx", "3", "--ny", "3"]
assert main(["basin", *args, *grid, "--budget", "1000", "--out", out]) == 0
print("numpy" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("verdict=unbounded ")
    assert lines[1].startswith("verdict=extinction ")
    assert lines[2] == "False"
    assert lines[3] == "False"
    assert lines[4].startswith("cells=9 ")
    assert lines[5] == "True"
