"""Tests of the benchmark's output checks.

A corrupted basin row, a perturbed trajectory point or a wrong digest
must each count as a failed operation.  Run from the checkout root:

    python3 -m pytest bench/test_checks.py
"""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import workloads  # noqa: E402
from mosquito_allee import State, basin_scan, cli, find_fixed_points  # noqa: E402
from mosquito_allee.errors import InternalConsistencyError  # noqa: E402
from workloads import SHOWCASE, Context, Tally, grid_rows, run_rounds  # noqa: E402

XS, YS = [0.0, 3.5, 7.0], [0.0, 2.5, 5.0]
BUDGET = 2000


def fails(problems) -> bool:
    tally = Tally()
    tally.record(problems, None)
    return tally.failed == 1 and tally.attempted == 1


@pytest.fixture(scope="module")
def library_rows():
    grid = basin_scan(SHOWCASE, (0.0, 7.0), (0.0, 5.0), 3, 3, budget=BUDGET)
    return grid_rows(grid)


def first_proven(rows):
    """Index of the first row whose start a theorem covers."""
    return next(i for i, (x, y, *_) in enumerate(rows) if checks.proven_fate(SHOWCASE, x, y) is not None)


def test_clean_basin_passes(library_rows):
    assert checks.check_basin(SHOWCASE, BUDGET, XS, YS, library_rows) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: (r[0], r[1], "unbounded" if r[2] == "extinction" else "extinction", r[3], r[4]),
        lambda r: (r[0], r[1], r[2], r[3], "empirical"),
        lambda r: (r[0], r[1], r[2], BUDGET + 1, r[4]),
        lambda r: (math.nextafter(r[0], math.inf), r[1], r[2], r[3], r[4]),
    ],
    ids=["verdict", "certificate", "iterations", "start"],
)
def test_corrupted_basin_row_fails(library_rows, corrupt):
    rows = list(library_rows)
    i = first_proven(rows)
    rows[i] = corrupt(rows[i])
    assert fails(checks.check_basin(SHOWCASE, BUDGET, XS, YS, rows))


def test_missing_basin_row_fails(library_rows):
    assert fails(checks.check_basin(SHOWCASE, BUDGET, XS, YS, library_rows[:-1]))


def cli_basin_csv(tmp_path) -> str:
    out = tmp_path / "basin.csv"
    args = ["basin", *workloads.param_args(SHOWCASE), "--x-min", "0", "--x-max", "7", "--y-min", "0", "--y-max", "5"]
    assert cli.main(args + ["--nx", "3", "--ny", "3", "--budget", str(BUDGET), "--out", str(out)]) == 0
    return out.read_text()


def test_corrupted_cli_basin_row_fails(tmp_path, capsys):
    text = cli_basin_csv(tmp_path)
    assert checks.check_basin(SHOWCASE, BUDGET, XS, YS, checks.parse_basin_csv(text)) == []
    lines = text.splitlines(keepends=True)
    i = 1 + first_proven(checks.parse_basin_csv(text))
    x0, y0, verdict, iterations = lines[i].rstrip("\n").split(",")
    lines[i] = f"{x0},{y0},{'unbounded' if verdict == 'extinction' else 'extinction'},{iterations}\n"
    assert fails(checks.check_basin(SHOWCASE, BUDGET, XS, YS, checks.parse_basin_csv("".join(lines))))


def simulate(tmp_path, capsys, x0: float, y0: float, budget: int):
    out = tmp_path / "trajectory.csv"
    args = ["simulate", *workloads.param_args(SHOWCASE), "--x0", repr(x0), "--y0", repr(y0)]
    capsys.readouterr()
    assert cli.main(args + ["--budget", str(budget), "--out", str(out)]) == 0
    return out.read_text(), capsys.readouterr().out.strip().splitlines()[-1]


@pytest.mark.parametrize("start", [(1.0, 1.0), (5.0, 3.0)], ids=["omega1", "omega2"])
def test_clean_trajectory_passes(tmp_path, capsys, start):
    text, summary = simulate(tmp_path, capsys, *start, 3000)
    assert checks.check_trajectory(SHOWCASE, 3000, *start, text, summary) == []


@pytest.mark.parametrize("row", [1, 500, -1])
def test_perturbed_trajectory_point_fails(tmp_path, capsys, row):
    text, summary = simulate(tmp_path, capsys, 5.0, 3.0, 3000)
    lines = text.splitlines(keepends=True)
    n, x, y = lines[row].rstrip("\n").split(",")
    lines[row] = f"{n},{math.nextafter(float(x), math.inf)!r},{y}\n"
    assert fails(checks.check_trajectory(SHOWCASE, 3000, 5.0, 3.0, "".join(lines), summary))


def test_wrong_summary_verdict_fails(tmp_path, capsys):
    text, summary = simulate(tmp_path, capsys, 1.0, 1.0, 3000)
    assert fails(checks.check_trajectory(SHOWCASE, 3000, 1.0, 1.0, text, summary.replace("extinction", "unbounded")))


class TinyBasin(workloads.BasinGrowth):
    nx, ny, budget = 2, 2, 500


def test_wrong_digest_fails_the_round(tmp_path):
    tiny = TinyBasin()
    inputs = tiny.inputs(0)
    ctx = Context(ROOT, tmp_path)
    good = run_rounds(tiny, inputs, ctx, 0.0, rounds=2)
    assert good.tally.failed == 0 and good.tally.attempted == 2
    stored = {"digest": good.round_digests[0], "known_defects": 0}
    assert run_rounds(tiny, inputs, ctx, 0.0, expected=stored).tally.failed == 0
    bad = run_rounds(tiny, inputs, ctx, 0.0, expected=dict(stored, digest="0" * 64))
    assert bad.tally.failed == 1
    assert "digest" in bad.tally.problems[0]


class DriftingBasin(TinyBasin):
    """A basin workload whose output changes from one round to the next."""

    def __init__(self):
        self.round = 0

    def digest(self, grid) -> str:
        self.round += 1
        return checks.digest(str(self.round))


def test_round_that_differs_from_the_first_fails(tmp_path):
    drifting = DriftingBasin()
    run = run_rounds(drifting, drifting.inputs(0), Context(ROOT, tmp_path), 0.0, rounds=3)
    assert (run.tally.attempted, run.tally.failed) == (3, 2)
    assert "first round" in run.tally.problems[0]


def test_known_defect_counts_in_error_rate_only(tmp_path):
    analysis = workloads.Analysis()
    inputs = [workloads.CRASH_SET, SHOWCASE]
    run = run_rounds(analysis, inputs, Context(ROOT, tmp_path), 0.0)
    assert (run.tally.attempted, run.tally.failed, run.tally.known_defects) == (2, 0, 1)
    assert run.tally.error_rate == 0.5


def test_wrong_known_defect_count_fails_the_round(tmp_path):
    analysis = workloads.Analysis()
    inputs = [workloads.CRASH_SET, SHOWCASE]
    first = run_rounds(analysis, inputs, Context(ROOT, tmp_path), 0.0)
    stored = {"digest": first.round_digests[0], "known_defects": 0}
    run = run_rounds(analysis, inputs, Context(ROOT, tmp_path), 0.0, expected=stored)
    assert run.tally.failed == 1
    assert "known-defect" in run.tally.problems[0]


def test_known_defect_away_from_the_threshold_fails():
    error = InternalConsistencyError("existence threshold passed but alpha*(beta-mu) - gamma*mu^2 = 0.0 <= 0")
    near = Tally()
    near.record([], error, workloads.CRASH_SET)
    assert (near.failed, near.known_defects) == (0, 1)
    away = Tally()
    assert away.record([], error, SHOWCASE)
    assert (away.failed, away.known_defects) == (1, 0)


def test_unexpected_exception_fails():
    tally = Tally()
    assert tally.record([], ValueError("boom"))
    assert (tally.failed, tally.known_defects) == (1, 0)


@pytest.mark.parametrize(
    "move",
    [
        lambda s: State(s.x * (1 + 1e-9), s.y),
        lambda s: State(s.x, s.y * (1 + 1e-9)),
    ],
    ids=["x", "y"],
)
def test_wrong_interior_point_fails(move):
    report = find_fixed_points(SHOWCASE)
    assert checks.check_fixed_points(SHOWCASE, report) == []
    interior = dataclasses.replace(report.interior, location=move(report.interior.location))
    assert fails(checks.check_fixed_points(SHOWCASE, dataclasses.replace(report, interior=interior)))


def test_missing_interior_point_fails():
    report = find_fixed_points(SHOWCASE)
    assert fails(checks.check_fixed_points(SHOWCASE, dataclasses.replace(report, interior=None)))
