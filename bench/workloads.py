"""The benchmark's four workloads and the loop that runs them.

Each workload makes its inputs from the seed, runs operations through
the package's public calls or its CLI, and checks every output with
:mod:`checks`.  The seed draws one round of operations, the run repeats
that round, and the timings are taken from the least contended repeat
of each operation (see :class:`RunResult`).

Why these four:

* ``basin-growth``: library ``basin_scan`` with one worker over the
  showcase window.  Most cells are growth orbits of about 64.5k steps,
  so nearly all time is the per-step cost of ``classify_fate``.
* ``basin-wide``: CLI ``basin`` over a large origin-only grid.  Every
  orbit ends as a thm1-ii extinction within a few hundred steps, so
  per-cell costs (outcome objects, CSV formatting, memory that grows with
  the grid) carry weight: the opposite use of the ``dynamics`` layer from
  ``basin-growth``.  It runs one worker: with two, a scan needs both
  processors of a shared machine to be fast at once, and its figures
  spread too far from run to run.  The traced run times the pool.
* ``trajectory``: CLI ``simulate`` on seed-drawn starts.  It measures
  interpreter start, ``iterate`` with one ``State`` per step, the CSV
  writer, and the stepping ``simulate`` does twice.
* ``analysis``: closed-form fixed points and invariance sampling over
  seed-drawn parameter sets, with the stepping engine barely used; the
  "no change predicted" workload for stepping optimisations.  Its fixed
  inputs include a parameter set that hits a known defect (see
  :data:`checks.KNOWN_DEFECT`).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mosquito_allee.dynamics as dynamics
import mosquito_allee.stability as stability
from mosquito_allee import Params, Region, State
from mosquito_allee.cli import report_to_dict

import checks
from spans import OFF

SHOWCASE = Params(alpha=0.8, beta=0.9, gamma=2.0, mu=0.4)
ORIGIN_ONLY = Params(alpha=0.8, beta=0.7, gamma=2.0, mu=0.4)
# Near the existence threshold find_fixed_points raises
# InternalConsistencyError for this valid parameter set.
CRASH_SET = Params(
    alpha=0.4060172786217775,
    beta=0.6523125203403398,
    gamma=0.2383817077263435,
    mu=0.5034810722044961,
)

# The seed shifts a basin grid by at most this share of a cell.  A shift
# of up to a whole cell moves cells across the basin boundary and changes
# the number of long growth orbits, and with it the work per scan, by
# about 7% from seed to seed; a small shift keeps the work the same.
MAX_SHIFT = 0.01
CLI_TIMEOUT_S = 120


@dataclass
class Context:
    """Where a run executes: the checkout, a scratch directory, a tracer."""

    root: Path
    tmp: Path
    tracer: object = OFF
    cpus: tuple[int, ...] = field(default_factory=lambda: tuple(sorted(os.sched_getaffinity(0))))

    def pin(self, r: int | None) -> None:
        """Run round ``r`` on one processor; ``None`` frees all of them.

        On a shared machine one processor can run at half speed for
        seconds while the other does not, and a process tends to stay
        where it started.  Moving the rounds across the processors in
        turn lets every run see each of them.  CLI children inherit the
        pin.
        """
        os.sched_setaffinity(0, set(self.cpus) if r is None else {self.cpus[r % len(self.cpus)]})

    @property
    def env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(self.root / "src"))


def param_args(p: Params) -> list[str]:
    return ["--alpha", repr(p.alpha), "--beta", repr(p.beta), "--gamma", repr(p.gamma), "--mu", repr(p.mu)]


def run_cli(ctx: Context, args: list[str], name: str) -> subprocess.CompletedProcess:
    """One ``mosquito-allee`` invocation in a fresh interpreter, as a span."""
    with ctx.tracer.span(name) as s:
        proc = subprocess.run(
            [sys.executable, "-m", "mosquito_allee.cli", *args],
            env=ctx.env,
            cwd=ctx.root,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        s.attrs["returncode"] = proc.returncode
    return proc


def exit_problems(proc: subprocess.CompletedProcess) -> list[str]:
    if proc.returncode == 0:
        return []
    last = proc.stderr.strip().splitlines()[-1:] or [""]
    return [f"exit code {proc.returncode}: {last[0][:200]}"]


def shifted_axes(lo_hi_x, lo_hi_y, nx, ny, shift):
    """Grid ranges moved by ``shift`` (a share of a cell) along each axis."""
    (x_lo, x_hi), (y_lo, y_hi) = lo_hi_x, lo_hi_y
    dx = (x_hi - x_lo) / (nx - 1) * shift[0]
    dy = (y_hi - y_lo) / (ny - 1) * shift[1]
    return (x_lo + dx, x_hi + dx), (y_lo + dy, y_hi + dy)


def grid_rows(grid) -> list[tuple[float, float, str, int, str]]:
    return [
        (x0, y0, o.verdict.value, o.iterations_used, o.theorem_tag.value if o.theorem_tag else "none")
        for x0, y0, o in grid.iter_rows()
    ]


def scan_pair(ctx: Context, params: Params, x_range, y_range, nx, ny, budget) -> tuple[dict, list[str]]:
    """The same grid with 1 and 2 workers: timings for parallel efficiency.

    Returns the pair's timings and a problem if the two grids differ,
    since a scan's output must not depend on the worker count.
    """
    serial = dynamics.basin_scan(params, x_range, y_range, nx, ny, budget=budget, workers=1)
    scan_id = ctx.tracer.named("dynamics.basin_scan")[-1].id
    t0 = time.perf_counter()
    parallel = dynamics.basin_scan(params, x_range, y_range, nx, ny, budget=budget, workers=2)
    wall = time.perf_counter() - t0
    classify_s = sum(s.seconds for s in ctx.tracer.named("dynamics.classify_fate") if s.parent == scan_id)
    problems = [] if grid_rows(serial) == grid_rows(parallel) else ["basin output differs between 1 and 2 workers"]
    return {"workers": 2, "serial_classify_s": classify_s, "parallel_wall_s": wall}, problems


def grid_points(grid) -> tuple[np.ndarray, np.ndarray]:
    """The starts ``basin_scan`` uses for ``grid = (x_range, y_range, nx, ny)``."""
    x_range, y_range, nx, ny = grid
    return np.linspace(*x_range, nx), np.linspace(*y_range, ny)


class BasinGrowth:
    """Library ``basin_scan``, one worker, showcase window, seeded shift.

    The grid is scanned in 2x2 tiles, one ``basin_scan`` call each, so an
    operation lasts about 0.15 s.  On a shared machine the least
    contended of a run's repeats is steadier for a short operation: in
    five alternating pairs of runs, the whole 0.4 s scan ranged over 48%
    in ``items_per_s`` and the tiles over 14%.
    """

    name = "basin-growth"
    item = "grid cell"
    workers = 1
    params = SHOWCASE
    x_range, y_range = (0.0, 7.0), (0.0, 5.0)
    nx, ny, budget = 4, 4, 100_000
    tile = 2

    def shifted(self, seed: int):
        """The grid's ranges, moved by a seed-drawn share of a cell."""
        rng = np.random.default_rng(seed)
        shift = tuple(float(v) for v in rng.uniform(0.0, MAX_SHIFT, 2))
        return shifted_axes(self.x_range, self.y_range, self.nx, self.ny, shift)

    def inputs(self, seed: int):
        """One round: the shifted grid as ``tile`` x ``tile`` grids."""
        xs, ys = grid_points((*self.shifted(seed), self.nx, self.ny))
        t = self.tile
        return [
            ((float(xs[i]), float(xs[i + t - 1])), (float(ys[j]), float(ys[j + t - 1])), t, t)
            for j in range(0, self.ny, t)
            for i in range(0, self.nx, t)
        ]

    def items(self, grid) -> int:
        return grid[2] * grid[3]

    def run(self, grid, ctx: Context):
        return dynamics.basin_scan(self.params, *grid, budget=self.budget, workers=self.workers)

    def check(self, grid, output) -> list[str]:
        return checks.check_basin(self.params, self.budget, *grid_points(grid), grid_rows(output))

    def digest(self, output) -> str:
        return checks.digest("".join(f"{row!r}\n" for row in grid_rows(output)))

    def states(self, inputs, first_round) -> list[tuple[Params, float, float]]:
        """Starts of the grids, thinned to about a thousand."""
        out = []
        for grid in inputs:
            stride = max(1, int(math.sqrt(grid[2] * grid[3] / 1000)))
            xs, ys = grid_points(grid)
            out += [(self.params, float(x), float(y)) for y in ys[::stride] for x in xs[::stride]]
        return out

    def replay(self, ctx: Context, inputs) -> tuple[list[dict], list[str]]:
        return [], []


class BasinWide(BasinGrowth):
    """CLI ``basin`` over a large origin-only grid."""

    name = "basin-wide"
    params = ORIGIN_ONLY
    x_range, y_range = (0.0, 10.0), (0.0, 5.0)
    nx, ny, budget = 101, 51, 100_000

    def inputs(self, seed: int):
        """One round: one scan of the whole shifted grid."""
        return [(*self.shifted(seed), self.nx, self.ny)]

    def run(self, grid, ctx: Context):
        (x_lo, x_hi), (y_lo, y_hi), nx, ny = grid
        out = ctx.tmp / "basin.csv"
        out.unlink(missing_ok=True)
        proc = run_cli(
            ctx,
            [
                "basin", *param_args(self.params),
                "--x-min", repr(x_lo), "--x-max", repr(x_hi),
                "--y-min", repr(y_lo), "--y-max", repr(y_hi),
                "--nx", str(nx), "--ny", str(ny),
                "--budget", str(self.budget), "--workers", str(self.workers),
                "--out", str(out),
            ],
            "cli.basin",
        )
        return proc, out.read_text(encoding="utf-8") if out.exists() else ""

    def check(self, grid, output) -> list[str]:
        proc, text = output
        problems = exit_problems(proc)
        if problems:
            return problems
        try:
            rows = checks.parse_basin_csv(text)
        except ValueError as exc:
            return [f"unparseable basin CSV: {exc}"]
        problems = checks.check_basin(self.params, self.budget, *grid_points(grid), rows)
        counts: dict[str, int] = {}
        for row in rows:
            counts[row[2]] = counts.get(row[2], 0) + 1
        tally = f"cells={len(rows)} " + " ".join(f"{k}={counts[k]}" for k in sorted(counts))
        if proc.stdout.strip() != tally:
            problems.append(f"stdout tally {proc.stdout.strip()!r} does not match the CSV ({tally!r})")
        return problems

    def digest(self, output) -> str:
        return checks.digest(output[1])

    def replay(self, ctx: Context, inputs) -> tuple[list[dict], list[str]]:
        """The scan in process, serial and with the pool, for the layers."""
        pair, problems = scan_pair(ctx, self.params, *inputs[0], self.budget)
        return [pair], problems


class Trajectory:
    """CLI ``simulate`` on seed-drawn starts in the showcase window.

    A round is two growth starts from Omega2 and one extinction start
    from Omega1, so the median invocation is always a growth run (the
    one that uses the whole budget).
    """

    name = "trajectory"
    item = "start"
    params = SHOWCASE
    window = (7.0, 5.0)
    budget = 100_000

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        fp = stability.interior_fixed_point(self.params)
        grow = [(rng.uniform(fp.x, self.window[0]), rng.uniform(fp.y, self.window[1])) for _ in range(2)]
        die = (rng.uniform(0.0, fp.x), rng.uniform(0.0, fp.y))
        return [(float(x), float(y)) for x, y in grow + [die]]

    def items(self, start) -> int:
        return 1

    def run(self, start, ctx: Context):
        out = ctx.tmp / "trajectory.csv"
        out.unlink(missing_ok=True)
        proc = run_cli(
            ctx,
            [
                "simulate", *param_args(self.params),
                "--x0", repr(start[0]), "--y0", repr(start[1]),
                "--budget", str(self.budget), "--out", str(out),
            ],
            "cli.simulate",
        )
        return proc, out.read_text(encoding="utf-8") if out.exists() else ""

    def check(self, start, output) -> list[str]:
        proc, text = output
        problems = exit_problems(proc)
        if problems:
            return problems
        summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        return checks.check_trajectory(self.params, self.budget, start[0], start[1], text, summary)

    def digest(self, output) -> str:
        proc, text = output
        return checks.digest(text + proc.stdout)

    def states(self, inputs, first_round) -> list[tuple[Params, float, float]]:
        """The starts and the first trajectory's points."""
        points = list(inputs)
        if isinstance(first_round[0], tuple):
            rows = first_round[0][1].splitlines()[1:]
            points += [(float(x), float(y)) for _, x, y in (r.split(",") for r in rows)]
        return [(self.params, x, y) for x, y in points]

    def replay(self, ctx: Context, inputs) -> tuple[list[dict], list[str]]:
        """The library calls ``simulate`` makes, in process, for each start."""
        for x0, y0 in inputs:
            s0 = State(x0, y0)
            dynamics.iterate(self.params, s0, self.budget)
            dynamics.classify_fate(self.params, s0, self.budget)
        return [], []


@dataclass
class AnalysisOutput:
    params: Params
    report: object
    invariance: tuple = ()
    identity: tuple = ()


class Analysis:
    """Closed forms and invariance sampling over seed-drawn parameter sets.

    The sets cover the origin-only regime, the two-fixed-point regime and
    a band within a few ulps of the existence threshold
    ``beta = mu*(1 + gamma*mu/alpha)``; the known crash set is always
    first.  A round is one pass over all of them, and only whole passes
    run, so the share of failed sets repeats exactly.  The mix keeps the
    median operation inside the two-fixed-point cluster.
    """

    name = "analysis"
    item = "parameter set"
    # sets per round besides the crash set: origin-only, two fixed points,
    # near the threshold; fixed counts give every seed the same mix of work
    origin_only, two_points, band = 300, 550, 149
    band_ulps = 8
    samples = 256
    identity_ys = tuple(float(y) for y in np.linspace(0.0, 10.0, 8))

    def inputs(self, seed: int) -> list[Params]:
        rng = np.random.default_rng(seed)
        kinds = rng.permutation(np.repeat([0, 1, 2], [self.origin_only, self.two_points, self.band]))
        out = [CRASH_SET]
        for kind in kinds:
            alpha, mu, gamma = rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0), rng.uniform(0.1, 5.0)
            threshold = mu * (1.0 + gamma * mu / alpha)
            if kind == 0:
                beta = rng.uniform(0.05, threshold)
            elif kind == 1:
                beta = threshold * rng.uniform(1.05, 4.0)
            else:
                beta = threshold
                k = int(rng.integers(-self.band_ulps, self.band_ulps + 1))
                for _ in range(abs(k)):
                    beta = math.nextafter(beta, math.inf if k > 0 else 0.0)
            out.append(Params(alpha=float(alpha), beta=float(beta), gamma=float(gamma), mu=float(mu)))
        return out

    def items(self, params) -> int:
        return 1

    def run(self, params: Params, ctx: Context) -> AnalysisOutput:
        report = stability.find_fixed_points(params)
        if report.interior is None:
            return AnalysisOutput(params, report)
        invariance = tuple(
            dynamics.check_invariance(params, region, self.samples, seed)
            for seed, region in enumerate((Region.OMEGA1, Region.OMEGA2))
        )
        identity = tuple(dynamics.sum_identity_residual(params, State(1.0, y)) for y in self.identity_ys)
        return AnalysisOutput(params, report, invariance, identity)

    def check(self, params: Params, output: AnalysisOutput) -> list[str]:
        problems = checks.check_fixed_points(params, output.report)
        for inv in output.invariance:
            if not inv.passed:
                problems.append(f"{inv.region.value} not invariant: {inv.escapes} escapes, e.g. {inv.counterexample}")
        for y, residual in zip(self.identity_ys, output.identity):
            if not abs(residual) <= checks.identity_tolerance(params, y):
                problems.append(f"sum identity residual {residual!r} at y={y!r}")
        return problems

    def digest(self, output: AnalysisOutput) -> str:
        """The fixed-point JSON the CLI prints, escape counts and residuals."""
        report = json.dumps(report_to_dict(output.report, output.params), sort_keys=True)
        rest = [(inv.region.value, inv.samples, inv.escapes) for inv in output.invariance]
        return checks.digest(report + repr(rest) + repr(output.identity))

    def states(self, inputs, first_round) -> list[tuple[Params, float, float]]:
        return [
            (p, out.report.interior.location.x, out.report.interior.location.y)
            for p, out in zip(inputs, first_round)
            if isinstance(out, AnalysisOutput) and out.report.interior is not None
        ]

    def replay(self, ctx: Context, inputs) -> tuple[list[dict], list[str]]:
        return [], []


WORKLOADS = {w.name: w for w in (BasinGrowth(), BasinWide(), Trajectory(), Analysis())}


@dataclass
class Tally:
    """Operations attempted and failed.

    ``failed`` counts exceptions, nonzero exits, failed output checks and
    wrong digests.  An exception that :func:`checks.is_known_defect`
    accepts for the operation's parameter set is counted in
    ``known_defects`` instead, and still in ``error_rate``.
    """

    attempted: int = 0
    failed: int = 0
    known_defects: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str], error: BaseException | None, spec=None) -> bool:
        """Count one operation on input ``spec``; True when it failed."""
        self.attempted += 1
        if error is not None and checks.is_known_defect(error, spec):
            self.known_defects += 1
            return True
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
        if problems:
            self.fail(problems)
            return True
        return False

    def fail(self, problems: list[str], ops: int = 1) -> None:
        self.failed += ops
        self.problems.extend(problems[: max(0, 10 - len(self.problems))])

    @property
    def error_rate(self) -> float:
        return (self.failed + self.known_defects) / max(1, self.attempted)


@dataclass
class RunResult:
    """Timings of the rounds a run made.

    On a shared machine the same operation can take twice as long from
    one second to the next, because other tenants contend for the
    processors in phases of seconds.  A median over the run then reports
    how much of it fell in a slow phase.  So the figures are built from
    the least contended repeat of each operation.  Every round runs the
    very same inputs in the same order, and each position in the round,
    a slot, keeps its lowest latency over all rounds.
    """

    tally: Tally = field(default_factory=Tally)
    round_ops: list[list[float]] = field(default_factory=list)
    round_items: list[int] = field(default_factory=list)
    round_digests: list[str] = field(default_factory=list)
    first_round: list = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.round_ops)

    @property
    def op_seconds(self) -> list[float]:
        return [dt for ops in self.round_ops for dt in ops]

    @property
    def program_s(self) -> float:
        return sum(self.op_seconds)

    @property
    def slot_minima(self) -> list[float]:
        return [min(latencies) for latencies in zip(*self.round_ops)]

    @property
    def items_per_s(self) -> float:
        """Items of one round over the sum of its slots' lowest latencies."""
        return self.round_items[0] / sum(self.slot_minima)

    @property
    def op_p50_s(self) -> float:
        """Median over the slots of their lowest latency."""
        return statistics.median(self.slot_minima)


def run_rounds(
    workload, inputs, ctx: Context, seconds: float, expected=None, into=None, rounds=None, first=0, between=None
) -> RunResult:
    """Run the round ``inputs`` again and again until ``seconds`` have passed.

    With ``rounds`` it runs that many rounds instead, numbered from
    ``first``.  Every round's digest must equal the first round's, since
    the inputs are the same.  ``expected``, when given, holds the stored
    ``digest`` and ``known_defects`` of a round; a round that differs
    from it counts each of its passed operations as failed.  ``between()``
    runs before each round, untimed.  Results are added to ``into`` when
    it is given.
    """
    result = into if into is not None else RunResult()
    start = time.perf_counter()
    for r in itertools.count(first) if rounds is None else range(first, first + rounds):
        ctx.pin(r)
        if between is not None:
            between()
        op_s, items, digests, ok, known = [], 0, [], 0, result.tally.known_defects
        for i, spec in enumerate(inputs):
            ctx.tracer.op = f"{r}.{i}"
            t0 = time.perf_counter()
            try:
                output, error = workload.run(spec, ctx), None
            except Exception as exc:  # an operation that raised is counted, not fatal
                output, error = exc, exc
            op_s.append(time.perf_counter() - t0)
            items += workload.items(spec)
            if error is None:
                problems, d = workload.check(spec, output), workload.digest(output)
            else:
                problems, d = [], checks.digest(f"{type(error).__name__}: {error}")
            digests.append(d)
            ok += not result.tally.record(problems, error, spec)
            if not result.round_ops:
                result.first_round.append(output)
        known = result.tally.known_defects - known
        result.round_ops.append(op_s)
        result.round_items.append(items)
        result.round_digests.append(checks.digest("".join(digests)))
        problems = checks.check_digest(result.round_digests[-1], result.round_digests[0], "the first round's")
        if expected is not None:
            problems += checks.check_digest(result.round_digests[-1], expected["digest"], "the stored")
            if known != expected["known_defects"]:
                problems.append(f"{known} known-defect failures, stored {expected['known_defects']}")
        if problems:
            result.tally.fail([f"round {r}: {problems[0]}"], ops=ok)
        if rounds is None and time.perf_counter() - start >= seconds:
            break
    ctx.pin(None)
    return result
