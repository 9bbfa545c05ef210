"""Command-line front end: simulate, fixed-points, basin, check.

All numeric output is machine-readable: trajectory and basin data as
CSV (floats at 17 significant digits, losslessly re-parseable),
fixed-point reports as JSON.  Exit codes: 0 success, 1 configuration
error, 2 I/O error, 3 property falsified by sampling.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections.abc import Iterable, Iterator

from .dynamics import (
    DEFAULT_BUDGET,
    BasinGrid,
    Region,
    Trajectory,
    Verdict,
    basin_scan,
    check_adult_bound,
    check_invariance,
    check_sum_identity,
    simulate,
)
from .errors import ConfigurationError, DomainError, InternalConsistencyError
from .model import Params, State, derived_constants
from .stability import FixedPointReport, find_fixed_points

__all__ = [
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_IO",
    "EXIT_FALSIFIED",
    "build_parser",
    "trajectory_to_csv",
    "report_to_dict",
    "report_to_json",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_FALSIFIED = 3


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1 (config error), not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    shared.add_argument("--alpha", type=float, required=True, help="emergence rate, in (0,1]")
    shared.add_argument("--beta", type=float, required=True, help="saturated birth rate, > 0")
    shared.add_argument("--gamma", type=float, required=True, help="Allee constant, > 0")
    shared.add_argument("--mu", type=float, required=True, help="adult death rate, in (0,1]")

    parser = _Parser(
        prog="mosquito-allee",
        description=(
            "Discrete-time two-stage mosquito population model with a "
            "mate-finding Allee effect: trajectories, fixed points, "
            "invariant regions, and basin scans."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate",
        parents=[shared],
        help="iterate one initial condition and classify its fate",
    )
    p_sim.add_argument("--x0", type=float, required=True, help="initial larvae density, >= 0")
    p_sim.add_argument("--y0", type=float, required=True, help="initial adult density, >= 0")
    p_sim.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="iteration budget")
    p_sim.add_argument("--out", default=None, help="output path (default: stdout)")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_fp = sub.add_parser(
        "fixed-points",
        parents=[shared],
        help="report fixed points, stability, and thresholds as JSON",
    )
    p_fp.add_argument("--out", default=None, help="output path (default: stdout)")
    p_fp.set_defaults(handler=_cmd_fixed_points)

    p_basin = sub.add_parser(
        "basin",
        parents=[shared],
        help="classify a grid of initial conditions",
    )
    p_basin.add_argument("--x-min", type=float, required=True)
    p_basin.add_argument("--x-max", type=float, required=True)
    p_basin.add_argument("--y-min", type=float, required=True)
    p_basin.add_argument("--y-max", type=float, required=True)
    p_basin.add_argument("--nx", type=int, required=True, help="grid points along x, >= 2")
    p_basin.add_argument("--ny", type=int, required=True, help="grid points along y, >= 2")
    p_basin.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="iteration budget per cell")
    p_basin.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p_basin.add_argument("--out", default=None, help="output path (default: stdout)")
    p_basin.set_defaults(handler=_cmd_basin)

    p_check = sub.add_parser(
        "check",
        parents=[shared],
        help="sample-test invariance, the total-population identity, and the adult bound",
    )
    p_check.add_argument("--samples", type=int, default=10000, help="samples per property")
    p_check.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_check.add_argument(
        "--span",
        type=float,
        default=None,
        help="upper-region sampling window size (default: 10*max(x*, y*))",
    )
    p_check.set_defaults(handler=_cmd_check)
    return parser


def _write_chunks(path: str | None, chunks: Iterable[str]) -> None:
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def report_to_dict(report: FixedPointReport, params: Params) -> dict:
    """The report's fields, with the origin's eigenvalues inside ``origin``
    and ``derived_constants(params)`` as ``thresholds``.  Enum members stay:
    they are ``str`` enums, which JSON writes as their values."""
    payload = dataclasses.asdict(report)
    payload["origin"]["eigenvalues"] = payload.pop("origin_eigenvalues")
    payload["thresholds"] = dataclasses.asdict(derived_constants(params))
    return payload


def report_to_json(report: FixedPointReport, params: Params) -> str:
    import json

    return json.dumps(report_to_dict(report, params), indent=2) + "\n"


def trajectory_to_csv(trajectory: Trajectory) -> str:
    # a State holds floats, so this is _fmt's text without its two calls a row
    rows = (f"{i},{s.x:.17g},{s.y:.17g}\n" for i, s in zip(trajectory.indices, trajectory.points))
    return "n,x,y\n" + "".join(rows)


def _cmd_simulate(params: Params, args) -> int:
    trajectory, outcome = simulate(params, State(args.x0, args.y0), args.budget)

    _write_chunks(args.out, (trajectory_to_csv(trajectory),))
    summary = (
        f"verdict={outcome.verdict.value}"
        f" iterations={outcome.iterations_used}"
        f" final_x={_fmt(outcome.final_state.x)}"
        f" final_y={_fmt(outcome.final_state.y)}"
        f" certificate={outcome.theorem_tag.value if outcome.theorem_tag else 'none'}"
    )
    if outcome.y_limit_estimate is not None:
        summary += f" y_limit_estimate={_fmt(outcome.y_limit_estimate)}"
    print(summary)
    return EXIT_OK


def _cmd_fixed_points(params: Params, args) -> int:
    report = find_fixed_points(params)
    _write_chunks(args.out, (report_to_json(report, params),))
    return EXIT_OK


# cells per chunk of basin CSV rows: about 0.5 MB of text
_CSV_CHUNK_CELLS = 8192


def _basin_csv(grid: BasinGrid) -> Iterator[str]:
    """The basin CSV of ``grid``, in chunks of rows, y as the outer loop.

    Each grid value is formatted once; the rows are read from the
    verdict and iterations columns.
    """
    xs, ys = (list(map(_fmt, axis)) for axis in grid.axes())
    names = [v.value for v in Verdict]
    yield "x0,y0,verdict,iterations\n"
    rows_per_chunk = max(1, _CSV_CHUNK_CELLS // grid.nx)
    for lo in range(0, grid.ny, rows_per_chunk):
        cells = slice(lo * grid.nx, (lo + rows_per_chunk) * grid.nx)
        starts = [f"{x},{y}," for y in ys[lo : lo + rows_per_chunk] for x in xs]
        rows = zip(starts, grid.verdict[cells].tolist(), grid.iterations[cells].tolist())
        yield "".join([f"{start}{names[v]},{n}\n" for start, v, n in rows])


def _cmd_basin(params: Params, args) -> int:
    grid = basin_scan(
        params,
        (args.x_min, args.x_max),
        (args.y_min, args.y_max),
        args.nx,
        args.ny,
        budget=args.budget,
        workers=args.workers,
    )
    _write_chunks(args.out, _basin_csv(grid))
    if args.out is not None:
        import numpy as np

        counts = np.bincount(grid.verdict, minlength=len(Verdict)).tolist()
        present = sorted((v.value, c) for v, c in zip(Verdict, counts) if c)
        tally = " ".join(f"{name}={count}" for name, count in present)
        print(f"cells={grid.nx * grid.ny} {tally}")
    return EXIT_OK


def _cmd_check(params: Params, args) -> int:
    invariance = [
        check_invariance(params, Region.OMEGA1, args.samples, args.seed),
        check_invariance(params, Region.OMEGA2, args.samples, args.seed + 1, span=args.span),
    ]
    identity = check_sum_identity(params, args.samples, args.seed)
    bound = check_adult_bound(params, args.samples, args.seed)

    for report in invariance:
        if report.passed:
            print(f"invariance {report.region.value}: PASS ({report.samples} samples, 0 escapes)")
        else:
            before, after = report.counterexample
            print(
                f"invariance {report.region.value}: FAIL ({report.escapes} escapes; "
                f"counterexample ({_fmt(before.x)}, {_fmt(before.y)}) -> "
                f"({_fmt(after.x)}, {_fmt(after.y)}))"
            )

    if identity.passed:
        print(f"sum identity: PASS ({identity.samples} samples, max |residual| {identity.worst_residual:.3g})")
    else:
        s = identity.witness
        print(
            f"sum identity: FAIL (|residual| {identity.worst_residual:.3g} > {identity.tolerance:g} at "
            f"({_fmt(s.x)}, {_fmt(s.y)}))"
        )

    if bound.passed:
        print(f"adult bound: PASS ({bound.starts} trajectories, horizon {bound.horizon})")
    else:
        start, y_bad = bound.violation
        print(
            f"adult bound: FAIL (start ({_fmt(start.x)}, {_fmt(start.y)}) reached y={_fmt(y_bad)} "
            f"above max(y0, {_fmt(bound.y_limit)}))"
        )

    passed = all(report.passed for report in (*invariance, identity, bound))
    return EXIT_OK if passed else EXIT_FALSIFIED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_CONFIG

    try:
        params = Params(alpha=args.alpha, beta=args.beta, gamma=args.gamma, mu=args.mu)
        params.require_analysis_valid()
        return args.handler(params, args)
    except (ConfigurationError, DomainError, InternalConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        # e.g. mu*mu or (gamma + y)^2 underflowing to 0 and then divided by
        print(f"error: a quantity derived from these parameters is outside float64 range ({exc})", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
