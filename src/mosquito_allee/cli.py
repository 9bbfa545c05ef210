"""Command-line front end: simulate, fixed-points, basin, check.

All numeric output is machine-readable: trajectory and basin data as
CSV (floats at 17 significant digits, losslessly re-parseable) or JSON,
fixed-point reports as JSON.  Exit codes: 0 success, 1 configuration
error, 2 I/O error, 3 property falsified by sampling.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .dynamics import (
    DEFAULT_BUDGET,
    Region,
    Trajectory,
    basin_scan,
    check_invariance,
    simulate,
    sum_identity_residual,
)
from .errors import ConfigurationError, DomainError, InternalConsistencyError
from .model import Params, State, derived_constants, _w0_xy
from .stability import (
    FixedPoint,
    FixedPointReport,
    JacobianAnalysis,
    PointKind,
    Regime,
    Stability,
    find_fixed_points,
    interior_fixed_point,
)

__all__ = [
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_IO",
    "EXIT_FALSIFIED",
    "build_parser",
    "trajectory_to_csv",
    "report_to_dict",
    "report_to_json",
    "report_from_dict",
    "report_from_json",
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
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv", help="trajectory format")
    p_sim.add_argument("--out", default=None, help="output path (default: stdout)")

    p_fp = sub.add_parser(
        "fixed-points",
        parents=[shared],
        help="report fixed points, stability, and thresholds as JSON",
    )
    p_fp.add_argument("--out", default=None, help="output path (default: stdout)")

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
    return parser


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _fixed_point_dict(fp: FixedPoint, eigenvalues: tuple[float, float] | None = None) -> dict:
    payload = {
        "location": {"x": fp.location.x, "y": fp.location.y},
        "kind": fp.kind.value,
        "stability": fp.stability.value,
    }
    if eigenvalues is not None:
        payload["eigenvalues"] = [eigenvalues[0], eigenvalues[1]]
    return payload


def report_to_dict(report: FixedPointReport, params: Params) -> dict:
    constants = derived_constants(params)
    analysis = None
    if report.analysis is not None:
        a = report.analysis
        analysis = {
            "matrix": [list(row) for row in a.matrix],
            "eigenvalues": list(a.eigenvalues),
            "moduli": list(a.moduli),
            "A": a.A,
            "B": a.B,
            "Lambda1": a.Lambda1,
            "Lambda2": a.Lambda2,
            "alpha1": a.alpha1,
            "alpha2": a.alpha2,
        }
    return {
        "regime": report.regime.value,
        "origin": _fixed_point_dict(report.origin, report.origin_eigenvalues),
        "interior": None if report.interior is None else _fixed_point_dict(report.interior),
        "analysis": analysis,
        "thresholds": {
            "threshold_beta": constants.threshold_beta,
            "y_limit": constants.y_limit,
            "allee_threshold_gamma": constants.allee_threshold_gamma,
        },
    }


def _fixed_point_from_dict(payload: dict) -> FixedPoint:
    return FixedPoint(
        location=State(payload["location"]["x"], payload["location"]["y"]),
        kind=PointKind(payload["kind"]),
        stability=Stability(payload["stability"]),
    )


def report_from_dict(payload: dict) -> FixedPointReport:
    analysis = None
    if payload["analysis"] is not None:
        a = payload["analysis"]
        analysis = JacobianAnalysis(
            matrix=tuple(tuple(row) for row in a["matrix"]),
            eigenvalues=tuple(a["eigenvalues"]),
            moduli=tuple(a["moduli"]),
            A=a["A"],
            B=a["B"],
            Lambda1=a["Lambda1"],
            Lambda2=a["Lambda2"],
            alpha1=a["alpha1"],
            alpha2=a["alpha2"],
        )
    origin = payload["origin"]
    return FixedPointReport(
        regime=Regime(payload["regime"]),
        origin=_fixed_point_from_dict(origin),
        interior=None if payload["interior"] is None else _fixed_point_from_dict(payload["interior"]),
        analysis=analysis,
        origin_eigenvalues=(origin["eigenvalues"][0], origin["eigenvalues"][1]),
    )


def report_to_json(report: FixedPointReport, params: Params) -> str:
    return json.dumps(report_to_dict(report, params), indent=2) + "\n"


def report_from_json(text: str) -> FixedPointReport:
    return report_from_dict(json.loads(text))


def trajectory_to_csv(trajectory: Trajectory) -> str:
    rows = (f"{i},{_fmt(s.x)},{_fmt(s.y)}\n" for i, s in zip(trajectory.indices, trajectory.points))
    return "n,x,y\n" + "".join(rows)


def _cmd_simulate(params: Params, args) -> int:
    trajectory, outcome = simulate(params, State(args.x0, args.y0), args.budget)

    if args.format == "csv":
        _write_text(args.out, trajectory_to_csv(trajectory))
    else:
        rows = [
            {"n": i, "x": s.x, "y": s.y}
            for i, s in zip(trajectory.indices, trajectory.points)
        ]
        _write_text(args.out, json.dumps(rows, indent=2) + "\n")

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
    _write_text(args.out, report_to_json(report, params))
    return EXIT_OK


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
    lines = ["x0,y0,verdict,iterations\n"]
    counts: dict[str, int] = {}
    for x0, y0, outcome in grid.iter_rows():
        lines.append(f"{_fmt(x0)},{_fmt(y0)},{outcome.verdict.value},{outcome.iterations_used}\n")
        counts[outcome.verdict.value] = counts.get(outcome.verdict.value, 0) + 1
    _write_text(args.out, "".join(lines))
    if args.out is not None:
        tally = " ".join(f"{k}={counts[k]}" for k in sorted(counts))
        print(f"cells={grid.nx * grid.ny} {tally}")
    return EXIT_OK


def _cmd_check(params: Params, args) -> int:
    if args.samples < 1:
        raise ConfigurationError(f"--samples must be >= 1, got {args.samples}")
    if args.span is not None and not (math.isfinite(args.span) and args.span > 0):
        raise ConfigurationError(f"--span must be positive and finite, got {args.span}")
    fp = interior_fixed_point(params)
    if fp is None:
        raise ConfigurationError(
            "check requires the two-fixed-point regime (beta > mu*(1 + gamma*mu/alpha))"
        )
    constants = derived_constants(params)
    failures = 0

    for region, seed_offset, span in (
        (Region.OMEGA1, 0, None),
        (Region.OMEGA2, 1, args.span),
    ):
        report = check_invariance(params, region, args.samples, args.seed + seed_offset, span=span)
        if report.passed:
            print(f"invariance {region.value}: PASS ({report.samples} samples, 0 escapes)")
        else:
            failures += 1
            before, after = report.counterexample
            print(
                f"invariance {region.value}: FAIL ({report.escapes} escapes; "
                f"counterexample ({_fmt(before.x)}, {_fmt(before.y)}) -> "
                f"({_fmt(after.x)}, {_fmt(after.y)}))"
            )

    # identity sampling window keeps beta*y small enough that the
    # absolute 1e-12 contract is meaningful in double precision
    rng = np.random.default_rng(args.seed + 2)
    y_window = max(1.0, min(10.0 * max(constants.y_limit, fp.y), 500.0 / params.beta))
    xs = rng.uniform(0.0, 1e4, args.samples)
    ys = rng.uniform(0.0, y_window, args.samples)
    worst = -1.0
    worst_state = None
    for xv, yv in zip(xs, ys):
        state = State(float(xv), float(yv))
        residual = abs(sum_identity_residual(params, state))
        if residual > worst:
            worst = residual
            worst_state = state
    if worst <= 1e-12:
        print(f"sum identity: PASS ({args.samples} samples, max |residual| {worst:.3g})")
    else:
        failures += 1
        print(
            f"sum identity: FAIL (|residual| {worst:.3g} > 1e-12 at "
            f"({_fmt(worst_state.x)}, {_fmt(worst_state.y)}))"
        )

    # adult-density bound along trajectories: y never exceeds
    # max(y0, alpha/mu) by more than rounding
    n_starts = min(args.samples, 1000)
    horizon = 256
    rng_bound = np.random.default_rng(args.seed + 3)
    bx = rng_bound.uniform(0.0, 100.0, n_starts)
    by = rng_bound.uniform(0.0, 3.0 * constants.y_limit, n_starts)
    bounds = np.maximum(by, constants.y_limit) + 1e-12
    bound_violation = None
    cx, cy = bx.copy(), by.copy()
    for _ in range(horizon):
        cx, cy = _w0_xy(params.alpha, params.beta, params.gamma, params.mu, cx, cy)
        bad = cy > bounds
        if bad.any():
            i = int(np.argmax(bad))
            bound_violation = (float(bx[i]), float(by[i]), float(cy[i]))
            break
    if bound_violation is None:
        print(f"adult bound: PASS ({n_starts} trajectories, horizon {horizon})")
    else:
        failures += 1
        x0, y0, y_bad = bound_violation
        print(
            f"adult bound: FAIL (start ({_fmt(x0)}, {_fmt(y0)}) reached y={_fmt(y_bad)} "
            f"above max(y0, {_fmt(constants.y_limit)}))"
        )

    return EXIT_FALSIFIED if failures else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_CONFIG

    try:
        params = Params(alpha=args.alpha, beta=args.beta, gamma=args.gamma, mu=args.mu)
        params.require_analysis_valid()
        if args.command == "simulate":
            return _cmd_simulate(params, args)
        if args.command == "fixed-points":
            return _cmd_fixed_points(params, args)
        if args.command == "basin":
            return _cmd_basin(params, args)
        if args.command == "check":
            return _cmd_check(params, args)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except (ConfigurationError, DomainError, InternalConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
