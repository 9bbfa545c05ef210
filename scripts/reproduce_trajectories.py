#!/usr/bin/env python3
"""Reproduce the four reference trajectories and the fixed-point report.

At alpha=0.8, beta=0.9, gamma=2, mu=0.4 the model has its interior fixed
point at (4, 1.6), and the four starts below bracket it: two collapse to
the origin, two grow without bound with adults approaching alpha/mu = 2.
Writes one CSV per start plus a JSON fixed-point report, and prints each
start's name and coordinates before the ``simulate`` command's verdict
summary.  Errors and exit codes are the command line's.
"""

from __future__ import annotations

import argparse
import pathlib

from mosquito_allee import Params, State, find_fixed_points, simulate
from mosquito_allee.cli import report_to_json, run, summary_line, trajectory_to_csv

STARTS = {
    "high_adults_collapse": State(0.2, 4.0),
    "high_adults_growth": State(0.2, 5.0),
    "low_adults_collapse": State(5.6, 0.2),
    "low_adults_growth": State(7.0, 0.2),
}


def reproduce(args) -> int:
    # the parameters, the report and its JSON are settled before any
    # output directory is made
    params = Params(alpha=args.alpha, beta=args.beta, gamma=args.gamma, mu=args.mu)
    report = find_fixed_points(params)
    report_json = report_to_json(report, params)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    (out_dir / "fixed_points.json").write_text(report_json, encoding="utf-8", newline="")
    print(f"regime: {report.regime.value}")
    if report.interior is not None:
        loc = report.interior.location
        print(f"interior fixed point: ({loc.x!r}, {loc.y!r}) [{report.interior.stability.value}]")

    for name, s0 in STARTS.items():
        trajectory, outcome = simulate(params, s0, args.budget)
        path = out_dir / f"trajectory_{name}.csv"
        path.write_text(trajectory_to_csv(trajectory), encoding="utf-8", newline="")
        print(f"{name}: start ({s0.x}, {s0.y}) {summary_line(outcome)}")
        print(f"  wrote {path}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=0.8)
    parser.add_argument("--beta", type=float, default=0.9)
    parser.add_argument("--gamma", type=float, default=2.0)
    parser.add_argument("--mu", type=float, default=0.4)
    parser.add_argument("--budget", type=int, default=10**6, help="iteration budget per start")
    parser.add_argument("--out-dir", default="results", help="directory for CSV/JSON output")
    return run(reproduce, parser.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
