#!/usr/bin/env python3
"""Reproduce the four reference trajectories and the fixed-point report.

At alpha=0.8, beta=0.9, gamma=2, mu=0.4 the model has its interior fixed
point at (4, 1.6), and the four starts below bracket it: two collapse to
the origin, two grow without bound with adults approaching alpha/mu = 2.
Writes one CSV per start plus a JSON fixed-point report, and prints the
verdict summary for each run.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from mosquito_allee import (
    ConfigurationError,
    DomainError,
    InternalConsistencyError,
    Params,
    State,
    find_fixed_points,
    simulate,
)
from mosquito_allee.cli import EXIT_CONFIG, report_to_json, trajectory_to_csv

STARTS = {
    "high_adults_collapse": State(0.2, 4.0),
    "high_adults_growth": State(0.2, 5.0),
    "low_adults_collapse": State(5.6, 0.2),
    "low_adults_growth": State(7.0, 0.2),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=0.8)
    parser.add_argument("--beta", type=float, default=0.9)
    parser.add_argument("--gamma", type=float, default=2.0)
    parser.add_argument("--mu", type=float, default=0.4)
    parser.add_argument("--budget", type=int, default=10**6, help="iteration budget per start")
    parser.add_argument("--out-dir", default="results", help="directory for CSV/JSON output")
    args = parser.parse_args()

    # the parameters, the report and its JSON are settled before any
    # output directory is made; their errors are usage errors, as in the CLI
    try:
        params = Params(alpha=args.alpha, beta=args.beta, gamma=args.gamma, mu=args.mu)
        report = find_fixed_points(params)
        report_json = report_to_json(report, params)
    except (ConfigurationError, DomainError, InternalConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"error: a quantity derived from these parameters is outside float64 range ({exc})", file=sys.stderr)
        return EXIT_CONFIG
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
        line = (
            f"{name}: start ({s0.x}, {s0.y}) -> {outcome.verdict.value} "
            f"after {outcome.iterations_used} iterations"
        )
        if outcome.y_limit_estimate is not None:
            line += f", adult limit ~ {outcome.y_limit_estimate:.9f}"
        if outcome.theorem_tag is not None:
            line += f" [{outcome.theorem_tag.value}]"
        print(line)
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
