"""Output checks and digests for the benchmark's workloads.

Each ``check_*`` function returns a list of problems, empty when the
output passed.  The runner counts an operation with any problem as a
failed operation, the same as one that raised or exited nonzero.  The
checks rest on the paper's theorems and on the map itself, not on
earlier outputs: a start inside Omega1/Omega2 must carry that region's
verdict and certificate, an origin-only start with ``y0 <= alpha/mu``
must be a thm1-ii extinction, consecutive trajectory rows must be exact
images under ``step_w0``, and reported fixed points must match the
paper's closed form.
"""

from __future__ import annotations

import hashlib
import math

from mosquito_allee import (
    FixedPointReport,
    Params,
    Region,
    State,
    derived_constants,
    interior_fixed_point,
    membership,
    step_w0,
)

VERDICTS = ("extinction", "unbounded", "undetermined")
BASIN_HEADER = "x0,y0,verdict,iterations"
TRAJECTORY_HEADER = "n,x,y"
MAX_PROBLEMS = 5

# Known defect: for some valid parameter sets within a few ulps of the
# existence threshold, the two forms of the existence condition round
# differently and find_fixed_points raises instead of answering.  The
# runner counts it in error_rate and stability.find_fixed_points.errors;
# any other exception, or this one on a set away from the threshold, is
# an unexpected failure.
KNOWN_DEFECT = ("InternalConsistencyError", "alpha*(beta-mu) - gamma*mu^2")
# how close to the existence threshold, in ulps of it, the defect can occur
DEFECT_ULPS = 16


def threshold_ulps(params: Params) -> float:
    """Distance of ``beta`` from ``mu*(1 + gamma*mu/alpha)`` in ulps of the latter."""
    threshold = params.mu * (1.0 + params.gamma * params.mu / params.alpha)
    return (params.beta - threshold) / math.ulp(threshold)


def is_known_defect(error: BaseException, params=None) -> bool:
    """``error`` is the known defect, raised for a set where it can occur."""
    return (
        isinstance(params, Params)
        and abs(threshold_ulps(params)) <= DEFECT_ULPS
        and type(error).__name__ == KNOWN_DEFECT[0]
        and KNOWN_DEFECT[1] in str(error)
    )


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def check_digest(actual: str, expected: str, what: str = "the stored") -> list[str]:
    if actual == expected:
        return []
    return [f"output digest {actual[:16]} differs from {what} {expected[:16]}"]


def proven_fate(params: Params, x0: float, y0: float) -> tuple[str, str] | None:
    """Verdict and certificate a theorem fixes for this start, if any."""
    if interior_fixed_point(params) is None:
        if y0 <= derived_constants(params).y_limit:
            return ("extinction", "thm1-ii")
        return None
    region = membership(params, State(x0, y0))
    if region is Region.OMEGA1:
        return ("extinction", "thm2-omega1")
    if region is Region.OMEGA2:
        return ("unbounded", "thm2-omega2")
    return None


def parse_basin_csv(text: str) -> list[tuple[float, float, str, int, None]]:
    """Rows of a basin CSV; raises ValueError on a malformed file."""
    lines = text.splitlines()
    if not lines or lines[0] != BASIN_HEADER:
        raise ValueError(f"basin CSV header is {lines[:1]!r}, expected {BASIN_HEADER!r}")
    rows = []
    for line in lines[1:]:
        x0, y0, verdict, iterations = line.split(",")
        rows.append((float(x0), float(y0), verdict, int(iterations), None))
    return rows


def check_basin(params: Params, budget: int, xs, ys, rows) -> list[str]:
    """``rows`` holds ``(x0, y0, verdict, iterations, tag or None)``, y outer.

    The CLI's CSV carries no certificate, so its rows pass ``None`` as
    the tag and only the verdict is compared.
    """
    expected = [(float(x), float(y)) for y in ys for x in xs]
    if len(rows) != len(expected):
        return [f"basin has {len(rows)} rows, expected {len(expected)}"]
    problems: list[str] = []
    for (x, y), (x0, y0, verdict, iterations, tag) in zip(expected, rows):
        if len(problems) >= MAX_PROBLEMS:
            break
        where = f"cell ({x!r}, {y!r})"
        if (x0, y0) != (x, y):
            problems.append(f"{where}: row reports start ({x0!r}, {y0!r})")
            continue
        if verdict not in VERDICTS:
            problems.append(f"{where}: unknown verdict {verdict!r}")
        if not 0 <= iterations <= budget:
            problems.append(f"{where}: {iterations} iterations outside [0, {budget}]")
        fate = proven_fate(params, x, y)
        if fate is not None and (verdict != fate[0] or tag not in (None, fate[1])):
            problems.append(f"{where}: got {verdict}/{tag}, the theorem gives {fate[0]}/{fate[1]}")
    return problems


def parse_summary(line: str) -> dict[str, str]:
    """The ``key=value`` summary that ``simulate`` prints last."""
    return dict(field.split("=", 1) for field in line.split())


def check_trajectory(params: Params, budget: int, x0: float, y0: float, csv_text: str, summary: str) -> list[str]:
    lines = csv_text.splitlines()
    if not lines or lines[0] != TRAJECTORY_HEADER:
        return [f"trajectory CSV header is {lines[:1]!r}, expected {TRAJECTORY_HEADER!r}"]
    try:
        rows = [(int(n), float(x), float(y)) for n, x, y in (line.split(",") for line in lines[1:])]
        fields = parse_summary(summary)
        iterations = int(fields["iterations"])
    except (ValueError, KeyError) as exc:
        return [f"unparseable output: {exc}"]
    problems: list[str] = []
    if not rows or rows[0] != (0, x0, y0):
        problems.append(f"first row {rows[:1]!r} is not the start (0, {x0!r}, {y0!r})")
    for (n0, xa, ya), (n1, xb, yb) in zip(rows, rows[1:]):
        if len(problems) >= MAX_PROBLEMS:
            break
        if n1 <= n0:
            problems.append(f"row index {n1} follows {n0}")
        elif n1 == n0 + 1:
            image = step_w0(params, State(xa, ya))
            if (image.x, image.y) != (xb, yb):
                problems.append(f"row {n1} ({xb!r}, {yb!r}) is not step_w0 of row {n0}: ({image.x!r}, {image.y!r})")
    if rows and rows[-1][0] > budget:
        problems.append(f"trajectory runs {rows[-1][0]} steps, budget {budget}")
    if not 0 <= iterations <= budget:
        problems.append(f"summary reports {iterations} iterations, budget {budget}")
    fate = proven_fate(params, x0, y0)
    got = (fields.get("verdict"), fields.get("certificate"))
    if fate is not None and got != fate:
        problems.append(f"summary verdict {got[0]}/{got[1]}, the theorem gives {fate[0]}/{fate[1]}")
    return problems


def check_fixed_points(params: Params, report: FixedPointReport) -> list[str]:
    """The report against the closed form, computed here independently.

    Away from the threshold the interior point exists exactly when
    ``beta > mu*(1 + gamma*mu/alpha)``; within :data:`DEFECT_ULPS` of it
    either regime is accepted.  The interior point must have
    ``y* = gamma*mu/(beta - mu)`` and ``x*/(1 + x*) = mu*y*/alpha`` (the
    y-equation at a fixed point).  Both are compared to a tolerance of a
    few ulps times ``beta/(beta - mu)``, the conditioning of ``y*``; the
    second form stays well conditioned where ``x*`` itself does not.
    """
    problems: list[str] = []
    origin = report.origin.location
    if (origin.x, origin.y) != (0.0, 0.0):
        problems.append(f"origin reported at {origin}")
    distance = threshold_ulps(params)
    if abs(distance) > DEFECT_ULPS and (distance > 0) != (report.interior is not None):
        problems.append(f"beta is {distance:.3g} ulps from the threshold but interior is {report.interior}")
    if (report.regime.value == "two-fixed-points") != (report.interior is not None):
        problems.append(f"regime {report.regime.value} with interior {report.interior}")
    if report.interior is not None:
        alpha, beta, gamma, mu = params.alpha, params.beta, params.gamma, params.mu
        x, y = report.interior.location.x, report.interior.location.y
        y_star = gamma * mu / (beta - mu)
        tol = 64.0 * math.ulp(1.0) * beta / (beta - mu)
        if not abs(y - y_star) <= tol * y_star:
            problems.append(f"interior y {y!r}, closed form {y_star!r}")
        if not abs(x / (1.0 + x) - mu * y_star / alpha) <= tol:
            problems.append(f"interior x {x!r} gives x/(1+x) = {x / (1.0 + x)!r}, closed form {mu * y_star / alpha!r}")
    return problems


def identity_tolerance(params: Params, y: float) -> float:
    """Rounding allowance for ``sum_identity_residual`` at adult density y."""
    return 1e-12 * max(1.0, params.beta * y, params.mu * y)
