"""A standing fuzz of the four CLI commands, run in process.

Parameters are drawn log-uniform over wide ranges, with a share of
``beta`` within 8 ulps of the existence threshold.  Every run must end
in an answer (exit 0) or in one usage error (exit 1, a single
``error:`` line on stderr and nothing on stdout), never in a traceback,
and ``check`` must never report a falsification (exit 3).

``InternalConsistencyError`` is told apart from a usage error by its
type: its constructions are recorded while a command runs.  It is
admitted only as the known defect of the existence decision, by the
rule of ``bench/checks.py::is_known_defect``: ``beta`` within 16 ulps of
``mu*(1 + gamma*mu/alpha)``, and the ``alpha*(beta-mu) - gamma*mu^2``
message.  The band stays in the draws, so the defect stays visible.
"""

from __future__ import annotations

import contextlib
import io
import math
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import nudged
from mosquito_allee.cli import EXIT_CONFIG, EXIT_OK, main
from mosquito_allee.errors import InternalConsistencyError

# the known defect, as bench/checks.py states it
KNOWN_DEFECT_MESSAGE = "alpha*(beta-mu) - gamma*mu^2"
DEFECT_ULPS = 16

# beta about 4e10 ulps below the threshold, with mu*mu = 2.25e-320 subnormal
SUBNORMAL_MU_SQUARED = (1.0, 1e-150, 4.4444691839e169, 1.5e-160)

BUDGET = "2000"
GRID = ["--x-min", "0", "--x-max", "10", "--y-min", "0", "--y-max", "10", "--nx", "4", "--ny", "4"]
SAMPLES = "200"


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def _threshold(alpha: float, gamma: float, mu: float) -> float:
    return mu * (1.0 + gamma * mu / alpha)


@st.composite
def cli_params(draw) -> tuple[float, float, float, float]:
    """``(alpha, beta, gamma, mu)``; a third of the draws put ``beta``
    within 8 ulps of the existence threshold."""
    alpha, mu = draw(_log_uniform(1e-8, 1.0)), draw(_log_uniform(1e-8, 1.0))
    gamma = draw(_log_uniform(1e-12, 1e12))
    if draw(st.integers(0, 2)) == 0:
        beta = nudged(_threshold(alpha, gamma, mu), draw(st.integers(-8, 8)))
    else:
        beta = draw(_log_uniform(1e-8, 1e12))
    return alpha, beta, gamma, mu


def _run(argv: list[str]) -> tuple[int, str, str, list[InternalConsistencyError]]:
    """``main(argv)``'s exit code, stdout, stderr and the
    ``InternalConsistencyError``s built while it ran."""
    built: list[InternalConsistencyError] = []
    init = InternalConsistencyError.__init__

    def record(self, *args):
        built.append(self)
        init(self, *args)

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(InternalConsistencyError, "__init__", record):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), built


def _is_known_defect(error: InternalConsistencyError, alpha: float, beta: float, gamma: float, mu: float) -> bool:
    threshold = _threshold(alpha, gamma, mu)
    ulps = (beta - threshold) / math.ulp(threshold)
    return abs(ulps) <= DEFECT_ULPS and KNOWN_DEFECT_MESSAGE in str(error)


def _commands(params: tuple[float, float, float, float], start: tuple[float, float]) -> list[list[str]]:
    """The four commands' argument lists, in the order fixed-points, simulate, basin, check."""
    alpha, beta, gamma, mu = params
    shared = ["--alpha", repr(alpha), "--beta", repr(beta), "--gamma", repr(gamma), "--mu", repr(mu)]
    return [
        ["fixed-points", *shared],
        ["simulate", *shared, "--x0", repr(start[0]), "--y0", repr(start[1]), "--budget", BUDGET],
        ["basin", *shared, *GRID, "--budget", BUDGET],
        ["check", *shared, "--samples", SAMPLES, "--seed", "0"],
    ]


@settings(max_examples=200)
@given(params=cli_params(), start=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)))
# gamma*mu/alpha overflows in the threshold: above it and below it
@example(params=(1e-10, 1.5e308, 1e308, 1e-5), start=(1.0, 1.0))
@example(params=(1e-10, 1e300, 1e308, 1e-5), start=(1.0, 1.0))
# the known defect: the two existence forms round apart next to the threshold
@example(
    params=(0.4060172786217775, 0.6523125203403398, 0.2383817077263435, 0.5034810722044961), start=(1.0, 1.0)
)
# mu*mu is subnormal: the gamma form of the existence test rounds far from the beta form
@example(params=SUBNORMAL_MU_SQUARED, start=(1.0, 1.0))
def test_every_command_answers_or_gives_one_usage_error(params, start):
    for argv in _commands(params, start):
        code, out, err, built = _run(argv)
        assert code in (EXIT_OK, EXIT_CONFIG), (argv, code, err)
        assert "Traceback" not in out + err
        if code == EXIT_OK:
            assert err == "" and not built, (argv, err)
            continue
        [line] = err.splitlines()
        assert line.startswith("error: ") and out == "", (argv, err, out)
        assert all(_is_known_defect(error, *params) for error in built), (argv, err)


def test_subnormal_mu_squared_is_origin_only():
    """The three commands that need no interior point answer; ``check`` names its absence."""
    runs = [_run(argv) for argv in _commands(SUBNORMAL_MU_SQUARED, (1.0, 1.0))]
    assert [(code, built) for code, _, _, built in runs] == [(EXIT_OK, [])] * 3 + [(EXIT_CONFIG, [])]
    assert '"regime": "origin-only"' in runs[0][1]
    [line] = runs[3][2].splitlines()
    assert line.startswith("error: no interior fixed point")
