"""Tests for fixed-point location, Jacobians, and stability classification."""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import reference
from helpers import (
    REPELLING,
    SHOWCASE,
    analysis_params,
    assert_threshold_label_is_exact,
    identity_params,
    interior_params,
    jury_test,
    valid_params,
)
from reference import _label_from_moduli
from mosquito_allee import (
    ConfigurationError,
    InternalConsistencyError,
    Params,
    PointKind,
    Regime,
    Stability,
    State,
    alpha_thresholds,
    classify_interior,
    find_fixed_points,
    interior_fixed_point,
    jacobian_at,
    step_w0,
)
from mosquito_allee import stability
from mosquito_allee.cli import report_to_json
from mosquito_allee.model import _w0_xy
from mosquito_allee.stability import UNIT_MODULUS_TOL


def _fd_jacobian(p: Params, s: State, h: float = 1e-6) -> np.ndarray:
    def f(x: float, y: float) -> np.ndarray:
        image = step_w0(p, State(x, y))
        return np.array([image.x, image.y])

    j = np.empty((2, 2))
    j[:, 0] = (f(s.x + h, s.y) - f(s.x - h, s.y)) / (2.0 * h)
    j[:, 1] = (f(s.x, s.y + h) - f(s.x, s.y - h)) / (2.0 * h)
    return j


class TestInteriorFixedPoint:
    def test_showcase_location(self):
        fp = interior_fixed_point(SHOWCASE)
        assert fp is not None
        assert abs(fp.x - 4.0) <= 1e-12
        assert fp.y == 1.6

    def test_none_at_or_below_threshold(self):
        assert interior_fixed_point(Params(alpha=0.8, beta=0.8, gamma=2.0, mu=0.4)) is None
        assert interior_fixed_point(Params(alpha=1.0, beta=0.5, gamma=1.0, mu=1.0)) is None

    def test_requires_analysis_regime(self):
        with pytest.raises(ConfigurationError):
            interior_fixed_point(Params(alpha=1.5, beta=0.9, gamma=2.0, mu=0.4))

    @pytest.mark.parametrize(
        "params, point",
        [
            (Params(alpha=0.5, beta=1e200, gamma=1e-200, mu=0.5), "(0.0, 0.0)"),
            # x* = 1e-327 rounds to 0 while y* = 1e-307 does not
            (Params(alpha=1.0, beta=1e308, gamma=1e21, mu=1e-20), "(0.0, 1e-307)"),
        ],
        ids=["both", "x-only"],
    )
    def test_point_rounding_onto_an_axis_is_refused(self, params, point):
        with pytest.raises(ConfigurationError, match=re.escape(f"fixed point {point}, which rounds onto an axis")):
            interior_fixed_point(params)
        with pytest.raises(ConfigurationError, match="outside float64 range"):
            find_fixed_points(params)

    def test_location_satisfies_fixed_point_equation(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            p = interior_params(rng)
            fp = interior_fixed_point(p)
            assert fp is not None
            image = step_w0(p, fp)
            assert max(abs(image.x - fp.x), abs(image.y - fp.y)) <= 1e-12


class TestJacobianAt:
    def test_origin_matrix_exact(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            p = valid_params(rng)
            j = jacobian_at(p, State(0.0, 0.0))
            assert j[0, 0] == 1.0 - p.alpha
            assert j[0, 1] == 0.0
            assert j[1, 0] == p.alpha
            assert j[1, 1] == 1.0 - p.mu

    def test_showcase_interior_entries(self):
        fp = interior_fixed_point(SHOWCASE)
        j = jacobian_at(SHOWCASE, fp)
        assert abs(j[1, 0] - 0.032) <= 1e-15
        assert j[0, 0] == 1.0 - j[1, 0]
        assert j[1, 1] == 0.6

    def test_emergence_entries_tied(self):
        # both first-column entries come from the same damped emergence slope
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = valid_params(rng)
            s = State(float(rng.uniform(0.0, 50.0)), float(rng.uniform(0.0, 50.0)))
            j = jacobian_at(p, s)
            assert j[0, 0] == 1.0 - j[1, 0]

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            p = valid_params(rng)
            s = State(float(rng.uniform(0.001, 50.0)), float(rng.uniform(0.001, 50.0)))
            j = jacobian_at(p, s)
            fd = _fd_jacobian(p, s)
            assert np.linalg.norm(fd - j) / np.linalg.norm(j) <= 1e-6


    def test_requires_analysis_regime(self):
        with pytest.raises(ConfigurationError):
            jacobian_at(Params(alpha=1.5, beta=0.9, gamma=2.0, mu=0.4), State(1.0, 1.0))


class TestAlphaThresholds:
    def test_showcase_values(self):
        alpha1, alpha2 = alpha_thresholds(SHOWCASE)
        assert abs(alpha1 - 2.56) <= 1e-9
        assert abs(alpha2 - 0.16) <= 1e-9

    def test_none_when_beta_at_most_mu(self):
        assert alpha_thresholds(Params(alpha=1.0, beta=0.5, gamma=1.0, mu=1.0)) is None
        assert alpha_thresholds(Params(alpha=1.0, beta=0.5, gamma=1.0, mu=0.5)) is None

    def test_ordering_and_positivity(self):
        rng = np.random.default_rng(25)
        for _ in range(500):
            p = identity_params(rng)
            alpha1, alpha2 = alpha_thresholds(p)
            assert alpha1 >= alpha2 > 0.0

    def test_agrees_with_polynomial_solver(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            p = identity_params(rng)
            alpha1, alpha2 = alpha_thresholds(p)
            pp = p.gamma * p.mu * p.mu / (p.beta - p.mu)
            qq = p.beta * (2.0 - p.mu) / (2.0 * p.beta + p.mu * (p.beta - p.mu))
            roots = np.sort(np.roots([1.0, -2.0 * (pp + qq), pp * pp]))
            assert abs(roots[1] - alpha1) <= 1e-12 * max(1.0, abs(alpha1))
            assert abs(roots[0] - alpha2) <= 1e-12 * max(1.0, abs(alpha2))


class TestLabelFromModuli:
    def test_plain_labels(self):
        tol = UNIT_MODULUS_TOL
        assert _label_from_moduli([0.5, 0.3], tol) is Stability.ATTRACTING
        assert _label_from_moduli([1.5, 2.0], tol) is Stability.REPELLING
        assert _label_from_moduli([0.5, 1.5], tol) is Stability.SADDLE
        assert _label_from_moduli([1.0, 0.5], tol) is Stability.NON_HYPERBOLIC
        # a modulus within tol of 1 is non-hyperbolic, one just outside is not
        assert _label_from_moduli([0.5, 1.0 + 0.5 * tol], tol) is Stability.NON_HYPERBOLIC
        assert _label_from_moduli([0.5, 1.0 + 2.0 * tol], tol) is Stability.SADDLE
        assert _label_from_moduli([0.5, 1.0 - 2.0 * tol], tol) is Stability.ATTRACTING


class TestClassifyInterior:
    def test_showcase_is_saddle(self):
        result = classify_interior(SHOWCASE)
        assert result.stability is Stability.SADDLE
        a = result.analysis
        assert abs(a.A - 0.032) <= 1e-15
        assert abs(a.B - 0.6222222222222222) <= 1e-15
        assert abs(a.Lambda1 - 0.4478773622221693) <= 1e-15
        assert abs(a.Lambda2 - (-0.015877362222169292)) <= 1e-15
        assert a.eigenvalues == (1.0 - a.Lambda1, 1.0 - a.Lambda2)
        assert a.moduli[0] < 1.0 < a.moduli[1]
        assert abs(a.alpha1 - 2.56) <= 1e-9
        assert abs(a.alpha2 - 0.16) <= 1e-9

    def test_showcase_matches_numeric_eigenvalues(self):
        result = classify_interior(SHOWCASE)
        numeric = np.sort(np.linalg.eigvals(np.array(result.analysis.matrix)).real)
        closed = np.sort(result.analysis.eigenvalues)
        assert np.max(np.abs(numeric - closed)) <= 1e-12

    def test_adult_slope_closed_form(self):
        # at the interior point, B reduces to beta - (beta - mu)^2/beta
        rng = np.random.default_rng(27)
        for _ in range(300):
            p = interior_params(rng)
            a = classify_interior(p).analysis
            expected = p.beta - (p.beta - p.mu) ** 2 / p.beta
            assert abs(a.B - expected) <= 1e-12
            assert a.B > p.mu  # excess slope keeps the point from attracting

    def test_repelling_case(self):
        result = classify_interior(REPELLING)
        assert result.stability is Stability.REPELLING
        assert all(m > 1.0 for m in result.analysis.moduli)
        assert REPELLING.alpha > result.analysis.alpha1

    def test_never_attracting_in_regime(self):
        rng = np.random.default_rng(28)
        for _ in range(1000):
            result = classify_interior(interior_params(rng))
            assert result.stability is not Stability.ATTRACTING
            assert result.analysis.Lambda1 >= result.analysis.Lambda2

    def test_requires_interior_point(self):
        with pytest.raises(ConfigurationError):
            classify_interior(Params(alpha=0.8, beta=0.8, gamma=2.0, mu=0.4))

    def test_overflowing_jacobian_entry_is_an_overflow_error(self):
        # (x*, y*) = (1, 0.5), but beta*y*(2*gamma + y) and (gamma + y)^2 overflow
        params = Params(alpha=0.5, beta=1e300, gamma=1e300, mu=0.5)
        assert interior_fixed_point(params) == State(1.0, 0.5)
        with pytest.raises(OverflowError, match=r"Jacobian entry beta\*y\*.* is nan"):
            classify_interior(params)

    def test_requires_analysis_regime(self):
        with pytest.raises(ConfigurationError):
            classify_interior(Params(alpha=1.5, beta=0.9, gamma=2.0, mu=0.4))


# the analysis benchmark's crash set, next to the existence threshold, and
# the float64 corners the CLI tests run, each with an id
CORNER_RATES = {
    name: dict(alpha=a, beta=b, gamma=g, mu=m)
    for name, (a, b, g, m) in {
        "crash-set": (0.4060172786217775, 0.6523125203403398, 0.2383817077263435, 0.5034810722044961),
        "mu-mu-underflows": (0.5, 0.9, 1.0, 1e-200),
        "mu-mu-subnormal": (1.0, 1e-150, 4.4444691839e169, 1.5e-160),
        "jacobian-underflow": (0.5, 0.9, 1e-170, 0.4),
        "alpha1-zero": (0.5, 1.7e308, 1e-20, 1.0),
        "jacobian-overflow": (0.5, 1e300, 1e300, 0.5),
        "threshold-intermediate-origin-only": (1e-10, 1e300, 1e308, 1e-5),
        "threshold-intermediate-interior": (1e-10, 1.5e308, 1e308, 1e-5),
        "beta-y-y-underflows": (0.8, 0.9, 1e-300, 0.4),
        "fixed-point-at-zero": (1.0, 1e300, 1e-300, 1.0),
        "adult-bound-overflow": (1.0, 1e306, 1e10, 1e-3),
        "orbit-overflow": (1.0, 1e300, 1e308, 1e-20),
        "large-beta": (0.5, 1e6, 1.0, 0.5),
        "origin-non-hyperbolic": (5e-10, 0.5, 1.0, 0.5),
        "outside-the-regime": (1.5, 0.9, 2.0, 0.4),
    }.items()
}
# their interior points round to (0, 0): interior_fixed_point refuses them
ON_AXIS_CORNERS = ("alpha1-zero", "fixed-point-at-zero")
FIXED_POINT_CORNERS = {name: Params(**rates) for name, rates in CORNER_RATES.items() if rates["alpha"] <= 1.0}


@st.composite
def fixed_point_params(draw) -> Params:
    """``analysis_params``, the corners, or alpha or mu next to ``UNIT_MODULUS_TOL``,
    where the origin's label turns non-hyperbolic."""
    kind = draw(st.sampled_from(["analysis", "corner", "origin-band"]))
    if kind == "analysis":
        return draw(analysis_params())
    if kind == "corner":
        return draw(st.sampled_from(list(FIXED_POINT_CORNERS.values())))
    small = draw(st.floats(0.5 * UNIT_MODULUS_TOL, 2.0 * UNIT_MODULUS_TOL))
    other, beta = draw(st.floats(1e-3, 1.0)), draw(st.floats(1e-3, 10.0))
    alpha, mu = (small, other) if draw(st.booleans()) else (other, small)
    return Params(alpha=alpha, beta=beta, gamma=draw(st.floats(1e-3, 10.0)), mu=mu)


def _report_and_json(call, params: Params):
    """``repr`` and ``report_to_json`` of ``call(params)``, or the type and message of the error raised."""
    try:
        report = call(params)
        return repr(report), report_to_json(report, params)
    except Exception as exc:  # the reference must raise the same, whatever it is
        return type(exc), str(exc)


def _dropped_recheck(error_type, message: str) -> bool:
    """Whether an oracle's error came from a re-check the package no longer
    runs: any ``InternalConsistencyError`` but the denominator check's."""
    return error_type is InternalConsistencyError and not message.startswith("existence threshold passed")


@given(
    alpha=st.floats(0.0, 1.0, exclude_min=True),
    beta=st.floats(0.0, exclude_min=True, allow_infinity=False),
    gamma=st.floats(0.0, exclude_min=True, allow_infinity=False),
    mu=st.floats(0.0, 1.0, exclude_min=True),
)
def test_property_origin_is_a_fixed_point_exactly(alpha, beta, gamma, mu):
    # why find_fixed_points needs no check of the origin: for every valid
    # set the kernel maps it to +0.0 in both coordinates
    assert repr(_w0_xy(alpha, beta, gamma, mu, 0.0, 0.0)) == repr((0.0, 0.0))


class TestFindFixedPoints:
    def test_showcase_report(self):
        report = find_fixed_points(SHOWCASE)
        assert report.regime is Regime.TWO_FIXED_POINTS
        assert report.origin.location == State(0.0, 0.0)
        assert report.origin.kind is PointKind.ORIGIN
        assert report.origin.stability is Stability.ATTRACTING
        assert report.origin_eigenvalues == (1.0 - 0.8, 0.6)
        assert report.interior is not None
        assert report.interior.kind is PointKind.INTERIOR
        assert report.interior.stability is Stability.SADDLE
        assert report.interior.location == interior_fixed_point(SHOWCASE)
        assert report.analysis == classify_interior(SHOWCASE).analysis

    def test_origin_only_regimes(self):
        for p in (
            Params(alpha=0.8, beta=0.8, gamma=2.0, mu=0.4),
            Params(alpha=1.0, beta=0.5, gamma=1.0, mu=1.0),
            Params(alpha=0.8, beta=0.7, gamma=2.0, mu=0.4),
        ):
            report = find_fixed_points(p)
            assert report.regime is Regime.ORIGIN_ONLY
            assert report.interior is None and report.analysis is None

    def test_origin_near_unit_modulus(self):
        report = find_fixed_points(Params(alpha=1e-12, beta=0.5, gamma=1.0, mu=0.5))
        assert report.origin.stability is Stability.NON_HYPERBOLIC

    def test_origin_eigenvalues_match_solver(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            p = valid_params(rng)
            report = find_fixed_points(p)
            numeric = np.sort(np.linalg.eigvals(jacobian_at(p, State(0.0, 0.0))).real)
            closed = np.sort(report.origin_eigenvalues)
            assert np.max(np.abs(numeric - closed)) <= 1e-12

    def test_requires_analysis_regime(self):
        with pytest.raises(ConfigurationError):
            find_fixed_points(Params(alpha=1.5, beta=0.9, gamma=2.0, mu=0.4))

    @pytest.mark.parametrize("rates", CORNER_RATES.values(), ids=CORNER_RATES.keys())
    def test_corners_match_the_keyword_reference(self, rates):
        # the set outside the regime fails alike for both, when its Params is
        # built, and so do the sets whose interior point rounds onto an axis
        def built(call):
            return lambda rates: call(Params(**rates))

        package = _report_and_json(built(find_fixed_points), rates)
        assert package == _report_and_json(built(reference.find_fixed_points), rates)
        on_axis = rates in [CORNER_RATES[name] for name in ON_AXIS_CORNERS]
        assert (package[0] is ConfigurationError) == (rates["alpha"] > 1.0 or on_axis)
        assert on_axis == ("rounds onto an axis" in str(package[1]))

    @given(params=fixed_point_params())
    def test_matches_the_keyword_reference_bit_for_bit(self, params):
        package = _report_and_json(find_fixed_points, params)
        oracle = _report_and_json(reference.find_fixed_points, params)
        if _dropped_recheck(*oracle):
            assert isinstance(package[0], str), package  # a report
        else:
            assert package == oracle


def _outcome(call, *args):
    """``call(*args)``, or the exception it raises."""
    try:
        return call(*args)
    except Exception as exc:  # the oracle must raise the same type, whatever it is
        return exc


def _fixed_points_json(params: Params):
    return _outcome(lambda: report_to_json(find_fixed_points(params), params))


def _agrees_with_the_oracle(new, old) -> bool:
    """Equal results or errors of the same type; any result where the
    oracle's error came from a re-check the package no longer runs."""
    if isinstance(old, Exception):
        if _dropped_recheck(type(old), str(old)):
            return not isinstance(new, Exception)
        return type(new) is type(old)
    return new == old


class TestTraceDeterminantCrossCheck:
    """The threshold label against the trace-determinant (Jury) test, run
    in the tests: in floats next to the ``eigvals`` oracle, and exactly in
    ``Fraction``s (``tests/test_closed_forms.py``)."""

    @given(params=analysis_params())
    def test_matches_the_eigvals_reference(self, params):
        new = _outcome(classify_interior, params)
        old = _outcome(reference.classify_interior, params)
        if not isinstance(old, Exception):
            new, old = (new.stability, new.analysis), (old.stability, old.analysis)
        assert _agrees_with_the_oracle(new, old)
        with mock.patch.object(stability, "classify_interior", reference.classify_interior):
            old_json = _fixed_points_json(params)
        assert _agrees_with_the_oracle(_fixed_points_json(params), old_json)

    @given(params=analysis_params(), at_fixed_point=st.booleans(), x=st.floats(0.0, 50.0), y=st.floats(0.0, 50.0))
    def test_agrees_with_eigvals_outside_the_band(self, params, at_fixed_point, x, y):
        assume(params.alpha <= 1.0)
        fp = _outcome(interior_fixed_point, params) if at_fixed_point else None
        jac = jacobian_at(params, fp if isinstance(fp, State) else State(x, y))
        moduli = np.abs(np.linalg.eigvals(jac)).tolist()
        assume(all(abs(m - 1.0) > 10.0 * UNIT_MODULUS_TOL for m in moduli))
        assert jury_test(jac.tolist())[0] is _label_from_moduli(moduli, UNIT_MODULUS_TOL)

    def test_labels_each_kind(self):
        assert jury_test(((0.5, 0.0), (0.0, -0.3)))[0] is Stability.ATTRACTING
        assert jury_test(((0.5, 0.0), (0.0, 1.5)))[0] is Stability.SADDLE
        assert jury_test(((0.5, 0.0), (0.0, -1.5)))[0] is Stability.SADDLE
        assert jury_test(((2.0, 0.0), (0.0, 3.0)))[0] is Stability.REPELLING
        assert jury_test(((-2.0, 0.0), (0.0, 3.0)))[0] is Stability.REPELLING

    def test_disagreement_names_the_trace_determinant_terms(self):
        # a threshold label that the Jacobian contradicts, away from every band,
        # fails the exact check that test_closed_forms.py runs on hypothesis draws
        assert_threshold_label_is_exact(SHOWCASE)
        with mock.patch.object(stability, "alpha_thresholds", return_value=(0.5, 0.1)):
            with pytest.raises(AssertionError, match=r"tr=.*det=.*p\(1\)=.*p\(-1\)=.*gives saddle"):
                assert_threshold_label_is_exact(SHOWCASE)

    def test_disagreement_inside_the_band_is_a_note(self):
        # alpha just above a patched alpha1 reads repelling, though the Jacobian
        # says saddle: the threshold label stands, and nothing adds a note
        with mock.patch.object(stability, "alpha_thresholds", return_value=(SHOWCASE.alpha - 5e-9, 0.1)):
            result = classify_interior(SHOWCASE)
        assert result.stability is Stability.REPELLING
        assert result.notes == ()
