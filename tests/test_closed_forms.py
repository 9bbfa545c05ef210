"""The closed forms behind the fixed-point report, proved with sympy, and
the float code tied to them.

``stability.find_fixed_points`` steps neither fixed point through the
map, and ``classify_interior`` decides the interior point's type once,
by comparing ``alpha`` with the thresholds ``alpha1 >= alpha2``.  These
proofs are why that is enough.  With ``D = alpha*(beta-mu) -
gamma*mu^2``, ``P = gamma*mu^2/(beta-mu)`` and ``Q = beta*(2-mu)/(2*beta
+ mu*(beta-mu))``:

- the kernel fixes ``(x*, y*) = (gamma*mu^2/D, gamma*mu/(beta-mu))``;
- ``p(1) = det(I - J) = -mu*D^2/(alpha*beta*(beta-mu))``;
- ``p(-1) = det(I + J) = -(beta*(2+mu) - mu^2)/(alpha*beta) *
  (alpha - alpha1)*(alpha - alpha2)``;
- ``alpha1 + alpha2 = 2(P+Q)`` and ``alpha1*alpha2 = P^2``;
- existence, ``D > 0``, is ``alpha > P`` (with ``beta > mu``);
- where the point exists, ``p(1) < 0``, ``beta*(2+mu) - mu^2 > 0`` and
  ``alpha2 < P < alpha1``.

So the Jury test (Elaydi, *An Introduction to Difference Equations*,
3rd ed., ch. 4) gives a saddle below ``alpha1``, where ``p(1) < 0 <
p(-1)``.  Above it ``p(1)`` and ``p(-1)`` are both negative, so ``det =
(p(1) + p(-1))/2 - 1 < -1`` and the point repels.  That is the
threshold label.  The total-population identity ``x1 + y1 - x - y =
(beta-mu)*y*(y - y*)/(gamma+y)``, which ``dynamics._identity_defect``
evaluates, is proved too.

The kernel and the identity's defect are the package's own code, called
on sympy symbols; their float constants are exact integers.  The two
hypothesis tests tie the float code to the proofs: away from the
thresholds the label equals the Jury label computed in ``Fraction``s at
the exact fixed point of the float inputs, and the kernel moves the
float ``(x*, y*)`` by rounding only.
"""

from __future__ import annotations

import math

import sympy as sp
from hypothesis import assume, example, given

from helpers import REPELLING, SHOWCASE, analysis_params, assert_threshold_label_is_exact, exact_interior_jacobian
from mosquito_allee import UNIT_MODULUS_TOL, InternalConsistencyError, Params, alpha_thresholds, interior_fixed_point
from mosquito_allee.dynamics import _identity_defect
from mosquito_allee.model import _w0_xy

alpha, beta, gamma, mu = sp.symbols("alpha beta gamma mu", positive=True)
x, y = sp.symbols("x y", nonnegative=True)

D = alpha * (beta - mu) - gamma * mu**2
P = gamma * mu**2 / (beta - mu)
Q = beta * (2 - mu) / (2 * beta + mu * (beta - mu))
X_STAR, Y_STAR = gamma * mu**2 / D, gamma * mu / (beta - mu)
# alpha_thresholds' arithmetic: the larger root, and the smaller from the product P^2
ALPHA1 = P + Q + sp.sqrt(Q * (2 * P + Q))
ALPHA2 = P**2 / ALPHA1


def _exact(expr):
    """``expr`` with its float constants (all exact, such as ``1.0``) as rationals."""
    return sp.nsimplify(expr, rational=True)


def _is_zero(expr) -> bool:
    return sp.cancel(expr) == 0


def _kernel():
    return [_exact(c) for c in _w0_xy(alpha, beta, gamma, mu, x, y)]


def _jacobian_at_the_point():
    """The kernel's Jacobian at ``(x*, y*)``, each entry cancelled."""
    jacobian = sp.Matrix(_kernel()).jacobian([x, y])
    return jacobian.subs({x: X_STAR, y: Y_STAR}).applyfunc(sp.cancel)


def _det(m) -> sp.Expr:
    # written out: Matrix.det on these rational entries takes minutes
    return sp.cancel(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def test_the_kernel_fixes_the_interior_point():
    x1, y1 = _kernel()
    assert _is_zero(x1.subs({x: X_STAR, y: Y_STAR}) - X_STAR)
    assert _is_zero(y1.subs({x: X_STAR, y: Y_STAR}) - Y_STAR)


def test_the_jacobian_is_the_kernels_derivative():
    # stability._jacobian's entries: a = alpha/(1 + x)^2, b = beta*y*(2*gamma + y)/(gamma + y)^2
    a = alpha / (1 + x) ** 2
    b = beta * y * (2 * gamma + y) / (gamma + y) ** 2
    expected = sp.Matrix([[1 - a, b], [a, 1 - mu]])
    assert (sp.Matrix(_kernel()).jacobian([x, y]) - expected).applyfunc(sp.cancel) == sp.zeros(2, 2)


def test_jury_polynomial_at_one():
    p_plus = _det(sp.eye(2) - _jacobian_at_the_point())
    assert _is_zero(p_plus + mu * D**2 / (alpha * beta * (beta - mu)))


def test_jury_polynomial_at_minus_one():
    p_minus = _det(sp.eye(2) + _jacobian_at_the_point())
    # (alpha - alpha1)*(alpha - alpha2), by the sum and product of the roots
    threshold_quadratic = alpha**2 - 2 * (P + Q) * alpha + P**2
    assert _is_zero(p_minus + (beta * (2 + mu) - mu**2) / (alpha * beta) * threshold_quadratic)


def test_thresholds_are_the_roots_of_the_threshold_quadratic():
    assert ALPHA1 * ALPHA2 - P**2 == 0
    # alpha1 + alpha2 - 2(P + Q) is this over alpha1 (sympy's simplify of the sum takes a minute)
    assert _is_zero(sp.expand(ALPHA1**2 - 2 * (P + Q) * ALPHA1 + P**2))


def test_existence_is_alpha_above_P():
    # D = (beta - mu)*(alpha - P), and the package's beta form of the test is D/alpha > 0
    assert _is_zero(D - (beta - mu) * (alpha - P))
    assert _is_zero(alpha * (beta - mu * (1 + gamma * mu / alpha)) - D)
    # beta <= mu leaves no interior point: D <= -gamma*mu^2 < 0 there
    assert (D.subs(beta, mu - sp.Symbol("r", nonnegative=True))).expand().is_negative


def test_signs_where_the_point_exists():
    # every set with D > 0 and 0 < mu <= 1, from positive d = D and s = beta - mu
    # and nonnegative t with mu = 1/(1 + t)
    d, s = sp.symbols("d s", positive=True)
    t = sp.Symbol("t", nonnegative=True)
    on_the_set = {alpha: (d + gamma * mu**2) / s, beta: mu + s}

    def at(expr):
        return sp.factor(expr.subs(on_the_set).subs(mu, 1 / (1 + t)))

    assert at(-mu * D**2 / (alpha * beta * (beta - mu))).is_negative  # p(1)
    assert at(beta * (2 + mu) - mu**2).is_positive
    assert at(alpha - P).is_positive
    assert at(Q).is_positive
    # so alpha1 - P = Q + sqrt(Q*(2P + Q)) > 0, and P - alpha2 = P*(alpha1 - P)/alpha1 > 0
    q, p = sp.symbols("q p", positive=True)
    root = sp.sqrt(q * (2 * p + q))
    assert (q + root).is_positive
    assert (p * (q + root) / (p + q + root)).is_positive


def test_total_population_identity():
    x1, y1 = _kernel()
    increment = beta * y**2 / (gamma + y) - mu * y
    assert _is_zero(x1 + y1 - x - y - increment)
    assert _is_zero(increment - (beta - mu) * y * (y - Y_STAR) / (gamma + y))
    # the package's defect is the difference of the two sides
    assert _is_zero(_exact(_identity_defect(beta, gamma, mu, y)))


def _interior(params: Params):
    """The float interior point; None where there is none, or where its
    denominator rounds to ``<= 0`` within ulps of the threshold."""
    try:
        return interior_fixed_point(params)
    except InternalConsistencyError:
        return None


@given(params=analysis_params())
@example(params=SHOWCASE)  # a saddle
@example(params=REPELLING)
def test_threshold_label_is_the_exact_jury_label(params):
    assume(_interior(params) is not None and exact_interior_jacobian(params) is not None)
    alpha1, alpha2 = alpha_thresholds(params)
    assume(min(abs(params.alpha - alpha1), abs(params.alpha - alpha2)) > 10.0 * UNIT_MODULUS_TOL)
    assert_threshold_label_is_exact(params)


@given(params=analysis_params())
def test_the_kernel_moves_the_float_interior_point_by_rounding_only(params):
    fp = _interior(params)
    assume(fp is not None)
    x1, y1 = _w0_xy(params.alpha, params.beta, params.gamma, params.mu, fp.x, fp.y)
    # 1e-12, or 16 ulps where x* is large near the existence threshold
    allowed = max(1e-12, 16.0 * math.ulp(max(1.0, fp.x, fp.y)))
    assert max(abs(x1 - fp.x), abs(y1 - fp.y)) <= allowed
