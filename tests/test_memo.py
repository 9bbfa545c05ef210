"""Set-up paid once: the memoized interior point and unit draws, and the
one-pass constructor of ``State``.

``interior_fixed_point`` is memoized per ``Params`` in a bounded
``lru_cache``; it must give :mod:`reference`'s unmemoized value on a
first call and on every later one, raise its errors on every call
(errors are never cached), keep sets one ulp apart apart, and hold at
most 64 entries.  The sampled checks scale the read-only unit draws of
``dynamics._unit_draws``, kept per ``(seed, samples)`` for draws of at
most ``_MEMO_SAMPLES`` samples: the draws must be ``default_rng(seed)``'s
uniforms, bit for bit, a large draw must not be kept, and every check's
reports must equal the per-call oracle's under any order of seeds and
parameter sets.
``State`` converts, validates and sets each field once in its own
``__init__``; it must store what the original dataclass stored and
raise what it raised, in the same precedence, and behave the same
under ``dataclasses``, ``pickle``, ``hash``, ``==`` and ``repr``.
Every value class of the package is built without ``dataclasses``; each
must behave as a frozen dataclass of the same fields does, on instances
that the package's own calls return.
"""

from __future__ import annotations

import dataclasses
import gc
import inspect
import itertools
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from helpers import SHOWCASE, analysis_params, nudged
from mosquito_allee import (
    BasinGrid,
    InternalConsistencyError,
    Params,
    Region,
    State,
    basin_scan,
    check_adult_bound,
    check_invariance,
    check_sum_identity,
    dynamics,
    find_fixed_points,
    model,
    simulate,
    stability,
)
from mosquito_allee.model import derived_constants, step_general
from mosquito_allee.stability import classify_interior, interior_fixed_point

MEMO_BOUND = 64
BAND_ULPS = 8
# alpha*(beta-mu) - gamma*mu^2 rounds to 0 after beta cleared the threshold
CRASH_SET = Params(
    alpha=0.4060172786217775,
    beta=0.6523125203403398,
    gamma=0.2383817077263435,
    mu=0.5034810722044961,
)


def _value_or_error(f, *args):
    """``repr`` of the value, or the type and message of the error raised."""
    try:
        return repr(f(*args))
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(analysis_params())
@example(CRASH_SET)
def test_memoized_interior_point_matches_the_reference(params):
    expected = _value_or_error(reference.interior_fixed_point, params)
    # a copy hashes and compares equal, so it hits the first call's entry
    copy = Params(params.alpha, params.beta, params.gamma, params.mu)
    assert [_value_or_error(interior_fixed_point, p) for p in (params, params, copy)] == [expected] * 3


def test_crash_set_raises_on_every_call():
    message = "existence threshold passed but alpha*(beta-mu) - gamma*mu^2 = 0.0 <= 0"
    for _ in range(3):
        with pytest.raises(InternalConsistencyError) as caught:
            interior_fixed_point(CRASH_SET)
        assert str(caught.value) == message


def test_sets_one_ulp_apart_get_their_own_values():
    threshold = derived_constants(SHOWCASE).threshold_beta
    for ulps in range(1, BAND_ULPS + 1):
        lower = dataclasses.replace(SHOWCASE, beta=nudged(threshold, ulps))
        upper = dataclasses.replace(lower, beta=nudged(lower.beta, 1))
        assert lower != upper and hash(lower) != hash(upper)
        for p in (lower, upper, lower, upper):
            assert _value_or_error(interior_fixed_point, p) == _value_or_error(reference.interior_fixed_point, p)
        assert interior_fixed_point(lower) != interior_fixed_point(upper)


def test_memos_stay_bounded():
    rng = np.random.default_rng(61)
    for _ in range(1000):
        _value_or_error(interior_fixed_point, Params(*(float(v) for v in rng.uniform(0.05, 1.0, 4))))
    info = interior_fixed_point.cache_info()
    assert info.maxsize == MEMO_BOUND and info.currsize <= MEMO_BOUND
    for seed in range(100):
        dynamics._unit_draws(seed, 1 + seed % 7)
    draws = dynamics._memo_units.cache_info()
    assert draws.currsize <= draws.maxsize <= MEMO_BOUND
    # what the kept draws can hold at most
    assert draws.maxsize * 2 * dynamics._MEMO_SAMPLES * 8 <= 2**20


def test_check_invariance_under_interleaved_seeds_matches_reference():
    for seed in (0, 1, 0, 2, 1, 1, 0):
        for region, span in ((Region.OMEGA1, None), (Region.OMEGA2, None), (Region.OMEGA2, 0.5)):
            got = check_invariance(SHOWCASE, region, 300, seed, span)
            assert repr(got) == repr(reference.check_invariance(SHOWCASE, region, 300, seed, span))


def test_unit_draws_are_default_rng_uniforms():
    for seed in (0, 1, 0, 2**40, 1):
        for samples in (1, 5, 300, dynamics._MEMO_SAMPLES, dynamics._MEMO_SAMPLES + 1):
            u, v = dynamics._unit_draws(seed, samples)
            assert u.shape == v.shape == (samples,)
            assert np.concatenate((u, v)).tobytes() == np.random.default_rng(seed).random(2 * samples).tobytes()
            # the x and y draws of two uniform() calls, including the
            # subnormal and huge scales the checks meet
            for h, k in ((1.0, 1.0), (3.0, 0.25), (5e-320, 1e300), (1e300, 5e-320)):
                rng = np.random.default_rng(seed)
                assert (h * u).tobytes() == rng.uniform(0.0, h, samples).tobytes()
                assert (k * v).tobytes() == rng.uniform(0.0, k, samples).tobytes()


def test_unit_draws_are_read_only():
    for samples in (3, dynamics._MEMO_SAMPLES + 1):
        for half in dynamics._unit_draws(0, samples):
            assert not half.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                half[0] = 0.5


def test_small_draws_are_kept_and_large_ones_are_not():
    small = dynamics._unit_draws(5, dynamics._MEMO_SAMPLES)
    assert all(a is b for a, b in zip(small, dynamics._unit_draws(5, dynamics._MEMO_SAMPLES)))
    before = dynamics._memo_units.cache_info()
    large = dynamics._unit_draws(5, dynamics._MEMO_SAMPLES + 1)
    assert not any(a is b for a, b in zip(large, dynamics._unit_draws(5, dynamics._MEMO_SAMPLES + 1)))
    after = dynamics._memo_units.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses, before.currsize)
    refs = [weakref.ref(a) for a in large]
    del large
    gc.collect()
    assert [r() for r in refs] == [None, None]


def _checks(check_invariance_fn, check_sum_identity_fn, check_adult_bound_fn):
    """One call of each sampled check, as ``(name, call(params, samples, seed))`` pairs."""
    return (
        ("omega1", lambda p, n, seed: check_invariance_fn(p, Region.OMEGA1, n, seed)),
        ("omega2", lambda p, n, seed: check_invariance_fn(p, Region.OMEGA2, n, seed)),
        ("omega2 span 0.5", lambda p, n, seed: check_invariance_fn(p, Region.OMEGA2, n, seed, 0.5)),
        ("identity", check_sum_identity_fn),
        ("adult bound", check_adult_bound_fn),
    )


CHECKS = _checks(check_invariance, check_sum_identity, check_adult_bound)
REFERENCE_CHECKS = _checks(
    reference.check_invariance_with_allowance, reference.check_sum_identity, reference.check_adult_bound
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(analysis_params(), st.integers(0, 3), st.sampled_from((1, 7, 256))), min_size=1, max_size=4))
@example(
    [
        (SHOWCASE, 0, 300),
        (CRASH_SET, 1, 1000),
        (Params(alpha=0.5, beta=1e6, gamma=1.0, mu=0.5), 0, 2000),
        (Params(alpha=0.8, beta=0.7, gamma=2.0, mu=0.4), 2, 300),
        (SHOWCASE, 1, dynamics._MEMO_SAMPLES + 1),
        (SHOWCASE, 7, 1000),
        (Params(alpha=0.5, beta=3.0, gamma=1.0, mu=0.5), 0, 300),
        (SHOWCASE, 0, 300),
    ]
)
def test_samplers_under_interleaved_seeds_and_sets_match_reference(calls):
    for params, seed, samples in calls:
        for (name, check), (_, oracle) in zip(CHECKS, REFERENCE_CHECKS):
            got, expected = (_value_or_error(f, params, samples, seed) for f in (check, oracle))
            assert got == expected, (name, params, samples, seed)


# field values the constructor converts or rejects: ints, numpy floats,
# numeric strings, nan, infinities, negatives, zeros, and non-numbers
VALUES = (
    1, 0, -3, 0.4, 2.0, np.float64(0.25), np.float32(0.5), np.int64(2), "0.75", " 1e-3 ", "-1", "inf",
    "nan", "abc", math.nan, math.inf, -math.inf, -0.5, 0.0, -0.0, 5e-324, 1e308, None, True,
)


def _construct(cls, *args, **kwargs):
    """The stored fields (``repr`` tells ``-0.0`` apart), or the error's type and message."""
    try:
        obj = cls(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return tuple((f.name, type(getattr(obj, f.name)), repr(getattr(obj, f.name))) for f in dataclasses.fields(obj))


def test_state_constructor_matches_reference():
    for x, y in itertools.product(VALUES, repeat=2):
        assert _construct(State, x, y) == _construct(reference.OriginalState, x, y), (x, y)
        assert _construct(State, y=y, x=x) == _construct(reference.OriginalState, y=y, x=x)


def _oracle(cls):
    """A frozen dataclass of ``cls``'s fields, defaults and ``__post_init__``,
    made by ``dataclasses`` itself; ``BasinGrid`` compares by its own rule."""
    own = vars(cls)
    spec = [(name, kind, own[name]) if name in own else (name, kind) for name, kind in cls.__annotations__.items()]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, eq=cls is not BasinGrid, namespace=namespace)


def _instances():
    """One instance of each value class, as the package's calls return them."""
    report = find_fixed_points(SHOWCASE)
    yield from (SHOWCASE, report, report.origin, report.interior, report.analysis, classify_interior(SHOWCASE))
    yield from simulate(SHOWCASE, State(0.2, 5.0), 3000)
    yield check_invariance(SHOWCASE, Region.OMEGA2, 50, 0)
    yield check_sum_identity(SHOWCASE, 50, 0)
    yield check_adult_bound(SHOWCASE, 50, 0)
    yield basin_scan(SHOWCASE, (0.0, 7.0), (0.0, 5.0), 4, 3, budget=1000)
    yield from (derived_constants(SHOWCASE), step_general(SHOWCASE, State(1.0, 1.0)))


def _pairs():
    """The same value built by the package's class and by the original one."""
    for args in ((1.0, 2.0), (0, np.float64(1.5)), ("3", -0.0), (5e-324, 1e308)):
        yield State(*args), reference.OriginalState(*args)
    for new in _instances():
        yield new, _oracle(type(new))(*(getattr(new, name) for name in type(new).__match_args__))


PAIRS = list(_pairs())


def test_every_value_class_is_compared():
    modules = (model, stability, dynamics)
    classes = {c for m in modules for c in vars(m).values() if dataclasses.is_dataclass(c) and c.__module__ == m.__name__}
    assert len(classes) == 14 and {type(new) for new, _ in PAIRS} == classes


@pytest.mark.parametrize(
    "new, original",
    PAIRS,
    ids=[f"{new!r}-{original!r}" if type(new) is State else type(new).__name__ for new, original in PAIRS],
)
def test_dataclass_behaviour_matches_reference(new, original):
    cls, original_cls = type(new), type(original)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(new)
    assert [(f.name, f.type, f.default, f.init) for f in dataclasses.fields(new)] == [
        (f.name, f.type, f.default, f.init) for f in dataclasses.fields(original)
    ]
    assert cls.__match_args__ == original_cls.__match_args__
    assert list(inspect.signature(cls).parameters) == list(inspect.signature(original_cls).parameters)
    assert [p.default for p in inspect.signature(cls).parameters.values()] == [
        p.default for p in inspect.signature(original_cls).parameters.values()
    ]
    # repr tells -0.0, nan and arrays apart where == cannot
    assert repr(dataclasses.asdict(new)) == repr(dataclasses.asdict(original))
    assert repr(dataclasses.astuple(new)) == repr(dataclasses.astuple(original))
    assert repr(new).removeprefix(cls.__name__) == repr(original).removeprefix(original_cls.__name__)
    rebuilt = cls(*(getattr(new, name) for name in cls.__match_args__))
    assert new == rebuilt and new != original
    if cls is BasinGrid:
        # equal bit for bit, so unhashable
        with pytest.raises(TypeError, match="unhashable"):
            hash(new)
    else:
        assert hash(new) == hash(original)
        assert len({new, rebuilt}) == 1

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(new, protocol))
        assert type(back) is cls and back == new and repr(back) == repr(new)
        assert repr(vars(back)) == repr(vars(new))

    first = dataclasses.fields(new)[0].name
    for obj in (new, original):
        for name in (first, "unknown"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)

    for value in (7, "0.125", math.nan, -2.0, 0.0, "abc"):
        got = _construct(dataclasses.replace, new, **{first: value})
        expected = _construct(dataclasses.replace, original, **{first: value})
        assert got == expected, value

