"""Set-up paid once: the memoized interior point and seed sequences, and
the one-pass constructor of ``State``.

``interior_fixed_point`` is memoized per ``Params`` in a bounded
``lru_cache``; it must give :mod:`reference`'s unmemoized value on a
first call and on every later one, raise its errors on every call
(errors are never cached), keep sets one ulp apart apart, and hold at
most 64 entries.  ``check_invariance`` seeds its
generator from a memoized ``SeedSequence``; its reports must equal the
oracle's under any order of seeds, and its draws ``default_rng(seed)``'s.
``State`` converts, validates and sets each field once in its own
``__init__``; it must store what the original dataclass stored and
raise what it raised, in the same precedence, and behave the same
under ``dataclasses``, ``pickle``, ``hash``, ``==`` and ``repr``.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings

import reference
from helpers import SHOWCASE, analysis_params, nudged
from mosquito_allee import InternalConsistencyError, Params, Region, State, check_invariance, dynamics
from mosquito_allee.model import derived_constants
from mosquito_allee.stability import interior_fixed_point

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
    assert dynamics._seed_sequence.cache_info().maxsize <= MEMO_BOUND


def test_check_invariance_under_interleaved_seeds_matches_reference():
    for seed in (0, 1, 0, 2, 1, 1, 0):
        for region, span in ((Region.OMEGA1, None), (Region.OMEGA2, None), (Region.OMEGA2, 0.5)):
            got = check_invariance(SHOWCASE, region, 300, seed, span)
            assert repr(got) == repr(reference.check_invariance(SHOWCASE, region, 300, seed, span))


def test_seed_sequence_draws_are_default_rngs():
    for seed in (0, 1, 0, 2, 1, 2**40, 0):
        memo = dynamics._seed_sequence(seed)
        assert memo is dynamics._seed_sequence(seed)
        state = (memo.entropy, memo.spawn_key, memo.pool_size, memo.n_children_spawned)
        got = np.random.default_rng(memo)
        expected = np.random.default_rng(seed)
        for size in (1, 5, 300):
            assert got.uniform(0.0, 3.0, size).tobytes() == expected.uniform(0.0, 3.0, size).tobytes()
        assert got.integers(0, 2**62, 10).tolist() == expected.integers(0, 2**62, 10).tolist()
        # drawing leaves the memoized sequence as it was
        assert (memo.entropy, memo.spawn_key, memo.pool_size, memo.n_children_spawned) == state


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


def _pairs():
    """The same value built by the package's class and by the original one."""
    for args in ((1.0, 2.0), (0, np.float64(1.5)), ("3", -0.0), (5e-324, 1e308)):
        yield State(*args), reference.OriginalState(*args)


@pytest.mark.parametrize("new, original", list(_pairs()), ids=repr)
def test_dataclass_behaviour_matches_reference(new, original):
    cls, original_cls = type(new), type(original)
    assert [(f.name, f.type, f.default, f.init) for f in dataclasses.fields(new)] == [
        (f.name, f.type, f.default, f.init) for f in dataclasses.fields(original)
    ]
    assert list(inspect.signature(cls).parameters) == list(inspect.signature(original_cls).parameters)
    assert [p.default for p in inspect.signature(cls).parameters.values()] == [
        p.default for p in inspect.signature(original_cls).parameters.values()
    ]
    assert dataclasses.asdict(new) == dataclasses.asdict(original)
    assert dataclasses.astuple(new) == dataclasses.astuple(original)
    assert repr(new).removeprefix(cls.__name__) == repr(original).removeprefix(original_cls.__name__)
    assert hash(new) == hash(original)
    assert new == cls(*dataclasses.astuple(new)) and new != original
    assert len({new, cls(*dataclasses.astuple(new))}) == 1

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(new, protocol))
        assert type(back) is cls and back == new and repr(back) == repr(new)
        assert vars(back) == vars(new)

    with pytest.raises(dataclasses.FrozenInstanceError):
        new.x = 1.0  # type: ignore[misc]
    with pytest.raises(dataclasses.FrozenInstanceError):
        original.x = 1.0  # type: ignore[misc]

    first = dataclasses.fields(new)[0].name
    for value in (7, "0.125", math.nan, -2.0, 0.0, "abc"):
        got = _construct(dataclasses.replace, new, **{first: value})
        expected = _construct(dataclasses.replace, original, **{first: value})
        assert got == expected, value
