"""Acceptance gate: one test per shipped claim, one printed line per result.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; each
test prints exactly one ``criterion NN (...): PASS/FAIL`` line with the
measured quantities, then asserts.
"""

from __future__ import annotations

import time

import numpy as np

from helpers import SHOWCASE, identity_params, interior_params, origin_only_params, valid_params
from mosquito_allee import (
    Region,
    Stability,
    State,
    Verdict,
    check_invariance,
    classify_fate,
    classify_interior,
    interior_fixed_point,
    jacobian_at,
    step_w0,
    sum_identity_residual,
)
from mosquito_allee.cli import main as cli_main


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} ({name}): {status} [{detail}]")
    assert ok, f"criterion {number:02d} ({name}) failed: {detail}"


def test_criterion_01_interior_fixed_point_reproduction():
    fp = interior_fixed_point(SHOWCASE)
    err = max(abs(fp.x - 4.0), abs(fp.y - 1.6))
    # the memo's unwrapped function: a cache hit would time a lookup
    elapsed = min(
        _timed(lambda: interior_fixed_point.__wrapped__(SHOWCASE)) for _ in range(5)
    )
    ok = err <= 1e-12 and elapsed < 1e-3
    _report(1, "interior fixed-point reproduction", ok, f"max err {err:.3g}, runtime {elapsed * 1e3:.3f} ms")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_reference_fates_high_adult_starts():
    t_ext = time.perf_counter()
    ext = classify_fate(SHOWCASE, State(0.2, 4.0), budget=10**6)
    t_ext = time.perf_counter() - t_ext
    t_grow = time.perf_counter()
    grow = classify_fate(SHOWCASE, State(0.2, 5.0), budget=10**6)
    t_grow = time.perf_counter() - t_grow

    ext_ok = ext.verdict is Verdict.EXTINCTION and max(ext.final_state.x, ext.final_state.y) <= 1e-9
    est_err = abs(grow.y_limit_estimate - 2.0) if grow.y_limit_estimate is not None else float("inf")
    grow_ok = grow.verdict is Verdict.UNBOUNDED_GROWTH and est_err <= 1e-6
    ok = ext_ok and grow_ok and t_ext < 1.0 and t_grow < 1.0
    _report(
        2,
        "reference fates, high-adult starts",
        ok,
        f"(0.2,4)->{ext.verdict.value}@{ext.iterations_used} in {t_ext:.3f}s; "
        f"(0.2,5)->{grow.verdict.value}, limit err {est_err:.3g}, in {t_grow:.3f}s",
    )


def test_criterion_03_reference_fates_low_adult_starts():
    t_ext = time.perf_counter()
    ext = classify_fate(SHOWCASE, State(5.6, 0.2), budget=10**6)
    t_ext = time.perf_counter() - t_ext
    t_grow = time.perf_counter()
    grow = classify_fate(SHOWCASE, State(7.0, 0.2), budget=10**6)
    t_grow = time.perf_counter() - t_grow

    est_err = abs(grow.y_limit_estimate - 2.0) if grow.y_limit_estimate is not None else float("inf")
    ok = (
        ext.verdict is Verdict.EXTINCTION
        and grow.verdict is Verdict.UNBOUNDED_GROWTH
        and est_err <= 1e-6
        and t_ext < 1.0
        and t_grow < 1.0
    )
    _report(
        3,
        "reference fates, low-adult starts",
        ok,
        f"(5.6,0.2)->{ext.verdict.value}@{ext.iterations_used} in {t_ext:.3f}s; "
        f"(7,0.2)->{grow.verdict.value}, limit err {est_err:.3g}, in {t_grow:.3f}s",
    )


def test_criterion_04_origin_eigenvalues_closed_form():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        p = valid_params(rng)
        closed = np.sort([1.0 - p.alpha, 1.0 - p.mu])
        numeric = np.sort(np.linalg.eigvals(jacobian_at(p, State(0.0, 0.0))).real)
        worst = max(worst, float(np.max(np.abs(numeric - closed))))
    ok = worst <= 1e-12
    _report(4, "origin eigenvalues, closed form vs solver", ok, f"1000 sets, max diff {worst:.3g}")


def test_criterion_05_threshold_classification():
    result = classify_interior(SHOWCASE)
    a = result.analysis
    err1 = abs(a.alpha1 - 2.56)
    err2 = abs(a.alpha2 - 0.16)
    # independent root-finder on the same quadratic
    pp = SHOWCASE.gamma * SHOWCASE.mu**2 / (SHOWCASE.beta - SHOWCASE.mu)
    qq = SHOWCASE.beta * (2.0 - SHOWCASE.mu) / (2.0 * SHOWCASE.beta + SHOWCASE.mu * (SHOWCASE.beta - SHOWCASE.mu))
    roots = np.sort(np.roots([1.0, -2.0 * (pp + qq), pp * pp]))
    solver_err = max(abs(roots[1] - a.alpha1), abs(roots[0] - a.alpha2))
    straddle = min(a.moduli) < 1.0 < max(a.moduli)
    ok = (
        err1 <= 1e-9
        and err2 <= 1e-9
        and solver_err <= 1e-12
        and result.stability is Stability.SADDLE
        and straddle
    )
    _report(
        5,
        "interior thresholds and saddle type",
        ok,
        f"|alpha1-2.56|={err1:.3g}, |alpha2-0.16|={err2:.3g}, solver diff {solver_err:.3g}, "
        f"label {result.stability.value}, moduli {a.moduli[0]:.6f}/{a.moduli[1]:.6f}",
    )


def test_criterion_06_invariance_sampling():
    rng = np.random.default_rng(106)
    start = time.perf_counter()
    escapes = 0
    for i in range(20):
        p = interior_params(rng)
        for region in (Region.OMEGA1, Region.OMEGA2):
            escapes += check_invariance(p, region, samples=10_000, seed=1000 + i).escapes
    elapsed = time.perf_counter() - start
    ok = escapes == 0 and elapsed < 5.0
    _report(
        6,
        "one-step invariance of both regions",
        ok,
        f"20 sets x 2 regions x 10000 samples, {escapes} escapes, {elapsed:.2f}s",
    )


def test_criterion_07_sum_identity():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(10_000):
        p = identity_params(rng)
        s = State(float(rng.uniform(0.0, 1e6)), float(rng.uniform(0.0, 100.0)))
        worst = max(worst, abs(sum_identity_residual(p, s)))
    ok = worst <= 1e-12
    _report(7, "total-population identity", ok, f"10000 pairs, max |residual| {worst:.3g}")


def test_criterion_08_low_adult_extinction_without_interior_point():
    rng = np.random.default_rng(108)
    start = time.perf_counter()
    failures = 0
    worst_iter = 0
    for _ in range(100):
        p = origin_only_params(rng)
        cap = p.alpha / p.mu
        for _ in range(10):
            s0 = State(float(rng.uniform(0.0, 50.0)), float(rng.uniform(0.0, cap)))
            outcome = classify_fate(p, s0, budget=10**6)
            worst_iter = max(worst_iter, outcome.iterations_used)
            if outcome.verdict is not Verdict.EXTINCTION:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _report(
        8,
        "extinction whenever adults start at or below the cap (no interior point)",
        ok,
        f"100 sets x 10 starts, {failures} non-extinctions, worst {worst_iter} iters, {elapsed:.2f}s",
    )


def test_criterion_09_region_starts_resolve_as_proven():
    rng = np.random.default_rng(109)
    failures = 0
    worst_limit_err = 0.0
    for _ in range(20):
        p = interior_params(rng)
        fp = interior_fixed_point(p)
        cap = p.alpha / p.mu
        for _ in range(3):
            s0 = State(float(rng.uniform(0.0, fp.x * 0.999)), float(rng.uniform(0.0, fp.y * 0.999)))
            if classify_fate(p, s0, budget=10**6).verdict is not Verdict.EXTINCTION:
                failures += 1
        for _ in range(3):
            s0 = State(fp.x + float(rng.uniform(0.001, 10.0)), fp.y + float(rng.uniform(0.001, 10.0)))
            outcome = classify_fate(p, s0, budget=10**6)
            if outcome.verdict is not Verdict.UNBOUNDED_GROWTH or outcome.y_limit_estimate is None:
                failures += 1
                continue
            worst_limit_err = max(worst_limit_err, abs(outcome.y_limit_estimate - cap))
    ok = failures == 0 and worst_limit_err <= 1e-6
    _report(
        9,
        "invariant-region starts resolve to their proven fates",
        ok,
        f"20 sets x (3+3) starts, {failures} wrong verdicts, worst limit err {worst_limit_err:.3g}",
    )


def test_criterion_10_jacobian_matches_finite_differences():
    rng = np.random.default_rng(110)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        p = valid_params(rng)
        s = State(float(rng.uniform(0.001, 50.0)), float(rng.uniform(0.001, 50.0)))
        jac = jacobian_at(p, s)

        def f(x: float, y: float) -> np.ndarray:
            image = step_w0(p, State(x, y))
            return np.array([image.x, image.y])

        fd = np.empty((2, 2))
        fd[:, 0] = (f(s.x + h, s.y) - f(s.x - h, s.y)) / (2.0 * h)
        fd[:, 1] = (f(s.x, s.y + h) - f(s.x, s.y - h)) / (2.0 * h)
        worst = max(worst, float(np.linalg.norm(fd - jac) / np.linalg.norm(jac)))
    ok = worst <= 1e-6
    _report(10, "Jacobian vs finite differences", ok, f"100 states, h=1e-6, worst rel err {worst:.3g}")


def test_criterion_11_basin_csv_determinism(tmp_path):
    base = [
        "basin",
        "--alpha", "0.8", "--beta", "0.9", "--gamma", "2.0", "--mu", "0.4",
        "--x-min", "0", "--x-max", "7", "--y-min", "0", "--y-max", "5",
        "--nx", "3", "--ny", "3", "--budget", "20000",
    ]
    paths = [tmp_path / f"run_{i}.csv" for i in range(4)]
    codes = [
        cli_main([*base, "--workers", w, "--out", str(path)])
        for w, path in zip(("1", "1", "2", "3"), paths)
    ]
    blobs = [p.read_bytes() for p in paths]
    identical = all(b == blobs[0] for b in blobs)
    ok = all(c == 0 for c in codes) and identical
    _report(
        11,
        "basin CSV byte-identical across runs and worker counts",
        ok,
        f"4 runs (workers 1,1,2,3), identical={identical}, {len(blobs[0])} bytes",
    )
