"""Per-layer measurements for a traced run.

Spans are recorded around calls into the package's four modules.
:data:`TARGETS` wraps the names the package looks up at call time, so
``basin_scan`` -> ``classify_fate`` -> ``interior_fixed_point`` nest as
parent and child spans.  ``model`` calls are too short to wrap one by
one, so :func:`time_model` times them in batches on the workload's own
states, and the model layer's self time is estimated from those costs
(see :func:`layer_metrics`).  :func:`probe` is one fixed pass over every
layer on the showcase parameters; it runs in every traced run so that
every metric has a value on every workload, and the workload's own
calls add to the same spans.

The end-to-end metric each layer metric should move:

* ``model.step_w0`` and ``model.state``: trajectory ``items_per_s``,
  since ``iterate`` builds one ``State`` per step.
* ``model.kernel``: analysis ``items_per_s`` now, and ``basin-*`` once
  stepping runs on arrays.
* ``dynamics.classify_fate``: the unbounded figure moves basin-growth
  ``items_per_s``, the extinction figure basin-wide; the certified
  share relates to basin-growth.
* ``dynamics.iterate``: trajectory ``items_per_s`` and ``op_p50_s``.
* ``dynamics.basin_scan``: basin-wide ``items_per_s`` and ``peak_rss_mb``;
  the pool figures none, since basin-wide runs one worker.
* ``dynamics.check_invariance``: analysis ``items_per_s``.
* ``stability.find_fixed_points`` and ``classify_interior``: analysis
  ``op_p50_s``, ``op_p99_s`` and ``error_rate``.
* ``stability.interior_fixed_point``: basin-wide ``items_per_s`` (it
  runs once per cell).
* ``cli.startup_s``: ``setup_s`` everywhere and trajectory ``op_p50_s``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import mosquito_allee.dynamics as dynamics
import mosquito_allee.model as model
import mosquito_allee.stability as stability
from mosquito_allee import Params, Region, State, derived_constants, membership

from workloads import SHOWCASE, Context, Tally, exit_problems, param_args, run_cli, scan_pair


def _fate(args, kwargs, outcome) -> dict:
    p, s0 = args[0], args[1]
    return {
        "params": [p.alpha, p.beta, p.gamma, p.mu],
        "start": [s0.x, s0.y],
        "steps": outcome.iterations_used,
        "verdict": outcome.verdict.value,
    }


def _iterate(args, kwargs, trajectory) -> dict:
    # s0 is the caller's; iterate builds one State per step it takes
    return {"steps": trajectory.n_steps, "kept": len(trajectory.points) - 1}


def _scan(args, kwargs, grid) -> dict:
    steps = sum(o.iterations_used for column in grid.cells for o in column)
    return {"cells": grid.nx * grid.ny, "steps": steps, "workers": kwargs.get("workers", 1)}


def _invariance(args, kwargs, report) -> dict:
    return {"samples": report.samples}


TARGETS = (
    (dynamics, "basin_scan", "dynamics.basin_scan", _scan),
    (dynamics, "classify_fate", "dynamics.classify_fate", _fate),
    (dynamics, "iterate", "dynamics.iterate", _iterate),
    (dynamics, "check_invariance", "dynamics.check_invariance", _invariance),
    (dynamics, "interior_fixed_point", "stability.interior_fixed_point", None),
    (stability, "find_fixed_points", "stability.find_fixed_points", None),
    (stability, "classify_interior", "stability.classify_interior", None),
    (stability, "interior_fixed_point", "stability.interior_fixed_point", None),
)

PROBE_BUDGET = 100_000
# the op under which time_model's batches run
MODEL_OP = "model"
CLI_PROBE = (
    ("simulate", ["--x0", "0.2", "--y0", "5", "--budget", str(PROBE_BUDGET)]),
    ("basin", ["--x-min", "0", "--x-max", "7", "--y-min", "0", "--y-max", "5", "--nx", "6", "--ny", "5", "--budget", "10000"]),
    ("fixed-points", []),
    ("check", ["--samples", "10000", "--seed", "0"]),
)
CLI_OUTPUTS = ("simulate", "basin")


def probe(ctx: Context, tally: Tally) -> tuple[list[dict], dict[str, int]]:
    """One fixed pass over every layer on the showcase parameters.

    Returns the 1-vs-2-worker scan timings and the byte counts of the
    CLI outputs.  Every call counts as an operation in ``tally``.
    """
    ctx.tracer.op = "probe"
    p = SHOWCASE
    growth, extinction = State(0.2, 5.0), State(1.0, 1.0)
    calls = (
        lambda: dynamics.classify_fate(p, growth, PROBE_BUDGET),
        lambda: dynamics.classify_fate(p, extinction, PROBE_BUDGET),
        lambda: dynamics.iterate(p, growth, PROBE_BUDGET),
        lambda: dynamics.check_invariance(p, Region.OMEGA1, 10_000, 0),
        lambda: dynamics.check_invariance(p, Region.OMEGA2, 10_000, 1),
        lambda: stability.find_fixed_points(p),
    )
    for call in calls:
        try:
            call()
        except Exception as exc:  # counted as a failed operation
            tally.record([], exc)
        else:
            tally.record([], None)
    pair, problems = scan_pair(ctx, p, (0.0, 7.0), (0.0, 5.0), 6, 5, 10_000)
    tally.record(problems, None)

    out_bytes = {}
    for sub, extra in CLI_PROBE:
        out = ctx.tmp / f"probe-{sub}.out"
        args = [sub, *param_args(p), *extra] + (["--out", str(out)] if sub in CLI_OUTPUTS else [])
        proc = run_cli(ctx, args, "cli." + sub.replace("-", "_"))
        tally.record(exit_problems(proc), None)
        if sub in CLI_OUTPUTS:
            out_bytes[sub] = out.stat().st_size if out.exists() else 0
    return [pair], out_bytes


def _ns_per_unit(tracer, name: str, fn, units: int, repeats: int = 5, min_s: float = 0.02) -> float:
    """Median over ``repeats`` batches of ns per unit; ``fn`` does ``units``."""
    t0 = time.perf_counter()
    fn()
    loops = max(1, int(min_s / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(repeats):
        with tracer.span(name, units=units * loops) as s:
            for _ in range(loops):
                fn()
        samples.append(s.seconds / (units * loops))
    return 1e9 * statistics.median(samples)


def time_model(tracer, states: list[tuple[Params, float, float]], kernel_elems: int = 1 << 16) -> dict[str, float]:
    """``step_w0``, ``State`` and the kernel, on floats and on arrays, on the workload's states."""
    states = states[:2048]
    pairs = [(p, State(x, y)) for p, x, y in states]
    coords = [(x, y) for _, x, y in states]
    scalars = [(p.alpha, p.beta, p.gamma, p.mu, x, y) for p, x, y in states]
    reps = -(-kernel_elems // len(states))
    columns = zip(*[(p.alpha, p.beta, p.gamma, p.mu, x, y) for p, x, y in states])
    cols = [np.tile(np.array(column, dtype=float), reps) for column in columns]
    return {
        "step_w0": _ns_per_unit(tracer, "model.step_w0", lambda: [model.step_w0(p, s) for p, s in pairs], len(pairs)),
        "state": _ns_per_unit(tracer, "model.state", lambda: [model.State(x, y) for x, y in coords], len(coords)),
        "kernel_scalar": _ns_per_unit(
            tracer, "model.kernel_scalar", lambda: [model._w0_xy(*args) for args in scalars], len(scalars)
        ),
        "kernel": _ns_per_unit(tracer, "model.kernel", lambda: model._w0_xy(*cols), len(cols[0])),
    }


def certified_at(params: Params, x: float, y: float, steps: int, has_interior: bool) -> int:
    """First step at which the orbit lies in a region a theorem covers.

    That is Omega1/Omega2 when the interior fixed point exists, and
    ``y <= alpha/mu`` when it does not.  An orbit never certified within
    ``steps`` counts all of them.
    """
    y_cap = derived_constants(params).y_limit
    s = State(x, y)
    for n in range(steps + 1):
        if has_interior:
            if membership(params, s) in (Region.OMEGA1, Region.OMEGA2):
                return n
        elif s.y <= y_cap:
            return n
        if n < steps:
            s = model.step_w0(params, s)
    return steps


def _per(total: float, count: float, scale: float) -> float:
    return scale * total / count if count else 0.0


def layer_metrics(tracer, pairs, out_bytes, micro, startup_s, overhead_s, untraced_s) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    m: dict[str, tuple[float, str]] = {
        "model.step_w0.ns_per_call": (micro["step_w0"], "ns"),
        "model.state.ns_per_call": (micro["state"], "ns"),
        "model.kernel.ns_per_call": (micro["kernel_scalar"], "ns"),
        "model.kernel.ns_per_elem": (micro["kernel"], "ns"),
    }

    fates = [s for s in tracer.named("dynamics.classify_fate") if "steps" in s.attrs]
    steps = sum(s.attrs["steps"] for s in fates)
    has_interior: dict[tuple, bool] = {}
    certified = 0
    for s in fates:
        key = tuple(s.attrs["params"])
        if key not in has_interior:
            has_interior[key] = stability.interior_fixed_point(Params(*key)) is not None
        certified += certified_at(Params(*key), *s.attrs["start"], s.attrs["steps"], has_interior[key])
    m["dynamics.classify_fate.calls"] = (len(tracer.named("dynamics.classify_fate")), "count")
    m["dynamics.classify_fate.steps"] = (steps, "count")
    m["dynamics.classify_fate.busy_s"] = (sum(s.seconds for s in fates), "s")
    for verdict in ("unbounded", "extinction"):
        chosen = [s for s in fates if s.attrs["verdict"] == verdict]
        m[f"dynamics.classify_fate.{verdict}.ns_per_step"] = (
            _per(sum(s.seconds for s in chosen), sum(s.attrs["steps"] for s in chosen), 1e9),
            "ns",
        )
    m["dynamics.classify_fate.certified_step_share"] = (_per(certified, steps, 1.0), "ratio")

    its = [s for s in tracer.named("dynamics.iterate") if "steps" in s.attrs]
    it_steps = sum(s.attrs["steps"] for s in its)
    m["dynamics.iterate.calls"] = (len(tracer.named("dynamics.iterate")), "count")
    m["dynamics.iterate.steps"] = (it_steps, "count")
    m["dynamics.iterate.ns_per_step"] = (_per(sum(s.seconds for s in its), it_steps, 1e9), "ns")
    m["dynamics.iterate.points_kept_share"] = (_per(sum(s.attrs["kept"] for s in its), it_steps, 1.0), "ratio")

    scans = [s for s in tracer.named("dynamics.basin_scan") if "cells" in s.attrs]
    m["dynamics.basin_scan.cells"] = (sum(s.attrs["cells"] for s in scans), "count")
    m["dynamics.basin_scan.steps"] = (sum(s.attrs["steps"] for s in scans), "count")
    m["dynamics.basin_scan.busy_s"] = (sum(s.seconds for s in scans), "s")
    m["dynamics.basin_scan.pool_overhead_s"] = (
        sum(p["parallel_wall_s"] - p["serial_classify_s"] / p["workers"] for p in pairs),
        "s",
    )
    m["dynamics.basin_scan.parallel_efficiency"] = (
        _per(sum(p["serial_classify_s"] for p in pairs), sum(p["workers"] * p["parallel_wall_s"] for p in pairs), 1.0),
        "ratio",
    )

    inv = [s for s in tracer.named("dynamics.check_invariance") if "samples" in s.attrs]
    m["dynamics.check_invariance.ns_per_sample"] = (
        _per(sum(s.seconds for s in inv), sum(s.attrs["samples"] for s in inv), 1e9),
        "ns",
    )

    fpts = tracer.named("stability.find_fixed_points")
    m["stability.find_fixed_points.calls"] = (len(fpts), "count")
    m["stability.find_fixed_points.us_per_call"] = (_per(sum(s.seconds for s in fpts), len(fpts), 1e6), "us")
    m["stability.find_fixed_points.errors"] = (sum("error" in s.attrs for s in fpts), "count")
    ci = tracer.named("stability.classify_interior")
    m["stability.classify_interior.us_per_call"] = (_per(sum(s.seconds for s in ci), len(ci), 1e6), "us")
    ifp = tracer.named("stability.interior_fixed_point")
    m["stability.interior_fixed_point.ns_per_call"] = (_per(sum(s.seconds for s in ifp), len(ifp), 1e9), "ns")

    m["cli.startup_s"] = (startup_s, "s")
    for sub, _ in CLI_PROBE:
        name = "cli." + sub.replace("-", "_")
        probe_spans = [s for s in tracer.named(name) if s.op == "probe"]
        m[f"{name}.wall_s"] = (sum(s.seconds for s in probe_spans), "s")
    for sub in CLI_OUTPUTS:
        m[f"cli.{sub}.out_bytes"] = (out_bytes.get(sub, 0), "bytes")

    # Model calls inside the stepping loops are not spans, so their time
    # sits in the dynamics spans.  It is estimated from the measured
    # costs: classify_fate calls the kernel once per step, iterate the
    # kernel and State once per step.  Other model calls (Params,
    # derived_constants) stay with their caller.  The batches time_model
    # ran are left out: they are not the workload's work.
    self_s = tracer.self_seconds(skip_op=MODEL_OP)
    model_s = 1e-9 * (steps * micro["kernel_scalar"] + it_steps * (micro["kernel_scalar"] + micro["state"]))
    self_s["dynamics"] = self_s.get("dynamics", 0.0) - model_s
    self_s["model"] = model_s
    for layer in ("model", "dynamics", "stability", "cli"):
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.overhead_share"] = (_per(overhead_s, untraced_s, 1.0), "ratio")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m
