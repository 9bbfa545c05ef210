"""Benchmark for mosquito-allee: one workload at one seed, outputs checked.

Run from the root of a checkout:

    python3 bench/run.py --workload basin-growth --seed 0 --seconds 25 --trace 0

It imports the package from ``src/`` of the same checkout (nothing needs
installing) and exits with code 2, printing no result, when ``src/`` is
not there.  Workloads: ``basin-growth``, ``basin-wide``, ``trajectory``,
``analysis``; ``bench/NOTES.md`` says why each was chosen.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs each
round traced and again untraced, for the tracing overhead, then the
layer probe, prints every per-layer metric and writes the spans to
``.bench_out/trace-<workload>.jsonl``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the same figures
for a reader, with ``op_p99_s``, ``error_rate`` and the run's metadata.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
DEFAULT_SEED = 0
SETUP_SAMPLES = 32
# op_p99_s needs at least ten samples beyond the 99th percentile, so
# only analysis, whose rounds hold 1000 operation slots, reports it
P99_MIN_SAMPLES = 1000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("basin-growth", "basin-wide", "trajectory", "analysis"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Setup:
    """Fresh-interpreter import of the CLI, and input generation.

    The set-up is repeated :data:`SETUP_SAMPLES` times, spread evenly over
    the run: the first before the rounds, the others between rounds,
    on the processors the round is pinned to.  Each part reports its
    least contended sample, the same rule as the operations' timings, so
    a slow phase of a shared machine shows in neither.  One untimed
    import first writes the bytecode caches, which every later CLI call
    reuses.
    """

    def __init__(self, workload, seed: int, env: dict, seconds: float):
        self.workload, self.seed, self.env = workload, seed, env
        self.cmd = [sys.executable, "-c", "import mosquito_allee.cli"]
        self.every = seconds / SETUP_SAMPLES
        self.startup: list[float] = []
        self.generate: list[float] = []
        subprocess.run(self.cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=120)
        self.inputs = self.sample()
        self.start = time.perf_counter()

    def sample(self):
        t0 = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True, capture_output=True, timeout=120)
        self.startup.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        inputs = self.workload.inputs(self.seed)
        self.generate.append(time.perf_counter() - t0)
        return inputs

    def between_rounds(self) -> None:
        """Take the next sample once its share of the run has passed."""
        due = self.start + len(self.startup) * self.every
        if len(self.startup) < SETUP_SAMPLES and time.perf_counter() >= due:
            self.sample()

    def finish(self) -> None:
        """Take any samples a short run left out."""
        while len(self.startup) < SETUP_SAMPLES:
            self.sample()

    @property
    def startup_s(self) -> float:
        return min(self.startup)

    @property
    def setup_s(self) -> float:
        return min(self.startup) + min(self.generate)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def traced_run(workload, setup, ctx, tracer, seconds, expected, probe_tally):
    """Rounds traced and untraced, then the replay, probe and model timings.

    Each round runs once traced and once untraced, in alternating order,
    so that a slow phase of a shared machine hits both alike.  The rounds
    take half of ``seconds``, so that the replay, the probe and the model
    timings keep the whole run near ``seconds``.
    """
    import layers
    from spans import OFF
    from workloads import RunResult, run_rounds

    inputs = setup.inputs
    run = RunResult()
    untraced = RunResult(tally=run.tally)
    start = time.perf_counter()
    for r in itertools.count():
        for traced in ((True, False) if r % 2 == 0 else (False, True)):
            ctx.tracer = tracer if traced else OFF
            with tracer.instrument(layers.TARGETS if traced else ()):
                into = run if traced else untraced
                run_rounds(workload, inputs, ctx, 0.0, expected, into, rounds=1, first=r, between=setup.between_rounds)
        if time.perf_counter() - start >= seconds / 2:
            break
    setup.finish()
    ctx.tracer = tracer
    with tracer.instrument(layers.TARGETS):
        tracer.op = "replay"
        pairs, problems = workload.replay(ctx, inputs)
        probe_tally.record(problems, None)
        probe_pairs, out_bytes = layers.probe(ctx, probe_tally)
        tracer.op = layers.MODEL_OP
        micro = layers.time_model(tracer, workload.states(inputs, run.first_round))
    overhead_s = run.program_s - untraced.program_s
    metrics = layers.layer_metrics(
        tracer, pairs + probe_pairs, out_bytes, micro, setup.startup_s, overhead_s, untraced.program_s
    )
    return run, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mosquito_allee" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    import numpy as np

    import mosquito_allee
    from spans import Tracer
    from workloads import WORKLOADS, Context, Tally, run_rounds

    if Path(mosquito_allee.__file__).resolve().parent != SRC / "mosquito_allee":
        print(f"error: imported mosquito_allee from {mosquito_allee.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    stored = json.loads((BENCH / "digests.json").read_text())
    expected = stored["workloads"][workload.name] if args.seed == stored["seed"] else None
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(ROOT),
    }

    # the layer probe's operations, counted apart so that error_rate
    # covers the workload's own operations only
    probe_tally = Tally()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        ctx = Context(ROOT, Path(tmp))
        # a traced run spends half of its time on rounds
        setup = Setup(workload, args.seed, ctx.env, args.seconds / (2 if args.trace else 1))
        if not args.trace:
            run = run_rounds(workload, setup.inputs, ctx, args.seconds, expected, between=setup.between_rounds)
            setup.finish()
            metrics = {
                "items_per_s": (run.items_per_s, "1/s"),
                "op_p50_s": (run.op_p50_s, "s"),
                "setup_s": (setup.setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            meta["tracing_overhead_s"] = None
        else:
            tracer = Tracer()
            run, metrics = traced_run(workload, setup, ctx, tracer, args.seconds, expected, probe_tally)
            meta["tracing_overhead_s"] = metrics["trace.overhead_s"][0]
            tracer.dump(out_dir / f"trace-{workload.name}.jsonl", meta)

    tally = run.tally
    # printed for a reader, not in the JSON result (see NOTES.md)
    reported = {"error_rate": (tally.error_rate, "ratio")}
    if not args.trace and len(run.slot_minima) >= P99_MIN_SAMPLES:
        reported["op_p99_s"] = (float(np.quantile(run.slot_minima, 0.99)), "s")
    extra = {"rounds": run.rounds, "operations": len(run.op_seconds), "known_defects": tally.known_defects}
    extra["round_digest"] = run.round_digests[0]
    extra["stored_digest"] = "compared" if expected else f"not compared (seed is not {stored['seed']})"
    print(f"workload {workload.name}: {tally.attempted} operations, {tally.failed} failed, item = {workload.item}")
    if probe_tally.attempted:
        print(f"layer probe: {probe_tally.attempted} operations, {probe_tally.failed} failed")
    for name, (value, unit) in {**metrics, **reported}.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    for name, value in extra.items():
        print(f"  {name:48s} {value}")
    for problem in tally.problems + probe_tally.problems:
        print(f"  problem: {problem}")
    print("meta " + json.dumps(meta))
    failed = tally.failed + probe_tally.failed
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted + probe_tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
