"""Layered benchmark of subexp, run against ``src/`` as checked out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all closed loop, one client, never more than two busy
processes; sizes are in ``workloads.py``, values come from ``--seed``):

* ``cli_calls``: one fresh ``python -m subexp.cli`` process per op, five
  cheap commands in rotation.  Process start and ``import subexp`` are
  most of each call, so import-time work shows here and compute-layer
  work does not.
* ``bulk_jobs``: one op is a 0.2-0.3 s bundle of large library calls across
  scenarios, maximal, joint, lln and envelope, each 8-40 % of the op.
  Throughput of the compute layers, with no import in the loop.
* ``small_jobs``: one op is a 7-11 ms bundle of tiny calls on every layer,
  where validation, ``Fraction`` set-up and numpy dispatch dominate.  It
  catches a change that buys bulk throughput with per-call cost.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
``setup_s`` (median wall time of several fresh interpreters importing
``subexp``, or ``subexp.cli`` for ``cli_calls``), ``ops_per_s`` (ops
completed per second spent inside them), ``latency_p50_ms``,
``latency_p75_ms`` and ``peak_rss_mb`` (of this process, or the largest
CLI child).  With ``--trace 1`` it holds the per-layer metrics of a
separate traced run (see ``tracing.py``).  Diagnostics that must not be
used to scale anything (CPU affinity, a fixed pure-Python spin loop timed
before and after the workload, the op digest, the sample count) go to
stderr.  The run fails, printing no result, when ``src/subexp`` is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # write nothing under src/ or next to this file

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_LAUNCHES = 7
SPIN_LOOPS = 1_000_000
SPINS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p75_ms": "ms",
    "peak_rss_mb": "MB",
}


def spin_ms() -> float:
    """A fixed pure-Python loop, timed: a host-speed diagnostic only."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(SPIN_LOOPS):
        acc += i
    return (time.perf_counter() - t0) * 1e3


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


class Loop:
    """Outcome of a closed loop of ops: latencies, failures, output digests."""

    def __init__(self, period: int):
        self.period = period
        self.latencies: list[float] = []
        self.check_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.first_error: str | None = None

    def run(self, i: int, op, check) -> float | None:
        """One op and its check; returns the op's seconds, or None if it failed."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = op()
            t1 = time.perf_counter()
            d = check(i, out)
            if self.digests.setdefault(i % self.period, d) != d:
                raise RuntimeError(f"op {i}: same inputs gave output digest {d}, earlier {self.digests[i % self.period]}")
            self.check_s += time.perf_counter() - t1
            return t1 - t0
        except Exception as exc:  # a failing op is counted, and the run goes on
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"op {i}: {type(exc).__name__}: {exc}"
            return None

    def digest(self) -> str:
        return ",".join(f"{k}:{self.digests[k]}" for k in sorted(self.digests))


def child_env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def launch_s(code: str, env: dict) -> float:
    """Wall time of a fresh interpreter running ``python -c code``."""
    from workloads import run_child

    wall, exit_code, _rss = run_child([sys.executable, "-c", code], env, str(ROOT))
    if exit_code != 0:
        raise RuntimeError(f"python -c {code!r} exited {exit_code}")
    return wall


class Launches:
    """Fresh-interpreter launches spread evenly over the measuring window.

    The host's speed drifts over seconds, so launches made back to back
    would all meet the same host state; spread out, they meet what the ops
    meet, and their median is steadier.
    """

    def __init__(self, count: int, seconds: float, launch):
        self.count = count
        self.every = seconds / count
        self.launch = launch
        self.done = 0

    def poll(self, elapsed: float) -> None:
        if self.done < self.count and elapsed >= self.done * self.every:
            self.launch()
            self.done += 1

    def finish(self) -> None:
        while self.done < self.count:
            self.launch()
            self.done += 1


def end_to_end(workload, seconds: float, env: dict) -> tuple[Loop, dict]:
    setup = []
    launches = Launches(SETUP_LAUNCHES, seconds, lambda: setup.append(launch_s(f"import {workload.setup_module}", env)))
    loop = Loop(workload.period)
    i = 0
    for _ in range(workload.warmup):
        loop.run(i, lambda: workload.op(i), workload.check)
        i += 1
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds:
        launches.poll(elapsed)
        dt = loop.run(i, lambda: workload.op(i), workload.check)
        if dt is not None:
            loop.latencies.append(dt)
        i += 1
    launches.finish()
    setup_s = statistics.median(setup)
    lat = loop.latencies
    if workload.in_process:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak_rss = workload.peak_rss_mb
    metrics = {}
    if lat:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p75_ms": percentile(lat, 75) * 1e3,
            "peak_rss_mb": peak_rss,
        }
    return loop, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def per_layer(workload, seconds: float, env: dict, spans_path: Path) -> tuple[Loop, dict]:
    from tracing import Tracer

    interpreter_s, import_s = [], []

    def launch_pair():
        interpreter_s.append(launch_s("pass", env))
        import_s.append(launch_s("import subexp.cli", env))

    tracer = Tracer()
    loop = Loop(workload.period)

    def traced(i: int, counting: bool):
        with tracer.installed(), tracer.op(i, counting):
            return workload.library_op(i, tracer)

    for i in range(workload.period):
        loop.run(i, lambda: traced(i, True), workload.check)

    launches = Launches(SETUP_LAUNCHES, seconds, launch_pair)
    calls, traced_lat, plain_lat = [], [], []
    traced_check_s = 0.0
    start = time.perf_counter()
    i = 0
    while (elapsed := time.perf_counter() - start) < seconds:
        if workload.in_process:
            launches.poll(elapsed)
        else:
            # interpreter and import launches interleaved with the calls, so
            # that host drift moves all three alike
            calls.append(loop.run(i, lambda: workload.op(i), workload.check))
            launch_pair()
        # alternate which side runs first so that neither always follows the other
        for is_traced in ((True, False) if i % 2 == 0 else (False, True)):
            before = loop.check_s
            if is_traced:
                traced_lat.append(loop.run(i, lambda: traced(i, False), workload.check))
                traced_check_s += loop.check_s - before
            else:
                plain_lat.append(loop.run(i, lambda: workload.library_op(i), workload.check))
        i += 1
    if workload.in_process:
        launches.finish()
    loop.latencies = [v for v in (plain_lat if workload.in_process else calls) if v is not None]

    def med(values):
        ok = [v for v in values if v is not None]
        return statistics.median(ok) if ok else 0.0

    metrics = tracer.layer_metrics(traced_check_s * 1e3 / max(len(traced_lat), 1))
    interpreter_ms = statistics.median(interpreter_s) * 1e3
    import_ms = statistics.median(import_s) * 1e3 - interpreter_ms
    # the CLI layer is exercised only by cli_calls; elsewhere its call
    # metrics are 0
    main_ms = 0.0 if workload.in_process else med(plain_lat) * 1e3
    teardown_ms = 0.0 if workload.in_process else med(calls) * 1e3 - interpreter_ms - import_ms - main_ms
    metrics.update(
        {
            "cli.interpreter_ms": (interpreter_ms, "ms"),
            "cli.import_ms": (import_ms, "ms"),
            "cli.main_ms": (main_ms, "ms"),
            "cli.teardown_ms": (teardown_ms, "ms"),
            "trace.overhead_ratio": (med(traced_lat) / med(plain_lat) if med(plain_lat) else 0.0, "ratio"),
            "host.cpus": (len(os.sched_getaffinity(0)), "count"),
            "error_rate": (loop.failed / loop.attempted, "ratio"),
        }
    )
    wall = med(calls) * 1e3
    if wall:
        print(f"perfbench: interpreter+import share of call wall time {(interpreter_ms + import_ms) / wall:.3f}",
              file=sys.stderr)
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    print(f"perfbench: {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}", file=sys.stderr)
    return loop, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli_calls", "bulk_jobs", "small_jobs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "subexp" / "__init__.py").is_file():
        print(f"perfbench: no subexp sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads

    spins = [spin_ms() for _ in range(SPINS)]
    env = child_env()
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        if cls.in_process:
            workload = cls(args.seed, str(workdir))
        else:
            workload = cls(args.seed, str(workdir), env, str(ROOT))
        if args.trace:
            spans = ROOT / ".bench_out" / f"spans-{args.workload}.jsonl"
            loop, metrics = per_layer(workload, args.seconds, env, spans)
        else:
            loop, metrics = end_to_end(workload, args.seconds, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spins += [spin_ms() for _ in range(SPINS)]
    if args.trace:
        metrics["host.spin_ms"] = (statistics.median(spins), "ms")

    n = len(loop.latencies)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"affinity={sorted(os.sched_getaffinity(0))} spin_ms={[round(s, 1) for s in spins]} "
        f"samples={n} beyond_p75={n - (3 * n) // 4} digest={loop.digest()}",
        file=sys.stderr,
    )
    if loop.first_error:
        print(f"perfbench: {loop.failed} of {loop.attempted} ops failed; first: {loop.first_error}", file=sys.stderr)
    result = {
        "correct": loop.failed == 0 and bool(metrics),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
