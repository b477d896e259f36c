"""Benchmark of acgw: closed-loop workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload set_les --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, a table

One process runs one workload as a closed loop: a single caller starts
each operation when the previous one has finished, cycling through the
workload's pool in whole passes until ``--seconds`` have elapsed and at
least 100 operations were attempted.  The program sees only generated
document text.  With ``--trace 0`` the run is untraced and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes over the pool and reports the per-layer metrics.  The last line
of standard output is one JSON object; a readable table goes to
standard error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: so that at least ten samples lie beyond the 90th percentile
MIN_OPS = 100
#: upper limit of one timed loop, whatever ``--seconds`` and ``MIN_OPS`` ask
HARD_CAP_S = 150.0
#: setups measured per run (this process plus fresh child processes)
SETUPS = 7
#: kernel samples before and after a set-up that convert its time to
#: reference seconds
SETUP_SAMPLES = 5

END_TO_END = {
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: a measured value with ``(1-q)`` of the
    samples above it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def setup(wl, seed: int):
    """``import acgw`` plus input generation, timed in reference seconds
    by kernel samples taken right before and right after it."""
    from perfbench.hostspeed import HostSpeed
    from perfbench.tracer import LAYERS

    speed = HostSpeed()
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    start = time.perf_counter()
    lib = types.SimpleNamespace(**{n: importlib.import_module(f"acgw.{n}") for n in LAYERS})
    ops = wl.build(random.Random(seed), ROOT)
    end = time.perf_counter()
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    return (end - start) * speed.scale(speed.at[0], speed.at[-1]), lib, ops


def setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Outcomes:
    """Latency, answer and verdict of every attempted operation."""

    def __init__(self):
        self.latency: list[float] = []
        self.failed: Counter[str] = Counter()
        self.attempted: Counter[str] = Counter()
        self.errors: Counter[tuple[str, str]] = Counter()
        self.spans: list[tuple[float, float]] = []

    def run_pass(self, wl, lib, ops, on_op=None, speed=None) -> tuple[float, list]:
        """One pass over ``ops``; with ``speed`` (a :class:`HostSpeed`)
        the kernel is sampled between operations and every operation's
        start and end are kept in ``self.spans``."""
        answers = []
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if on_op:
                on_op(i)
            if speed:
                speed.tick()
            t0 = time.perf_counter()
            try:
                answer, ok = wl.run(lib, op), True
            except Exception as exc:  # any failure of the program fails the operation
                answer, ok = f"{type(exc).__name__}: {exc}", False
            t1 = time.perf_counter()
            self.latency.append(t1 - t0)
            self.spans.append((t0, t1))
            self.attempted[op.slice] += 1
            if not ok:
                self.failed[op.slice] += 1
                self.errors[(op.slice, answer[:160])] += 1
            answers.append((ok, answer))
        return time.perf_counter() - start, answers

    def correct(self, known_defects: frozenset[str]) -> bool:
        return all(s in known_defects for s in self.failed)


def run_untraced(wl, lib, ops, seconds: float) -> tuple[Outcomes, dict]:
    """Whole passes over the pool, with the calibration kernel sampled
    between operations.  Each operation's time is converted to reference
    seconds by the kernel samples around it (see ``hostspeed``), so that
    a run falling in a slow phase of a shared machine reads like one in
    a quiet phase.  The percentiles are over every attempted operation;
    throughput is passed operations over the loop's reference time."""
    from perfbench.hostspeed import REF_S, HostSpeed

    out = Outcomes()
    speed = HostSpeed()
    gc.collect()
    start = time.perf_counter()
    while True:
        out.run_pass(wl, lib, ops, speed=speed)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(out.latency) >= MIN_OPS) or elapsed >= HARD_CAP_S:
            break
    speed.sample()
    ref = [speed.reference_s(t0, t1) for t0, t1 in out.spans]
    passed = len(out.latency) - sum(out.failed.values())
    print(
        f"  wall-clock: op_p50 {percentile(out.latency, 0.5):.6g} s,"
        f" op_p90 {percentile(out.latency, 0.9):.6g} s;"
        f" kernel median {statistics.median(speed.took) / REF_S:.3f} x reference"
        f" over {len(speed.took)} samples",
        file=sys.stderr,
    )
    return out, {
        "op_p50_s": percentile(ref, 0.5),
        "op_p90_s": percentile(ref, 0.9),
        "ops_per_s": passed / sum(ref),
        "ok_ratio": passed / len(out.latency),
    }


def run_traced(wl, lib, ops, seconds: float, seed: int) -> tuple[Outcomes, dict, list[str]]:
    from perfbench.tracer import LAYERS, Tracer, aggregate, per_layer_metric_names

    out = Outcomes()
    tracer = Tracer()
    problems: list[str] = []
    untraced_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        t_plain, plain = out.run_pass(wl, lib, ops)
        gc.collect()

        def on_op(i: int, base=passes * len(ops)) -> None:
            tracer.op = base + i

        with tracer:
            t_traced, traced = out.run_pass(wl, lib, ops, on_op)
        untraced_s += t_plain
        traced_s += t_traced
        passes += 1
        bad = [i for i, (a, b) in enumerate(zip(plain, traced)) if a != b]
        if bad:
            problems.append(f"traced answers differ from untraced ones at ops {bad[:5]}")
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= HARD_CAP_S:
            break

    agg = aggregate(tracer.spans)
    layer_calls = Counter()
    for name, n in agg["calls"].items():
        layer_calls[name.split(".", 1)[0]] += n
    for layer in wl.active_layers:
        if not layer_calls[layer]:
            problems.append(f"layer {layer} is active in {wl.name} but recorded no calls")
    metrics: dict[str, float] = {}
    for name in per_layer_metric_names():
        if name.endswith(".calls"):
            metrics[name] = agg["calls"][name[: -len(".calls")]] / passes
        elif name.removesuffix(".self_s") in LAYERS:
            metrics[name] = agg["layer_s"][name.removesuffix(".self_s")] / passes
        elif name.endswith(".self_s"):
            metrics[name] = agg["self_s"][name[: -len(".self_s")]] / passes
    metrics["homology.prims_per_call"] = agg["prims_per_call"]
    metrics["linear.rref.cells"] = tracer.rref_cells / passes
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{wl.name}-seed{seed}.tsv"), len(ops))
    return out, metrics, problems


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def report(wl, out: Outcomes, metrics: dict, problems: list[str]) -> dict:
    correct = out.correct(wl.known_defects) and not problems
    result = {
        "correct": correct,
        "attempted": len(out.latency),
        "failed": sum(out.failed.values()),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    err = sys.stderr
    print(f"== {wl.name}: {wl.why}", file=err)
    for k, v in metrics.items():
        print(f"  {k:<42} {v:>14.6g} {unit_of(k)}", file=err)
    for s in sorted(out.attempted):
        print(f"  slice {s:<24} attempted {out.attempted[s]:>7} failed {out.failed[s]:>6}", file=err)
    for (s, msg), n in sorted(out.errors.items()):
        print(f"  failure x{n} [{s}] {msg}", file=err)
    for p in problems:
        print(f"  PROBLEM {p}", file=err)
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[name]
    setup_s, lib, ops = setup(wl, seed)
    if trace:
        out, metrics, problems = run_traced(wl, lib, ops, seconds, seed)
    else:
        setups = [setup_s] + [setup_in_child(name, seed) for _ in range(SETUPS - 1)]
        out, metrics = run_untraced(wl, lib, ops, seconds)
        problems = []
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return report(wl, out, metrics, problems)


def run_all(args) -> int:
    """Every workload in its own process; prints every metric with its unit."""
    from perfbench.workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<42} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "acgw", "__init__.py")):
        print(f"error: no acgw sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        print(setup(WORKLOADS[args.workload], args.seed)[0])
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
