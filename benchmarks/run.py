"""polymut benchmark: closed-loop workloads, one caller, one call at a time.

Run from the repository root:

    python3 benchmarks/run.py --workload graph_markov --seed 1 --seconds 20 --trace 0

A run imports polymut from src/ and builds the workload's inputs from
--seed, then repeats passes over the workload's calls for --seconds,
checking every output. With --trace 0 the last stdout line is a JSON object
with the end-to-end metrics; the other set-ups and the cold CLI starts are
spread over the run. With --trace 1 untraced and traced passes take turns,
the per-layer metrics come from the traced passes, the difference between
the two kinds is the tracing overhead, and the spans are written to
.bench_out/. Check failures are described on stderr. --smoke runs every
workload at tiny sizes.

Every time in the end-to-end metrics is scaled to the reference speed of
speed.py, from samples of the machine's speed taken while the timed work
runs, because other tenants of a shared host slow it down by up to two
times, in phases from milliseconds to minutes. An untraced run keeps itself
and its child processes on one vCPU, the one the samples are taken on.
Every call of a workload is repeated in each pass, the first pass warms up,
and a call's time is the median of its scaled times over the other passes.
Latency percentiles are then taken over the calls of the workload; set-up
time and the cold CLI start are medians of their scaled samples. The
distributions behind the figures, raw and scaled, go to .bench_out/ as well.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import layers
import speed
import workloads
from tracer import Tracer

ROOT = workloads.ROOT
OUT_DIR = ROOT / ".bench_out"
# set-ups and import timings per run
REPEATS = 6
COLD_STARTS = 30
# in an untraced pass, calls are scaled in stretches of at least this many
# seconds, by the speed samples taken during the stretch
STRETCH_S = 0.25

clock = time.perf_counter


def fresh_setup(name: str, seed: int, smoke: bool, meter: speed.Meter):
    """Import polymut afresh and build the workload; returns (seconds,
    scaled seconds, workload)."""
    for mod in [m for m in sys.modules if m == "polymut" or m.startswith("polymut.")]:
        del sys.modules[mod]
    gc.collect()

    def build():
        importlib.import_module("polymut")
        return workloads.SETUPS[name](seed, smoke)

    return meter.timed(build)


class Spaced:
    """Calls `take` `count` times, spread evenly over a run of `seconds`, so
    that its samples see the whole run and not one moment of it."""

    def __init__(self, count: int, seconds: float, take) -> None:
        self.count, self.seconds, self.take = count, seconds, take
        self.done = 0

    def __call__(self, elapsed: float) -> None:
        while self.done < self.count and elapsed >= self.done * self.seconds / self.count:
            self.take()
            self.done += 1


class ColdStarts:
    """Wall times of `polymut markov --depth 0` in fresh interpreters, raw
    and scaled."""

    def __init__(self, env: dict, meter: speed.Meter) -> None:
        self.env, self.meter = env, meter
        self.raw: list[float] = []
        self.samples: list[float] = []
        self.failed = 0

    def take(self) -> None:
        dt, scaled, out = self.meter.timed(lambda: workloads.run_cli_child(["markov", "--depth", "0"], self.env))
        self.raw.append(dt)
        self.samples.append(scaled)
        self.failed += out.code != 0 or out.stdout != b"[[1, 1, 1]]\n"


def import_seconds(env: dict, runs: int) -> float:
    """Best over a few runs of the summed self time of the polymut modules
    in `python -X importtime -c "import polymut.cli"`."""
    totals = []
    for _ in range(runs):
        r = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import polymut.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        us = 0
        for line in r.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[2].strip().startswith("polymut"):
                us += int(parts[0])
        totals.append(us / 1e6)
    return min(totals)


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    # the latencies scaled to the reference speed, in untraced timed passes
    scaled: list[float] = field(default_factory=list)
    failed: int = 0
    stdout_bytes: int = 0
    # this pass's slice of the tracer's spans, and the tracer's counts
    spans: tuple[int, int] = (0, 0)
    counts: dict = field(default_factory=dict)


def run_pass(calls, tracer: Tracer | None, problems: list[str], meter: speed.Meter | None = None) -> Pass:
    """One call after another. With a running `meter`, latencies leave out
    the meter's samples, and the calls are scaled in stretches of at least
    STRETCH_S seconds by the samples taken during each stretch."""
    # every pass starts from a collected heap, so the collector's work
    # inside a pass is the same from one pass to the next
    gc.collect()
    p = Pass()
    if tracer is not None:
        tracer.counts = defaultdict(int)
        first = len(tracer.spans)
    if meter is not None:
        stretch, stretch_start = meter.mark(), clock()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.item = i
        if meter is not None:
            sampled = meter.spent
        t0 = clock()
        try:
            out = call.run()
        except Exception:  # a crash is a failed output; the run goes on
            dt = clock() - t0
            out, problem = None, f"raised\n{traceback.format_exc()}"
        else:
            dt = clock() - t0
            problem = None
        if tracer is not None:
            tracer.item = None
        if meter is not None:
            dt -= meter.spent - sampled
        if problem is None:
            problem = call.check(out)
        p.latencies.append(dt)
        p.stdout_bytes += len(getattr(out, "stdout", b""))
        if problem is not None:
            p.failed += 1
            problems.append(f"{call.label}: {problem}")
        if meter is not None and (clock() - stretch_start >= STRETCH_S or i == len(calls) - 1):
            factor = meter.factor(stretch)
            p.scaled += [t * factor for t in p.latencies[len(p.scaled):]]
            stretch, stretch_start = meter.mark(), clock()
    if tracer is not None:
        p.spans = (first, len(tracer.spans))
        p.counts = dict(tracer.counts)
    return p


def run_for(wl, seconds: float, problems: list[str], between, meter: speed.Meter) -> list[Pass]:
    """Passes until `seconds` have gone by; `between(elapsed)` runs after each."""
    passes: list[Pass] = []
    start = clock()
    while not passes or clock() < start + seconds:
        passes.append(run_pass(wl.calls, None, problems, meter))
        between(clock() - start)
    return passes


def run_traced_for(wl, seconds: float, problems: list[str], tracer: Tracer):
    """Untraced and traced passes in turn until `seconds` have gone by, so
    that both kinds see the same moments of the run."""
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = clock()
    while not traced or clock() < start + seconds:
        untraced.append(run_pass(wl.calls, None, problems))
        tracer.install(layers.TARGETS)
        try:
            traced.append(run_pass(wl.calls, tracer, problems))
        finally:
            tracer.remove()
    return untraced, traced


def best_times(passes: list[Pass]) -> list[float]:
    """Each call's best time over the passes."""
    return [min(times) for times in zip(*(p.latencies for p in passes))]


def distribution(values) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"n": len(values), "min": values[0], "q1": q[0], "median": q[1], "q3": q[2], "max": values[-1]}


def median_times(passes: list[Pass]) -> list[float]:
    """Each call's median scaled time over the passes after the first."""
    timed = passes[1:] or passes
    return [statistics.median(times) for times in zip(*(p.scaled for p in timed))]


def end_to_end(wl, passes: list[Pass], setup_times, cli_start: float) -> dict:
    times = median_times(passes)
    deciles = statistics.quantiles(times, n=10, method="inclusive") if len(times) > 1 else times * 9
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(times), "s"),
        "items_per_s": (sum(c.items for c in wl.calls) / sum(times), "1/s"),
        "item_p50_ms": (deciles[4] * 1000, "ms"),
        "item_p90_ms": (deciles[8] * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "cli_start_ms": (cli_start, "ms"),
    }


def per_layer(tracer: Tracer, traced: list[Pass], untraced: list[Pass]) -> tuple[dict, bool]:
    """Per-layer metrics of the traced passes, and whether every traced pass
    gave the same counts."""
    times = [tracer.layer_times(*p.spans) for p in traced]
    calls = [{n: c for n, (c, _) in t.items()} for t in times]
    repeat = all(c == calls[0] for c in calls) and all(p.counts == traced[0].counts for p in traced)
    counts = dict(traced[0].counts)
    metrics = {}
    for _, _, name, _ in layers.TARGETS:
        counts[f"{name}.calls"] = calls[0].get(name, 0)
        metrics[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (min(t.get(name, (0, 0.0))[1] for t in times), "s")
    for name, (num, den) in layers.RATIOS.items():
        counts[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    for name, unit, _ in layers.EXTRA_METRICS:
        metrics[name] = (counts.get(name, 0), unit)
    overhead = sum(best_times(traced)) / sum(best_times(untraced)) - 1
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["cli.stdout_bytes"] = (traced[0].stdout_bytes, "bytes")
    return metrics, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes and one repeat of each set-up step")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "polymut" / "__init__.py").is_file():
        print(f"benchmark: no polymut sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the graph references assume the default factor scan
    os.environ.pop("POLYMUT_MAX_SCAN", None)
    env = workloads.python_env()
    trace = args.trace == 1
    repeats = 1 if args.smoke else REPEATS

    setup_raw, setup_times = [], []
    # samples the machine's speed in untraced runs, from the first set-up to
    # the end of the passes
    meter = speed.Meter()

    def setup():
        dt, scaled, built = fresh_setup(args.workload, args.seed, args.smoke, meter)
        setup_raw.append(dt)
        setup_times.append(scaled)
        return built

    # the passes use the first workload; in a timed run the other set-ups
    # are spread over the run like the cold starts, and what they build is
    # dropped
    if not trace:
        # one vCPU for this process and the children it starts, so that the
        # meter samples the vCPU the timed work runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        meter.start()
    wl = setup()
    polymut_file = Path(sys.modules["polymut"].__file__).resolve()
    if src.resolve() not in polymut_file.parents:
        meter.stop()
        print(f"benchmark: polymut was imported from {polymut_file}, not {src}", file=sys.stderr)
        return 2

    problems: list[str] = []
    starts = ColdStarts(env, meter)
    if not trace:
        setups = Spaced(repeats - 1, args.seconds, setup)
        cold = Spaced(1 if args.smoke else COLD_STARTS, args.seconds, starts.take)

        def between(elapsed: float) -> None:
            setups(elapsed)
            cold(elapsed)

        try:
            passes = run_for(wl, args.seconds, problems, between, meter)
            between(args.seconds)
        finally:
            meter.stop()
        metrics = end_to_end(wl, passes, setup_times, statistics.median(starts.samples) * 1000)
        repeat = True
    else:
        tracer = Tracer()
        untraced, traced = run_traced_for(wl, args.seconds, problems, tracer)
        metrics, repeat = per_layer(tracer, traced, untraced)
        import_s = import_seconds(env, repeats) if args.workload == "cli" else 0.0
        metrics["cli.import_s"] = (import_s, "s")
        passes = untraced + traced
        if not repeat:
            problems.append("traced passes over the same inputs gave different counts")

    after = run_pass(wl.afterwards, None, problems)
    attempted = len(starts.samples) + sum(len(p.latencies) for p in passes + [after])
    failed = starts.failed + sum(p.failed for p in passes + [after])
    for problem in problems[:20]:
        print(f"benchmark: check failed: {problem}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "setup_s": distribution(setup_raw),
        "setup_scaled_s": distribution(setup_times),
        "cli_start_s": distribution(starts.raw) if starts.raw else None,
        "cli_start_scaled_s": distribution(starts.samples) if starts.samples else None,
        "pass_s": distribution(sum(p.latencies) for p in passes),
        "pass_scaled_s": distribution(sum(p.scaled) for p in passes if p.scaled) if not trace else None,
        "call_median_scaled_s": median_times(passes) if not trace else None,
        "calls": [c.label for c in wl.calls],
    }
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    if trace:
        tracer.dump(stem.with_suffix(".spans.jsonl"), {"workload": args.workload, "seed": args.seed})

    result = {
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
