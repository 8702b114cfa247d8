#!/usr/bin/env python3
"""dpabc benchmark: one workload per invocation, closed loop, one thread.

    python3 bench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs it untraced and then traced, and reports the
per-layer metrics from the spans. Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record (environment, input
properties, every repetition, cache statistics) goes to ``bench/out/``, and a
traced run also writes its spans there. The exit code is 0 only when every
output matched the reference.

The benchmark imports dpabc from ``src/`` of the checkout it sits in and
refuses to run without it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import layers
import speed
from tracer import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# one set-up at the start, then one between steps at most this often;
# setup_s is their median
SETUP_EVERY_S = 1.0
# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


def import_dpabc() -> SimpleNamespace:
    """Import dpabc afresh from the checkout's ``src`` (drops any loaded copy
    first, so every set-up pays the import)."""
    for name in [n for n in sys.modules if n == "dpabc" or n.startswith("dpabc.")]:
        del sys.modules[name]
    mods = SimpleNamespace(pkg=importlib.import_module("dpabc"))
    for layer in layers.LAYERS:
        setattr(mods, layer, importlib.import_module(f"dpabc.{layer}"))
    if Path(mods.pkg.__file__).resolve().parent != SRC / "dpabc":
        raise RuntimeError(f"dpabc imported from {mods.pkg.__file__}, not from {SRC}")
    return mods


def build(workload_cls, mods, args):
    with open(args.reference) as fh:
        reference = json.load(fh)
    return workload_cls(mods, reference, args.seed, args.smoke)


def cold_caches(mods) -> list:
    return [getattr(mods.axioms, name) for name in layers.CACHED]


class SetUps:
    """Set-ups spread over the run, so that their median meets the same
    drift in machine speed as the timed steps: the first one builds the
    workload the loop runs, the later ones are timed and dropped."""

    def __init__(self, workload_cls, args):
        self.workload_cls = workload_cls
        self.args = args
        self.times: list = []
        self.last = 0.0

    def run(self) -> tuple:
        start = time.perf_counter()
        mods = import_dpabc()
        workload = build(self.workload_cls, mods, self.args)
        self.last = time.perf_counter()
        self.times.append(self.last - start)
        return mods, workload

    def maybe_run(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.run()
            # the dropped modules and workload are cyclic garbage; collect it
            # here rather than inside the next timed step
            gc.collect()


def tail(samples: list) -> tuple:
    """Highest percentile with at least ten samples beyond it, by nearest
    rank. Below 20 samples no percentile above the median qualifies, and the
    median is reported."""
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (1 - pct / 100) >= 10:
            return pct, ordered[math.ceil(pct / 100 * len(ordered)) - 1]
    return 50, statistics.median(ordered)


class Loop:
    """Closed loop over whole cycles: one caller, each step starts when the
    previous one has returned, each repetition once the previous one has been
    checked. The speed probe runs between steps; a workload may also let it
    run inside a step, and its time there is subtracted from the step."""

    def __init__(self, workload, caches, tracer=None, between=None):
        self.probe = speed.Probe(tracer=tracer)
        self.cycle = workload.cycle(self.probe)
        self.caches = caches
        self.tracer = tracer
        # untimed work to do between steps
        self.between = between
        self.reps: list = []

    def run_rep(self, rep) -> dict:
        tracer = self.tracer
        results, steps, roots, error = [], [], [], None
        cache = {"hits": 0, "misses": 0, "evictions": 0}
        for step in rep.steps:
            if self.between:
                self.between()
            self.probe.maybe_measure()
            for fn in self.caches:
                fn.cache_clear()
            if tracer:
                roots.append(tracer.open("bench.step"))
            probed = self.probe.spent_s
            start = time.perf_counter()
            try:
                results.append(step())
            except Exception as exc:  # a raising operation counts as failed
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            if tracer:
                tracer.close(roots[-1])
            steps.append((start, end, self.probe.spent_s - probed))
            for key, value in layers.cache_stats(self.caches).items():
                cache[key] += value
            if error:
                break
        ops, mismatches = (0, 1) if error else rep.check(results)
        return {
            "label": rep.label,
            "steps": steps,
            "s": sum(end - start - probed for start, end, probed in steps),
            "ops": ops,
            "failed": bool(mismatches),
            "error": error,
            "cache": cache,
            "roots": roots,
        }

    def run_for(self, seconds: float) -> None:
        """Whole cycles, at least one, while the next one fits in ``seconds``;
        then the probe measures once more and every repetition gets its
        time in probe units (``cal``)."""
        begin = time.perf_counter()
        while True:
            self.reps.extend(self.run_rep(rep) for rep in self.cycle)
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / self.cycles() > seconds:
                break
        self.probe.maybe_measure()
        self.probe.measure()
        for r in self.reps:
            r["cal"] = sum(
                (end - start - probed) / self.probe.factor(start, end)
                for start, end, probed in r["steps"]
            )

    def cycles(self) -> int:
        return len(self.reps) // len(self.cycle)

    def cycle_totals(self, key: str) -> list:
        """Per whole cycle, the sum of its repetitions' ``key``."""
        per = len(self.cycle)
        return [sum(r[key] for r in self.reps[i : i + per]) for i in range(0, len(self.reps), per)]


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "dpabc_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "dpabc").glob("*.py"))
        ),
        "seed": seed,
    }


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
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
    return None


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, loop: Loop, setup_times: list) -> tuple:
    """End-to-end metrics. Times are per whole cycle, so that every kind of
    repetition in the cycle counts toward the median and the tail. setup_s is
    the median set-up time scaled to the
    probe's nominal speed by the mean probe time of the run, so it reads in
    seconds but drifts with the machine no more than the cal metrics do. The
    mean, not the median: the machine flips between a fast and a slow state,
    and the mean follows the share of time spent in each."""
    raw = loop.cycle_totals("s")
    cal = loop.cycle_totals("cal")
    pct, raw_tail = tail(raw)
    _, cal_tail = tail(cal)
    ops = sum(r["ops"] for r in loop.reps)
    metrics = {
        "setup_s": {
            "value": statistics.median(setup_times)
            * speed.NOMINAL_S
            / statistics.fmean(loop.probe.cal_s),
            "unit": "s",
        },
        "wall_cal": {"value": statistics.median(cal), "unit": "cal"},
        "wall_cal_tail": {"value": cal_tail, "unit": "cal"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "ops_per_cal": {"value": ops / sum(cal), "unit": "1/cal"},
    }
    rate_name, rate_what = workload.rate
    failed = sum(r["failed"] for r in loop.reps)
    probe = loop.probe.cal_s
    lines = [
        f"setup_s        {metrics['setup_s']['value']:.6f} s     median of {len(setup_times)} set-ups"
        f" at the nominal probe speed (raw {statistics.median(setup_times):.6f} s)",
        f"wall_s         {statistics.median(raw):.6f} s     median of {len(raw)} cycles"
        f" of {len(loop.cycle)} repetitions",
        f"wall_s_tail    {raw_tail:.6f} s     p{pct:g}",
        f"peak_rss_mb    {metrics['peak_rss_mb']['value']:.1f} MB",
        f"error_rate     {failed / len(loop.reps):.6f}       {failed} of {len(loop.reps)}"
        " repetitions failed",
        f"{rate_name:<14} {ops / sum(raw):.3f} 1/s   {rate_what} per second",
        f"wall_cal       {metrics['wall_cal']['value']:.4f} cal   wall_s in probe units",
        f"wall_cal_tail  {cal_tail:.4f} cal   p{pct:g}",
        f"ops_per_cal    {metrics['ops_per_cal']['value']:.4f} 1/cal {rate_what} per probe unit",
        f"probe          {statistics.median(probe) * 1e3:.4f} ms    median of {len(probe)}"
        f" (range {min(probe) * 1e3:.4f} to {max(probe) * 1e3:.4f})",
    ]
    extra = {
        "tail_percentile": pct,
        "operations": ops,
        "probe_s": probe,
        "setup_raw_s": setup_times,
    }
    return metrics, lines, extra


def per_cycle(setup: dict, cycles: dict, n: int) -> dict:
    """Set-up counted once plus the mean of the traced cycles."""
    return {key: setup.get(key, 0) + cycles.get(key, 0) / n for key in set(setup) | set(cycles)}


def traced(workload_cls, args) -> tuple:
    """Untraced cycles for the baseline, then one traced set-up and traced
    cycles; per-layer metrics are per set-up plus one cycle."""
    mods = import_dpabc()
    caches = cold_caches(mods)  # the cached functions themselves, not their wrappers
    plain = Loop(build(workload_cls, mods, args), caches)
    plain.run_for(args.seconds / 2)

    tracer = Tracer()
    layers.instrument(tracer, mods)
    try:
        root = tracer.open("bench.setup")
        workload = build(workload_cls, mods, args)
        tracer.close(root)
        setup_counts = Counter(tracer.counters)
        loop = Loop(workload, caches, tracer)
        loop.run_for(args.seconds / 2)
    finally:
        tracer.unpatch()

    n = loop.cycles()
    setup_totals = tracer.totals([root])
    cycle_totals = tracer.totals([root for r in loop.reps for root in r["roots"]])
    totals = {
        name: per_cycle(setup_totals.get(name, {}), cycle_totals.get(name, {}), n)
        for name in set(setup_totals) | set(cycle_totals)
    }
    counters = per_cycle(setup_counts, tracer.counters - setup_counts, n)
    cache = {key: sum(r["cache"][key] for r in loop.reps) / n for key in ("hits", "misses", "evictions")}
    overhead = statistics.median(loop.cycle_totals("cal")) / statistics.median(
        plain.cycle_totals("cal")
    )
    metrics = layers.layer_metrics(totals, Counter(counters), cache, overhead)
    violations = tracer.nesting_violations()
    lines = [f"{name:<36} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"spans {len(tracer.spans)}, nesting violations {violations}")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload_cls.name}-seed{args.seed}.spans.jsonl")
    extra = {
        "baseline_cycle_cal": plain.cycle_totals("cal"),
        "traced_cycle_cal": loop.cycle_totals("cal"),
    }
    return metrics, lines, workload, plain.reps + loop.reps, violations, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at minimal size")
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json")
    args = parser.parse_args(argv)

    if not (SRC / "dpabc" / "__init__.py").is_file():
        print(f"error: no dpabc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; valid: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    env = environment(args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("environment " + json.dumps(env, sort_keys=True))

    if args.trace:
        metrics, lines, workload, reps, violations, extra = traced(workload_cls, args)
    else:
        setups = SetUps(workload_cls, args)
        mods, workload = setups.run()
        loop = Loop(workload, cold_caches(mods), between=setups.maybe_run)
        loop.run_for(args.seconds)
        metrics, lines, extra = end_to_end(workload, loop, setups.times)
        reps, violations = loop.reps, 0
    print("inputs " + json.dumps(workload.inputs, sort_keys=True))

    attempted = len(reps)
    failed = sum(r["failed"] for r in reps)
    for line in lines:
        print(line)
    for r in reps:
        if r["error"]:
            print(f"error in {r['label']}: {r['error']}")
    correct = failed == 0 and violations == 0
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "inputs": workload.inputs,
        "metrics": metrics,
        "repetitions": [{k: v for k, v in r.items() if k not in ("roots", "steps")} for r in reps],
        **extra,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
