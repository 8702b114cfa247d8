"""Which dpabc functions the traced run wraps, and the per-layer metrics
computed from the spans they record.

Layers are the dpabc modules: core, axioms, mechanisms, audit, instances and
cli. A function is wrapped under every name a dpabc module binds it to
(``from .axioms import dominance_pairs`` binds ``dpabc.audit.dominance_pairs``),
so calls between modules are recorded as well as the benchmark's own calls.
"""

from __future__ import annotations

import math
from collections import Counter

LAYERS = ("core", "axioms", "mechanisms", "audit", "instances", "cli")

# (defining module, function) -> span name
SPANS = {
    ("axioms", "dominance_pairs"): "axioms.dominance",
    ("axioms", "condorcet_committee"): "axioms.condorcet",
    ("axioms", "pareto_frontier"): "axioms.frontier",
    ("mechanisms", "sample"): "mechanisms.sample",
    ("mechanisms", "sample_sequential_av"): "mechanisms.seq_sample",
    ("audit", "evaluate_bounds"): "audit.evaluate",
    ("audit", "measure_levels"): "audit.levels",
    ("instances", "witness"): "instances.build",
    ("instances", "random_instance"): "instances.build",
    ("cli", "main"): "cli.main",
}

# caches a CLI process always starts cold with
CACHED = ("axiom_committee_set", "dominance_pairs", "condorcet_committee")

# per-layer metric -> unit, in the order they are reported
METRICS = {
    "core.neighbors.s": "s",
    "core.neighbors.count": "count",
    **{f"axioms.{ax}.s": "s" for ax in ("jr", "pjr", "ejr")},
    **{f"axioms.{ax}.us_per_committee": "us" for ax in ("jr", "pjr", "ejr")},
    "axioms.dominance.s": "s",
    "axioms.condorcet.s": "s",
    "axioms.calls": "count",
    "axioms.cache.hit_ratio": "ratio",
    "axioms.cache.evictions": "count",
    "mechanisms.build.s": "s",
    "mechanisms.build.count": "count",
    "mechanisms.build.us_per_committee": "us",
    "mechanisms.seq_law.s": "s",
    "mechanisms.sample.us_per_draw": "us",
    "mechanisms.seq_sample.us_per_draw": "us",
    "audit.levels.s": "s",
    "audit.bounds.s": "s",
    "audit.bound_cells": "count",
    "audit.nonvacuous_ratio": "ratio",
    "audit.dp.self_s": "s",
    "audit.dp.neighbors_evaluated": "count",
    "audit.dp.useful_ratio": "ratio",
    "instances.build.s": "s",
    "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "cli"},
    "trace_overhead": "ratio",
}


def cache_stats(caches) -> dict:
    """Hits, misses and evictions since the caches were last cleared. Every
    miss inserts one entry, so entries no longer present were evicted."""
    infos = [fn.cache_info() for fn in caches]
    misses = sum(i.misses for i in infos)
    return {
        "hits": sum(i.hits for i in infos),
        "misses": misses,
        "evictions": misses - sum(i.currsize for i in infos),
    }


def instrument(tracer, mods) -> None:
    """Wrap the traced dpabc functions in every module namespace that binds
    them; ``tracer.unpatch()`` restores the originals."""
    modules = {name: getattr(mods, name) for name in LAYERS}
    namespaces = [mods.pkg, *modules.values()]
    count = tracer.counters

    def patch_everywhere(original, wrapper):
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    tracer.patch(namespace, attr, wrapper)

    for (home, attr), span in SPANS.items():
        original = getattr(modules[home], attr)
        patch_everywhere(original, tracer.wrap(original, span))

    cached_sets = modules["axioms"].axiom_committee_set

    def committee_set(inst, ax):
        misses = cached_sets.cache_info().misses
        result = tracer.call(f"axioms.{ax.value}", cached_sets, inst, ax)
        if cached_sets.cache_info().misses > misses:
            count[f"axioms.{ax.value}.committees"] += math.comb(inst.m, inst.k)
        return result

    patch_everywhere(cached_sets, committee_set)

    def after_check(args, check):
        count["audit.bound.nonvacuous"] += not check.vacuous

    check_bound = modules["audit"].check_bound
    patch_everywhere(check_bound, tracer.wrap(check_bound, "audit.bound", after_check))

    neighbors = modules["core"].enumerate_neighbors
    patch_everywhere(neighbors, tracer.wrap_generator(neighbors, "core.neighbors"))

    dp_level = modules["audit"].dp_level

    def audited(rule, inst):
        report = tracer.call("audit.dp", dp_level, rule, inst)
        # outside the span: the report's own neighbour count, and the
        # distinct neighbour ballot multisets, types * (2^m - 2) (see
        # workloads.input_properties)
        count["audit.dp.neighbors"] += report.instances_checked
        count["audit.dp.classes"] += len(set(inst.ballots)) * (2**inst.m - 2)
        return report

    patch_everywhere(dp_level, audited)

    # MECHANISMS is one dict bound in several modules; wrap its entries in place
    factories = modules["mechanisms"].MECHANISMS
    for name, factory in list(factories.items()):
        span = "mechanisms.seq_law" if name == "seq-av" else "mechanisms.build"

        def build(inst, eps, factory=factory, span=span):
            count[f"{span}.committees"] += math.comb(inst.m, inst.k)
            return tracer.call(span, factory, inst, eps)

        tracer.patch(factories, name, build)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(totals: dict, counters: Counter, cache: dict, overhead: float) -> dict:
    """Per-layer metrics from span totals (name -> s, self_s, count) and
    counters, both per traced cycle."""

    def s(name):
        return totals.get(name, {}).get("s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("count", 0)

    def self_s(prefix):
        return sum(t["self_s"] for name, t in totals.items() if name.startswith(prefix))

    values = {
        "core.neighbors.s": s("core.neighbors"),
        # one span per neighbour plus the one that ends each enumeration
        "core.neighbors.count": calls("core.neighbors") - counters["core.neighbors.runs"],
        "axioms.dominance.s": s("axioms.dominance"),
        "axioms.condorcet.s": s("axioms.condorcet"),
        "axioms.calls": sum(t["count"] for n, t in totals.items() if n.startswith("axioms.")),
        "axioms.cache.hit_ratio": _ratio(cache["hits"], cache["hits"] + cache["misses"]),
        "axioms.cache.evictions": cache["evictions"],
        "mechanisms.build.s": s("mechanisms.build"),
        "mechanisms.build.count": calls("mechanisms.build"),
        "mechanisms.build.us_per_committee": _ratio(
            s("mechanisms.build"), counters["mechanisms.build.committees"], 1e6
        ),
        "mechanisms.seq_law.s": s("mechanisms.seq_law"),
        "mechanisms.sample.us_per_draw": _ratio(
            s("mechanisms.sample"), calls("mechanisms.sample"), 1e6
        ),
        "mechanisms.seq_sample.us_per_draw": _ratio(
            s("mechanisms.seq_sample"), calls("mechanisms.seq_sample"), 1e6
        ),
        "audit.levels.s": s("audit.levels"),
        "audit.bounds.s": s("audit.bound"),
        "audit.bound_cells": calls("audit.bound"),
        "audit.nonvacuous_ratio": _ratio(
            counters["audit.bound.nonvacuous"], calls("audit.bound")
        ),
        "audit.dp.self_s": self_s("audit.dp"),
        "audit.dp.neighbors_evaluated": counters["audit.dp.neighbors"],
        "audit.dp.useful_ratio": _ratio(
            counters["audit.dp.classes"], counters["audit.dp.neighbors"]
        ),
        "instances.build.s": s("instances.build"),
        "trace_overhead": overhead,
    }
    for ax in ("jr", "pjr", "ejr"):
        values[f"axioms.{ax}.s"] = s(f"axioms.{ax}")
        values[f"axioms.{ax}.us_per_committee"] = _ratio(
            s(f"axioms.{ax}"), counters[f"axioms.{ax}.committees"], 1e6
        )
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s(f"{layer}.")
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
