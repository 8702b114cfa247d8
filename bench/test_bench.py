"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, input_properties  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_cal": "cal",
    "wall_cal_tail": "cal",
    "peak_rss_mb": "MB",
    "ops_per_cal": "1/cal",
}
# printed by name with their units (raw times and the error rate)
PRINTED = ("setup_s", "wall_s", "wall_s_tail", "peak_rss_mb", "error_rate")


def run_bench(*args, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def smoke(workload: str, trace: int = 0, *extra):
    return run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke", *extra,
    )


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = smoke(workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    lines = proc.stdout.splitlines()
    for name in (*PRINTED, WORKLOADS[workload].rate[0], *END_TO_END):
        assert any(line.split()[0] == name for line in lines), name
    assert any(line.split()[:2] == ["error_rate", "0.000000"] for line in lines)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = smoke(workload, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layers.METRICS
    assert result["metrics"]["trace_overhead"]["value"] > 0
    assert "nesting violations 0" in proc.stdout


def corrupt(reference: dict, workload: str) -> dict:
    ref = copy.deepcopy(reference)
    if workload == "reproduce":
        ref["reproduce"]["smoke"]["stdout_sha256"] = "0" * 64
    elif workload == "dp_audit":
        ref["dp_audit"]["max_log_ratio"]["JR_UPPER/rr-jr"] += 1e-6
    elif workload == "axioms_scaling":
        ref["axioms_scaling"]["smoke_profiles"][0]["facts"]["pjr"] = "0" * 64
    else:
        ref["sampling"]["profiles"][0]["sample"] = "0" * 64
    return ref


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_gate_fails_on_corrupted_reference(workload, tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(corrupt(reference, workload)))
    proc = smoke(workload, 0, "--reference", str(bad))
    assert proc.returncode == 1
    result = last_json(proc)
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(
        "--workload", "reproduce", "--seed", "1", "--seconds", "1", "--trace", "0",
        script=tmp_path / "bench" / "run.py",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_child_self_times_sum_within_parent():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    def items():
        for i in range(3):
            leaf()
            yield i

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_items = tracer.wrap_generator(items, "items")
    root = tracer.open("root")
    for _ in traced_items():
        traced_leaf()
    tracer.close(root)

    assert tracer.nesting_violations() == 0
    totals = tracer.totals([root])
    assert totals["items"]["count"] == 4  # three items and the final StopIteration
    assert totals["leaf"]["count"] == 3
    self_sum = sum(t["self_s"] for t in totals.values())
    assert self_sum == pytest.approx(totals["root"]["s"])
    # consumer-side calls are not children of the generator's spans
    parents = {tracer.spans[i][0]: tracer.spans[tracer.spans[i][3]][0]
               for i in range(1, len(tracer.spans))}
    assert parents["leaf"] == "root" and parents["items"] == "root"


def test_neighbor_classes_count_distinct_ballot_multisets():
    # audit.dp.useful_ratio takes the class count from this formula
    sys.path.insert(0, str(ROOT / "src"))
    from dpabc import core

    ballots = (frozenset({0}), frozenset({0}), frozenset({1, 2}), frozenset({0, 1, 2, 3}))
    inst = core.Instance(ballots, 4, 2)
    classes = {frozenset(Counter(nb.ballots).items()) for _, nb in core.enumerate_neighbors(inst)}
    props = input_properties("t", inst)
    assert len(classes) == props["neighbor_classes"] == 3 * (2**4 - 2)
    assert props["neighbors"] == 4 * (2**4 - 2)


def test_unpatch_restores_originals():
    namespace = {"f": len}
    tracer = Tracer()
    tracer.patch(namespace, "f", tracer.wrap(len, "len"))
    assert namespace["f"]("abc") == 3 and tracer.spans[0][0] == "len"
    tracer.unpatch()
    assert namespace["f"] is len
