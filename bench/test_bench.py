"""Tiny-size self-test of the benchmark harness (no timing gate).

Run from the repository root with ``python -m pytest bench/test_bench.py``.
Each workload runs on corpora of 1e4 letters; the test checks the result
line's shape, that every metric named in BENCHMARK.json is present with
its unit, and that every output check passes.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The per-workload metrics printed above the result line.
DETAIL = {
    "fit-m6": {"wall_s": "s", "fit_em_s": "s", "em_nll_per_term": "nat", "eval_s": "s"},
    "scan-select": {
        "wall_s": "s",
        "count_letters_per_s": "1/s",
        "sample_letters_per_s": "1/s",
        "eval_s": "s",
        "bic_compare_s": "s",
        "fit_berchtold_s": "s",
        "berchtold_nll_per_term": "nat",
        "theta_eval_s": "s",
        "tv_experiment_s": "s",
    },
}
DETERMINISTIC = ("em.iterations", "berchtold.iterations", "counts.distinct_words",
                 "em.restart_useful_ratio")


def run(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().split("\n")[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_and_every_check_passes(workload, trace):
    proc = run(workload, trace)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        printed = dict(re.findall(r"^# metric (\S+) \S+ (\S+)$", proc.stdout, re.M))
        assert {k: printed.get(k) for k in DETAIL[workload]} == DETAIL[workload]
        assert printed["fail_ratio"] == "ratio"


def test_traced_counts_repeat_exactly():
    first, second = (result_of(run("scan-select", 1))["metrics"] for _ in range(2))
    for name in DETERMINISTIC:
        assert first[name] == second[name], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
