"""Smoke test of the benchmark in one-second runs.

    python3 -m pytest -q bench/test_bench.py

Runs from the repository root. Each workload runs once untraced and twice
traced; every named metric must appear, every check must pass, and the
per-layer counts must repeat exactly between the two traced runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import GATED  # noqa: E402
from tracing import LAYER_METRICS, is_time  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return completed.returncode, result


def short_run(workload: str, trace: int) -> dict:
    code, result = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert code == 0, result
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    return result["metrics"]


def test_spec_matches_the_metrics_the_benchmark_knows():
    assert [metric["name"] for metric in SPEC["per_layer"]] == list(LAYER_METRICS)
    assert [metric["name"] for metric in SPEC["end_to_end"]] == list(GATED)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = short_run(workload, trace=0)
    assert sorted(metrics) == sorted(metric["name"] for metric in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert metrics[metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat(workload):
    first, second = short_run(workload, trace=1), short_run(workload, trace=1)
    assert sorted(first) == sorted(LAYER_METRICS)
    counts = {name: value for name, value in first.items() if not is_time(name)}
    assert counts == {name: second[name] for name in counts}


def test_refuses_a_tree_without_sources(tmp_path):
    code, result = bench("--workload", "druid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0 and result is None
