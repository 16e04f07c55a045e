"""Tests of the benchmark itself (not of the library).

    python3 -m pytest -q bench/test_bench.py

The determinism test runs the real search workload twice and takes a few
minutes; deselect it with ``-m 'not slow'``.
"""

import contextlib
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import dualent  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    first = wl.make_inputs(workload, 7)
    assert wl.make_inputs(workload, 7) == first
    assert wl.make_inputs(workload, 8) != first
    assert all(wl.A_MIN <= a < wl.A_MAX for a in first.a_values)
    size = wl.BLOCK[workload]
    assert len(first.a_values) == size * wl.BLOCKS[workload]
    for start in range(0, len(first.a_values), size):
        block = sorted(first.a_values[start : start + size])
        strata = [int((a - wl.A_MIN) / (wl.A_MAX - wl.A_MIN) * size) for a in block]
        assert strata == list(range(size))


def test_search_plan_keeps_the_anchor_and_draws_one_a_per_half():
    middle = (wl.A_MIN + wl.A_MAX) / 2
    plans = [wl.search_plan(wl.make_inputs("search", seed)) for seed in range(4)]
    for plan in plans:
        assert plan[0] == wl.ANCHOR_A
        low, high = sorted(plan[1:])
        assert low < middle <= high
    assert len({tuple(plan) for plan in plans}) == 4


def test_benchmark_file_lists_the_metrics_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.slow
def test_same_seed_gives_identical_best_bits():
    inputs = wl.make_inputs("search", 3)
    outcomes = []
    for _ in range(2):
        workload = wl.SearchWorkload(inputs)
        checks = wl.Checks()
        for k in range(workload.minimum_cycles()):
            workload.cycle(k, checks, "plain", harness._no_span, contextlib.nullcontext)
        assert checks.failed == 0, checks.messages
        named = workload.named_metrics(1.0)
        outcomes.append(
            (workload.bound_bits(), named["delete_best_bits"][0], named["clone_best_bits"][0])
        )
    assert outcomes[0] == outcomes[1]
    assert all(math.isfinite(v) for v in outcomes[0])


def test_search_check_rejects_a_bound_above_the_reference():
    good = wl.SearchResult("delete", 0.5, 1.0, 0.4, 1.2, None)
    assert wl.check_search(good) == []
    assert wl.check_search(wl.SearchResult("delete", 0.5, 1.0, 1.3, 1.2, None))
    assert wl.check_search(wl.SearchResult("clone", 0.5, 1.0, math.inf, 1.2, None))


def test_failed_check_counts_and_a_raise_is_a_failure():
    checks = wl.Checks()
    checks.run("good", lambda: (1, []))
    checks.run("bad", lambda: (2, ["wrong"]))
    checks.run("raises", lambda: 1 / 0)
    assert (checks.attempted, checks.failed) == (3, 2)
    assert any("ZeroDivisionError" in m for m in checks.messages)


def test_wrong_library_value_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(dualent, "crossover", lambda: 0.5)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    code = run.main(["--workload", "bounds", "--seed", "1", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["success_ratio"]["value"] < 1.0


def test_clean_run_prints_every_end_to_end_metric(monkeypatch, capsys):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    code = run.main(["--workload", "pipelines", "--seed", "2", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(capsys):
    code = run.main(["--workload", "bounds", "--seed", "2", "--seconds", "0.5", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert list(result["metrics"]) == [name for name, _ in layers.metric_names()]
    for metric, *_ in layers.TIMED:
        assert result["metrics"][f"{metric}.calls"]["value"] >= 1
        assert result["metrics"][metric]["value"] > 0
    # the wrappers are gone once the run is over
    assert not hasattr(dualent.clone_bound, "__wrapped__")
