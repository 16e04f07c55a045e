"""Per-layer metrics of the traced run.

Each metric is the median inclusive time of the spans it names, with the
span count (``.calls``), the spans that raised (``.failed``) and their median
self time (``.self``).  A span name ending in ``@N`` carries the matrix
dimension (or unitary size, or CLI sub-command) of the call.

Some functions are never called on some workloads' paths (``bounds`` never
reaches ``variational``, ``search`` never builds a ``LabeledState``).  So
that every metric has a value on every workload, a short census runs after
the traced loop and calls each function left without a span, at the
workload's own first input.  A per-layer value on a workload that does not
reach the layer therefore comes from the census, not from the workload.
"""

from __future__ import annotations

import fnmatch
import math

import numpy as np

import dualent
from dualent import variational

import workloads as wl

# (metric, span pattern, unit, census probe)
TIMED = [
    ("linalg.partial_trace_us", "linalg.partial_trace@64", "us", "pipelines"),
    ("linalg.matrix_log2_on_support_us", "linalg.matrix_log2_on_support@4", "us", "point_eval"),
    ("linalg.hermitian_eig_us", "linalg.hermitian_eig@*", "us", "point_eval"),
    ("qstate.labeled_state_4_us", "qstate.labeled_state@4", "us", "point_eval"),
    ("qstate.labeled_state_64_us", "qstate.labeled_state@64", "us", "pipelines"),
    ("qstate.trace_out_us", "qstate.trace_out", "us", "pipelines"),
    ("qstate.schmidt_decompose_us", "qstate.schmidt_decompose", "us", "pipelines"),
    ("qstate.relative_entropy_us", "qstate.relative_entropy", "us", "point_eval"),
    ("cloning.clone_bound_us", "cloning.clone_bound", "us", "point_eval"),
    ("cloning.clone_bound_combined_us", "cloning.clone_bound_combined", "us", "point_eval"),
    ("cloning.crossover_s", "cloning.crossover", "s", "crossover"),
    ("cloning.local_clone_pipeline_us", "cloning.local_clone_pipeline", "us", "pipelines"),
    ("deleting.delete_bound_us", "deleting.delete_bound", "us", "point_eval"),
    ("deleting.local_delete_swap_us", "deleting.local_delete_swap", "us", "pipelines"),
    ("deleting.schmidt_rank_nogo_check_us", "deleting.schmidt_rank_nogo_check", "us", "pipelines"),
    ("deleting.min_over_product_pure_us", "deleting.min_over_product_pure", "us", "pipelines"),
    ("nogo.measure_forget_channel_us", "nogo.measure_forget_channel", "us", "pipelines"),
    ("variational.param_to_unitary_4_us", "variational.param_to_unitary@4", "us", "search"),
    ("variational.param_to_unitary_8_us", "variational.param_to_unitary@8", "us", "search"),
    ("variational.delete_objective_seed_us", "probe.delete_objective_seed", "us", "search"),
    ("variational.delete_objective_best_us", "probe.delete_objective_best", "us", "search"),
    ("variational.clone_objective_seed_us", "probe.clone_objective_seed", "us", "search"),
    ("variational.clone_objective_best_us", "probe.clone_objective_best", "us", "search"),
    ("variational.optimize_delete_s", "variational.optimize_delete", "s", "search"),
    ("variational.optimize_clone_s", "variational.optimize_clone", "s", "search"),
    ("cli.sweep_rows_s", "cli.sweep_rows", "s", "sweep"),
    ("cli.main_clone_bound_us", "cli.main@clone-bound", "us", "cli"),
]
RATIOS = ["variational.delete_improved_ratio", "variational.clone_improved_ratio"]
OVERHEAD = [("trace.overhead_ratio", "ratio"), ("trace.overhead_ms", "ms")]
OPERATION = [("op.p50_ms", "ms"), ("op.p99_ms", "ms"), ("calibration_us", "us")]
IMPROVED_BY = 1e-9
# census searches: one restart, cut short; they only give the search layer
# a sample on workloads that never search
CENSUS_MAX_EVALS = 60
CENSUS_REPEATS = 5  # calls of each cheap census probe
_SCALE = {"us": 1e-3, "s": 1e-9}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in reporting order."""
    names = []
    for metric, _, unit, _ in TIMED:
        names += [(metric, unit), (f"{metric}.self", unit)]
        names += [(f"{metric}.calls", "count"), (f"{metric}.failed", "count")]
    for metric in RATIOS:
        names += [(metric, "ratio"), (f"{metric}.calls", "count")]
    return names + OVERHEAD + OPERATION


def _matching(summary: dict, pattern: str) -> list[str]:
    return [name for name in summary if fnmatch.fnmatchcase(name, pattern)]


def object_probes(tracer, results) -> None:
    """Time the objectives and parameter maps at the analytic seeds and at
    the optimum of each search in ``results``.  Run with the tracer
    installed; the probe spans wrap the original (unwrapped) functions so
    their children are the library's own calls."""
    originals = {name: getattr(variational, name).__wrapped__ for name in (
        "delete_objective", "clone_objective", "param_to_unitary")}
    alice, bob = variational.swap_delete_seed()
    cloner = variational.cloner_seed_params()
    for result in results:
        pair = dualent.SchmidtPair(result.a)
        best = result.report.best_params
        size = "4" if result.kind == "delete" else "8"
        objective = originals[f"{result.kind}_objective"]
        seed = (alice, bob) if result.kind == "delete" else (cloner, cloner)
        for _ in range(CENSUS_REPEATS):
            with tracer.span(f"probe.{result.kind}_objective_seed"):
                objective(pair, *seed)
            with tracer.span(f"probe.{result.kind}_objective_best"):
                objective(pair, *best)
            for params in best:
                with tracer.span(f"variational.param_to_unitary@{size}"):
                    originals["param_to_unitary"](params)


def census(tracer, summary: dict, inputs, checks) -> list:
    """Call every probe whose metrics have no span yet; returns the census
    search results (for the improved ratios)."""
    wanted = {probe for metric, pattern, _, probe in TIMED if not _matching(summary, pattern)}
    a = inputs.a_values[0]
    pair = dualent.SchmidtPair(a)
    searches = []
    with tracer.operation("census"):
        for _ in range(CENSUS_REPEATS):
            if "point_eval" in wanted:
                checks.run("census point eval", lambda: wl.point_eval(a))
            if "pipelines" in wanted:
                checks.run("census pipelines", lambda: wl.pipeline_mix(a, tracer.paused))
            if "crossover" in wanted:
                checks.run("census crossover", wl.crossover_call)
            if "sweep" in wanted:
                checks.run("census sweep", wl.sweep)
            if "cli" in wanted:
                record = dualent.clone_bound_combined(pair)
                checks.run("census clone-bound", lambda: wl.cli_clone_bound(a, record))
        if "search" in wanted:
            for kind in ("delete", "clone"):
                result = wl.run_search(kind, a, inputs.search_seed, CENSUS_MAX_EVALS)
                checks.record(f"census {kind} search", wl.check_search(result))
                searches.append(result)
    if "search" in wanted:
        object_probes(tracer, searches)
    return searches


def layer_metrics(summary: dict, searches, overhead, op_ms, calibration_s: float) -> dict:
    """``overhead`` is (traced / untraced - 1, traced - untraced in ms);
    ``op_ms`` are the run's untraced operation times (search: its traced
    pairs, as a search run has no untraced ones)."""
    metrics = {}
    for metric, pattern, unit, _ in TIMED:
        names = _matching(summary, pattern)
        duration = np.concatenate([summary[n]["duration"] for n in names]) if names else []
        own = np.concatenate([summary[n]["self"] for n in names]) if names else []
        failed = sum(int(summary[n]["failed"].sum()) for n in names)
        scale = _SCALE[unit]
        metrics[metric] = (float(np.median(duration)) * scale if len(duration) else math.nan, unit)
        metrics[f"{metric}.self"] = (float(np.median(own)) * scale if len(own) else math.nan, unit)
        metrics[f"{metric}.calls"] = (len(duration), "count")
        metrics[f"{metric}.failed"] = (failed, "count")
    for metric, kind in zip(RATIOS, ("delete", "clone")):
        mine = [r for r in searches if r.kind == kind]
        improved = sum(r.best < r.reference - IMPROVED_BY for r in mine)
        metrics[metric] = (improved / len(mine) if mine else math.nan, "ratio")
        metrics[f"{metric}.calls"] = (len(mine), "count")
    metrics["trace.overhead_ratio"] = (overhead[0], "ratio")
    metrics["trace.overhead_ms"] = (overhead[1], "ms")
    metrics["op.p50_ms"] = (wl.percentile(op_ms, 50), "ms")
    metrics["op.p99_ms"] = (wl.percentile(op_ms, 99), "ms")
    metrics["calibration_us"] = (1e6 * calibration_s, "us")
    return metrics
