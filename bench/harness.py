"""Timed phases of one benchmark run: set-up probes, the untraced loop and
the traced loop.  Imported by ``run.py`` once ``src/`` is on the path."""

from __future__ import annotations

import contextlib
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import dualent

import layers
import tracing
import workloads as wl
from calibration import Calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
SPAN_CAP = 50_000  # the traced loop stops starting cycles beyond this
OVERHEAD_ROUNDS = 5  # search: rounds of the short proxy searches
OVERHEAD_MAX_EVALS = 150


def measure_setup(workload: str, inputs, checks) -> float:
    """Median wall time of fresh interpreters importing dualent and making
    the workload's first call."""
    argv = [
        sys.executable,
        str(BENCH / "setup_probe.py"),
        workload,
        repr(inputs.a_values[0]),
        str(inputs.search_seed),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            checks.record("setup", [f"set-up probe ran over {SETUP_TIMEOUT_S} s"])
            continue
        times.append(time.perf_counter() - start)
        ok = proc.returncode == 0 and proc.stdout.strip() == "ok"
        checks.record("setup", [] if ok else [f"set-up probe failed: {proc.stderr.strip()[-300:]}"])
    return statistics.median(times) if times else math.nan


def _no_span(kind):
    return contextlib.nullcontext()


def measure(workload, checks, seconds, minimum, tracer=None, alternate=False):
    """Run cycles until ``seconds`` have passed and ``minimum`` cycles are
    done.  With a tracer, every cycle is traced, or every second one when
    ``alternate`` is set.  Returns (elapsed seconds, operations attempted)."""
    attempted = checks.attempted
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while k < minimum or time.perf_counter() < deadline:
        if tracer is not None and (not alternate or k % 2 == 1):
            with tracer.installed(dualent):
                workload.cycle(k, checks, "traced", tracer.operation, tracer.paused)
        else:
            workload.cycle(k, checks, "plain", _no_span, contextlib.nullcontext)
        k += 1
        if tracer is not None and len(tracer) >= SPAN_CAP and k >= minimum:
            break
    return time.perf_counter() - start, checks.attempted - attempted


def end_to_end(workload, checks, seconds):
    setup = measure_setup(workload.name, workload.inputs, checks)
    workload.warm_up()
    with Calibration() as calibration:
        elapsed, ops = measure(workload, checks, seconds, workload.minimum_cycles())
    cal_ms = 1e3 * calibration.median_s()
    op_ms = [1e3 * s for s in workload.op_seconds()]
    op_cal = calibration.normalise(workload.op_seconds(), workload.op_ends())
    metrics = {
        "setup_s": (setup, "s"),
        "success_ratio": (1.0 - checks.failed / max(1, checks.attempted), "ratio"),
        "op_p50_cal": (wl.percentile(op_cal, 50), "cal"),
        "bound_bits": (workload.bound_bits(), "bits"),
    }
    named = {
        "setup_s": (setup, "s"),
        "calibration_us": (1e3 * cal_ms, "us"),
        "op_p50_ms": (wl.percentile(op_ms, 50), "ms"),
        "op_p99_ms": (wl.percentile(op_ms, 99), "ms"),
        "ops_per_s": (ops / elapsed, "1/s"),
        **workload.named_metrics(elapsed),
    }
    named["fail_ratio"] = (checks.failed / max(1, checks.attempted), "ratio")
    return metrics, named


def proxy_overhead(search_seed: int) -> tuple[float, float]:
    """Tracing overhead of the search path: short anchor searches, run
    untraced and then traced in each round, under a throwaway tracer so
    their spans stay out of the run's metrics.  Returns the median over
    rounds of (traced / untraced - 1) and of the difference in ms; the
    per-round pairing cancels the host's slow drifts."""
    ratios, differences = [], []
    for _ in range(OVERHEAD_ROUNDS):
        times = []
        for tracer in (None, tracing.Tracer()):
            with tracer.installed(dualent) if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                for kind in ("delete", "clone"):
                    wl.run_search(kind, wl.ANCHOR_A, search_seed, OVERHEAD_MAX_EVALS)
                times.append(time.perf_counter() - start)
        ratios.append(times[1] / times[0] - 1.0)
        differences.append(1e3 * (times[1] - times[0]))
    return statistics.median(ratios), statistics.median(differences)


def per_layer(workload, checks, seconds, spans_path):
    tracer = tracing.Tracer()
    workload.warm_up()
    with Calibration() as calibration:
        if workload.name == "search":
            # two pairs (the anchor and the first drawn a) keep a traced
            # search run near 55 s here, well inside the 180 s a run may take
            measure(workload, checks, seconds, 2, tracer)
            overhead = proxy_overhead(workload.inputs.search_seed)
        else:
            measure(workload, checks, seconds, 2, tracer, alternate=True)
            plain_s = statistics.median(workload.op_seconds("plain"))
            traced_s = statistics.median(workload.op_seconds("traced"))
            overhead = (traced_s / plain_s - 1.0, 1e3 * (traced_s - plain_s))
    searches = []
    if workload.name == "search":
        with tracer.installed(dualent):
            layers.object_probes(tracer, workload.results())
        searches = workload.results()
    with tracer.installed(dualent):
        searches += layers.census(tracer, tracer.summary(), workload.inputs, checks)
    op_ms = [1e3 * s for s in workload.op_seconds("plain") or workload.op_seconds("traced")]
    metrics = layers.layer_metrics(
        tracer.summary(), searches, overhead, op_ms, calibration.median_s()
    )
    tracer.write_jsonl(spans_path)
    return metrics, {"spans": (len(tracer), "count")}


