"""Workload inputs, operations and output checks.

Each workload is a closed loop with one caller: the next operation starts
only when the previous one has returned and been checked.  The inputs come
from the workload seed alone (:func:`make_inputs`); the library sees only
the generated Schmidt coefficients and search seeds.

- ``search``: ``optimize_delete`` and ``optimize_clone`` at ``restarts=5``
  at the anchor a = 1/sqrt(2) and at two seed-drawn a, one in each half of
  the range.  One operation is the pair of searches at one a.
- ``bounds``: cycles of point evaluations (``clone_bound_combined`` plus
  ``delete_bound``) at seed-drawn a, one ``sweep_rows(200)``, one
  ``crossover()``, one in-process ``dualent clone-bound`` and one check of
  the maximally entangled value.
- ``pipelines``: the local cloning pipeline, the swap deleter, the
  Schmidt-rank check and the measure-and-forget channel at one seed-drawn a,
  as one operation.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

import dualent
from dualent import cli

A_MIN = 0.01
A_MAX = 1.0 / math.sqrt(2.0)
ANCHOR_A = A_MAX
SEARCH_RESTARTS = 5
CROSSOVER = 0.4282
CROSSOVER_TOL = 1e-3
LOG2_12_7 = math.log2(12.0 / 7.0)

# Inputs are drawn in blocks; every block is one stratified sample of
# [A_MIN, A_MAX] (one uniform draw in each of BLOCK equal strata, shuffled),
# so the a-values of each block are uniform on the range and any whole
# block covers it evenly.
BLOCK = {"search": 2, "bounds": 1024, "pipelines": 256}
BLOCKS = {"search": 1, "bounds": 4, "pipelines": 16}
POINTS_PER_CYCLE = 64  # bounds: point evaluations between two sweeps
SWEEP_POINTS = 200

WORKLOADS = ("search", "bounds", "pipelines")


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    a_values: tuple[float, ...]
    search_seed: int


def make_inputs(workload: str, seed: int) -> Inputs:
    """The workload's inputs: a pure function of (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    search_seed = int(rng.integers(0, 2**31 - SEARCH_RESTARTS))
    size = BLOCK[workload]
    a_values = []
    for _ in range(BLOCKS[workload]):
        strata = (np.arange(size) + rng.random(size)) / size
        a_values.extend((A_MIN + (A_MAX - A_MIN) * rng.permutation(strata)).tolist())
    return Inputs(workload, int(seed), tuple(a_values), search_seed)


@dataclass
class Checks:
    """Counts operations and the ones whose output failed a check."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {'; '.join(problems)}")

    def run(self, label: str, operation):
        """Run ``operation() -> (value, problems)``; an exception fails it."""
        try:
            value, problems = operation()
        except Exception as exc:  # a raising call is a failed operation
            self.record(label, [f"raised {type(exc).__name__}: {exc}"])
            return None
        self.record(label, problems)
        return value


def _close(got: float, want: float, tol: float, what: str) -> list[str]:
    if math.isfinite(got) and abs(got - want) <= tol:
        return []
    return [f"{what} = {got!r}, expected {want!r} within {tol:g}"]


# -- search ------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    kind: str
    a: float
    seconds: float
    best: float
    reference: float
    report: object


def check_search(result: SearchResult) -> list[str]:
    if not math.isfinite(result.best):
        return [f"{result.kind} best objective {result.best!r} is not finite"]
    if result.best > result.reference + 1e-6:
        return [
            f"{result.kind} best objective {result.best!r} exceeds the reference "
            f"{result.reference!r} by more than 1e-6"
        ]
    return []


def run_search(kind: str, a: float, search_seed: int, max_evals=None) -> SearchResult:
    search = dualent.optimize_delete if kind == "delete" else dualent.optimize_clone
    pair = dualent.SchmidtPair(a)
    extra = {} if max_evals is None else {"max_evals": max_evals}
    restarts = SEARCH_RESTARTS if max_evals is None else 1
    start = time.perf_counter()
    report = search(pair, restarts=restarts, seed=search_seed, **extra)
    seconds = time.perf_counter() - start
    return SearchResult(kind, a, seconds, report.best_objective, report.reference_bound, report)


def search_plan(inputs: Inputs) -> list[float]:
    # a search costs up to 1.5 times more at a near 0.3 than near 0.6, so
    # the two drawn a are stratified: one draw alone would set the run's time
    return [ANCHOR_A, *inputs.a_values]


def search_pair(a: float, search_seed: int, expected=None):
    """One search operation: both searches at one a.  ``expected`` holds the
    best objectives of an earlier pass at this a, which a repeat must
    reproduce exactly."""
    results = tuple(run_search(kind, a, search_seed) for kind in ("delete", "clone"))
    problems = []
    for result in results:
        problems += check_search(result)
        if expected is not None and result.best != expected[result.kind]:
            problems.append(
                f"{result.kind} search at a={a!r} is not deterministic: "
                f"{result.best!r} != {expected[result.kind]!r}"
            )
    return results, problems


# -- bounds ------------------------------------------------------------------


def point_eval(a: float):
    """The timed call of one point evaluation, and its checks."""
    pair = dualent.SchmidtPair(a)
    start = time.perf_counter()
    record = dualent.clone_bound_combined(pair)
    d_bound = dualent.delete_bound(pair)
    seconds = time.perf_counter() - start
    problems = []
    if record.combined != min(record.e_r, record.s_clone):
        problems.append(
            f"combined {record.combined!r} != min(E_R, S_clone) at a={a!r}"
        )
    if not d_bound >= record.combined:
        problems.append(f"D_bound {d_bound!r} < C_bound {record.combined!r} at a={a!r}")
    return (seconds, record, d_bound), problems


def sweep():
    start = time.perf_counter()
    rows = cli.sweep_rows(SWEEP_POINTS)
    seconds = time.perf_counter() - start
    problems = []
    if len(rows) != SWEEP_POINTS:
        problems.append(f"sweep returned {len(rows)} rows, expected {SWEEP_POINTS}")
    for row in rows:
        if row.c_bound != min(row.e_r, row.s_clone) or not row.d_bound >= row.c_bound:
            problems.append(f"sweep row at a={row.a!r} breaks C = min(E_R, S) <= D")
            break
    return seconds, problems


def crossover_call():
    start = time.perf_counter()
    value = dualent.crossover()
    seconds = time.perf_counter() - start
    return seconds, _close(value, CROSSOVER, CROSSOVER_TOL, "crossover")


def cli_clone_bound(a: float, record):
    """In-process ``dualent clone-bound --a A``; its printed combined bound
    must match the point evaluation at the same a."""
    text = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(text):
        code = cli.main(["clone-bound", "--a", repr(a)])
    seconds = time.perf_counter() - start
    fields = dict(item.split("=", 1) for item in text.getvalue().split())
    problems = [] if code == 0 else [f"clone-bound exited {code}"]
    if fields.get("combined") != f"{record.combined:.9f}":
        problems.append(
            f"clone-bound printed combined={fields.get('combined')!r}, "
            f"expected {record.combined:.9f}"
        )
    return seconds, problems


def anchor_clone_bound():
    start = time.perf_counter()
    value = dualent.clone_bound(dualent.SchmidtPair(ANCHOR_A))
    seconds = time.perf_counter() - start
    return seconds, _close(value, LOG2_12_7, 1e-9, "clone_bound(1/sqrt(2))")


# -- pipelines -----------------------------------------------------------------


def pipeline_mix(a: float, unrecorded=contextlib.nullcontext):
    """The four pipelines at one a (timed together), then their checks;
    ``unrecorded`` keeps the checks' own library calls out of a trace."""
    pair = dualent.SchmidtPair(a)
    ket = dualent.Ket(np.array([pair.a, pair.b], dtype=complex), (2,))
    start = time.perf_counter()
    _, copy1, copy2 = dualent.local_clone_pipeline(pair)
    outcome = dualent.local_delete_swap(pair)
    ranks = dualent.schmidt_rank_nogo_check(pair)
    system_out, env_out = dualent.measure_forget_channel(ket)
    seconds = time.perf_counter() - start

    with unrecorded():
        closed = dualent.rho_clone_closed_form(pair).matrix
        d_bound = dualent.delete_bound(pair)
    problems = []
    gap = max(
        float(np.max(np.abs(copy1.matrix - closed))),
        float(np.max(np.abs(copy2.matrix - closed))),
    )
    if not gap <= 1e-12:
        problems.append(f"clone copies differ from the closed form by {gap:.3e}")
    problems += _close(outcome.objective, d_bound, 1e-10, "swap objective")
    if tuple(ranks) != (4, 2, False):
        problems.append(f"Schmidt ranks {tuple(ranks)}, expected (4, 2, False)")
    residual = float(np.max(np.abs(system_out.matrix - env_out.matrix)))
    if not residual < 1e-12:
        problems.append(f"measure-forget residual {residual:.3e}")
    return (seconds, outcome.objective), problems


# -- workload loops ------------------------------------------------------------


class Workload:
    """Samples of one workload, kept apart per bucket (``"plain"`` for
    untraced operations, ``"traced"`` for traced ones)."""

    name = ""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.samples: dict[str, dict[str, list]] = {}
        self.next_input = 0
        # outputs of the first block of inputs: the run's bound_bits
        self.first_block: list[float] = []

    def _take_input(self) -> tuple[bool, float]:
        """(whether it is in the first block, the next a), cycling the inputs."""
        index = self.next_input
        self.next_input += 1
        values = self.inputs.a_values
        return index < BLOCK[self.name], values[index % len(values)]

    def _add(self, bucket: str, key: str, value) -> None:
        self.samples.setdefault(bucket, {}).setdefault(key, []).append(value)

    def _add_op(self, bucket: str, seconds: float) -> None:
        self._add(bucket, "op", seconds)
        self._add(bucket, "op_end", time.perf_counter())

    def op_seconds(self, bucket: str = "plain") -> list[float]:
        return self.samples.get(bucket, {}).get("op", [])

    def op_ends(self, bucket: str = "plain") -> list[float]:
        """``time.perf_counter()`` just after each operation (and its checks)."""
        return self.samples.get(bucket, {}).get("op_end", [])

    def warm_up(self) -> None:
        raise NotImplementedError

    def minimum_cycles(self) -> int:
        """Cycles every run completes, whatever its length, so that the
        run's bound values are a function of the seed alone."""
        raise NotImplementedError

    def cycle(self, k: int, checks: Checks, bucket: str, operation, unrecorded) -> None:
        """Run cycle ``k``; ``operation(kind)`` wraps each operation (a trace
        span or nothing) and ``unrecorded()`` wraps the output checks."""
        raise NotImplementedError

    def bound_bits(self) -> float:
        return float(np.mean(self.first_block)) if self.first_block else math.nan

    def named_metrics(self, elapsed: float) -> dict[str, tuple[float, str]]:
        """The workload's own metrics, under their descriptive names;
        ``elapsed`` is the length of the timed phase in seconds."""
        raise NotImplementedError


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else math.nan


class SearchWorkload(Workload):
    name = "search"

    def __init__(self, inputs):
        super().__init__(inputs)
        self.plan = search_plan(inputs)
        self.first: dict[float, dict[str, SearchResult]] = {}

    def warm_up(self):
        for kind in ("delete", "clone"):
            run_search(kind, ANCHOR_A, self.inputs.search_seed, max_evals=60)

    def minimum_cycles(self):
        return len(self.plan)

    def cycle(self, k, checks, bucket, operation, unrecorded):
        a = self.plan[k % len(self.plan)]
        expected = None
        if a in self.first:
            expected = {kind: r.best for kind, r in self.first[a].items()}
        with operation("search_pair"):
            results = checks.run(
                f"search pair a={a:.6f}", lambda: search_pair(a, self.inputs.search_seed, expected)
            )
        if results is None:
            return
        self.first.setdefault(a, {r.kind: r for r in results})
        self._add_op(bucket, sum(r.seconds for r in results))
        for r in results:
            self._add(bucket, r.kind, r.seconds)

    def results(self) -> list[SearchResult]:
        return [r for by_kind in self.first.values() for r in by_kind.values()]

    def bound_bits(self):
        anchor = self.first.get(ANCHOR_A, {})
        return float(np.mean([r.best for r in anchor.values()])) if anchor else math.nan

    def named_metrics(self, elapsed):
        plain = self.samples.get("plain", {})
        mean_best = {
            kind: float(np.mean([r.best for r in self.results() if r.kind == kind]))
            for kind in ("delete", "clone")
        }
        return {
            "delete_search_s": (percentile(plain.get("delete", []), 50), "s"),
            "clone_search_s": (percentile(plain.get("clone", []), 50), "s"),
            "delete_best_bits": (mean_best["delete"], "bits"),
            "clone_best_bits": (mean_best["clone"], "bits"),
        }


class BoundsWorkload(Workload):
    name = "bounds"

    def warm_up(self):
        for a in self.inputs.a_values[:POINTS_PER_CYCLE]:
            point_eval(a)
        sweep()
        crossover_call()

    def minimum_cycles(self):
        return -(-BLOCK["bounds"] // POINTS_PER_CYCLE)

    def cycle(self, k, checks, bucket, operation, unrecorded):
        last = None
        for _ in range(POINTS_PER_CYCLE):
            first, a = self._take_input()
            with operation("point_eval"):
                out = checks.run(f"point eval a={a:.6f}", lambda: point_eval(a))
            if out is not None:
                self._add_op(bucket, out[0])
                if first:
                    self.first_block.append(out[1].combined)
                last = (a, out[1])
        with operation("sweep_rows"):
            seconds = checks.run("sweep_rows(200)", sweep)
        if seconds is not None:
            self._add(bucket, "sweep", seconds)
        with operation("crossover"):
            seconds = checks.run("crossover()", crossover_call)
        if seconds is not None:
            self._add(bucket, "crossover", seconds)
        if last is not None:
            with operation("cli_clone_bound"):
                checks.run(f"clone-bound a={last[0]:.6f}", lambda: cli_clone_bound(*last))
        with operation("anchor_clone_bound"):
            checks.run("clone_bound(1/sqrt(2))", anchor_clone_bound)

    def named_metrics(self, elapsed):
        plain = self.samples.get("plain", {})
        points = [1e6 * s for s in plain.get("op", [])]
        sweeps = plain.get("sweep", [])
        return {
            "point_eval_p50_us": (percentile(points, 50), "us"),
            "point_eval_p99_us": (percentile(points, 99), "us"),
            "sweep_rows_per_s": (SWEEP_POINTS / percentile(sweeps, 50) if sweeps else math.nan, "1/s"),
            "crossover_s": (percentile(plain.get("crossover", []), 50), "s"),
        }


class PipelinesWorkload(Workload):
    name = "pipelines"
    MIXES_PER_CYCLE = 16

    def warm_up(self):
        for a in self.inputs.a_values[:64]:
            pipeline_mix(a)

    def minimum_cycles(self):
        return -(-BLOCK["pipelines"] // self.MIXES_PER_CYCLE)

    def cycle(self, k, checks, bucket, operation, unrecorded):
        for _ in range(self.MIXES_PER_CYCLE):
            first, a = self._take_input()
            with operation("pipeline_mix"):
                out = checks.run(f"pipelines a={a:.6f}", lambda: pipeline_mix(a, unrecorded))
            if out is not None:
                self._add_op(bucket, out[0])
                if first:
                    self.first_block.append(out[1])

    def named_metrics(self, elapsed):
        plain = self.samples.get("plain", {})
        mixes = [1e6 * s for s in plain.get("op", [])]
        return {
            "pipeline_ops_per_s": (len(mixes) / elapsed, "1/s"),
            "pipeline_p50_us": (percentile(mixes, 50), "us"),
            "pipeline_p99_us": (percentile(mixes, 99), "us"),
        }


WORKLOAD_TYPES = {w.name: w for w in (SearchWorkload, BoundsWorkload, PipelinesWorkload)}
