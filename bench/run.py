"""dualent benchmark: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload {search,bounds,pipelines} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the run times the workload untraced and prints the
end-to-end metrics; with ``--trace 1`` it records spans around the library's
public functions and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every output is
checked; the exit code is 1 when any check fails and 2 when the benchmark
cannot run at all (for instance without the library sources beside it).

The library is imported from ``src/`` of the checkout this file sits in,
never from an installed copy.  Results and spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import machine

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END = [
    ("setup_s", "s"),
    ("success_ratio", "ratio"),
    ("op_p50_cal", "cal"),
    ("bound_bits", "bits"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["search", "bounds", "pipelines"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_library() -> None:
    """Import dualent from this checkout's sources; exits 2 without them."""
    if not (SRC / "dualent" / "__init__.py").is_file():
        print(f"error: dualent sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import dualent

    if Path(dualent.__file__).resolve().parent != (SRC / "dualent").resolve():
        print(f"error: imported dualent from {dualent.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _render(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import harness  # imports dualent

    inputs = harness.wl.make_inputs(args.workload, args.seed)
    workload = harness.wl.WORKLOAD_TYPES[args.workload](inputs)
    checks = harness.wl.Checks()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}.jsonl"
        metrics, extra = harness.per_layer(workload, checks, args.seconds, spans_path)
        expected = harness.layers.metric_names()
    else:
        metrics, extra = harness.end_to_end(workload, checks, args.seconds)
        expected = END_TO_END
    metrics = {name: metrics[name] for name, _ in expected}
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            checks.record(f"metric {name}", ["not measured"])
            metrics[name] = (0.0, unit)

    facts = machine.facts(ROOT)
    print("machine " + json.dumps(facts, sort_keys=True))
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} attempted={checks.attempted} failed={checks.failed}"
    )
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name} = {value:.6g} {unit}")
    for message in checks.messages:
        print(f"  FAILED {message}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": _render(metrics),
    }
    record = {"args": vars(args), "machine": facts, "result": result, "extra": _render(extra)}
    record["failures"] = checks.messages
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
