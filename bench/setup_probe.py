"""Set-up probe: a fresh interpreter imports dualent and makes one
workload's first call.  ``run.py`` times it from start to exit: this is what
every CLI invocation pays before its first result.

    python3 bench/setup_probe.py {search,bounds,pipelines} A SEARCH_SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402  (imports dualent)


def first_call(workload: str, a: float, search_seed: int) -> list[str]:
    if workload == "search":
        # the first search at the anchor, one restart cut short: a full
        # restarts=5 search is the workload itself, not its set-up
        return wl.check_search(wl.run_search("delete", wl.ANCHOR_A, search_seed, max_evals=60))
    if workload == "bounds":
        return wl.point_eval(a)[1]
    if workload == "pipelines":
        return wl.pipeline_mix(a)[1]
    return [f"unknown workload {workload!r}"]


if __name__ == "__main__":
    problems = first_call(sys.argv[1], float(sys.argv[2]), int(sys.argv[3]))
    if problems:
        sys.exit("; ".join(problems))
    print("ok")
