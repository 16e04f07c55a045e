"""Facts about the machine and software a result was measured on.

Small-matrix timings here depend on the BLAS build and its threading, and
repeated loops of one call vary by a factor of two or more on a shared host,
so a number is only comparable with its machine context.  The benchmark
leaves every ``*_NUM_THREADS`` variable as it finds it and records them.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict | None:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy older than 1.26 has no dict mode
        return None
    deps = config.get("Build Dependencies", {})
    return {
        key: {k: deps[key].get(k) for k in ("name", "version", "openblas configuration")}
        for key in ("blas", "lapack")
        if key in deps
    }


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None
    when the checkout is not a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def facts(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(root),
    }
