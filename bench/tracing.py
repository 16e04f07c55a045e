"""In-memory span recorder for the traced benchmark run.

Spans are taken from the benchmark side only: :meth:`Tracer.installed`
replaces every public function of the dualent modules (and
``LabeledState.__post_init__``) with a wrapper that opens a span on entry
and closes it on exit, in every dualent namespace that binds the function,
and puts the originals back when its block ends, so untraced code runs the
library exactly as shipped.

A span is (name, start, end, parent, operation id, failed).  Spans live in
flat arrays while the run goes on and are written as JSONL only at the end.
The self time of a span is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("linalg", "qstate", "cloning", "deleting", "nogo", "variational", "cli")


def _ints(values: array) -> np.ndarray:
    # a copy, not a view: a view would pin the array and block further appends
    return np.array(values, dtype=np.int64)


def _size_of_first(args) -> str:
    return str(np.shape(args[0])[0]) if args and np.ndim(args[0]) else "?"


def _size_of_state(args) -> str:
    return _size_of_first((args[0].matrix,))


def _unitary_dim(args) -> str:
    return str(args[0].dim)


def _cli_command(args) -> str:
    argv = args[0] if args else None
    return str(argv[0]) if argv else "?"


# Functions whose spans carry a size or sub-command, so that one metric can
# pick, say, the 64x64 partial traces out of all partial traces.
_SPAN_SUFFIX = {
    "linalg.partial_trace": _size_of_first,
    "linalg.matrix_log2_on_support": _size_of_first,
    "linalg.hermitian_eig": _size_of_first,
    "qstate.labeled_state": _size_of_state,
    "variational.param_to_unitary": _unitary_dim,
    "cli.main": _cli_command,
}


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._op = array("q")
        self._failed = bytearray()
        self._stack: list[int] = []
        self._current_op = -1
        self._next_op = 0
        self._patches: list[tuple[object, str, object]] = []
        self.recording = True

    def __len__(self) -> int:
        return len(self._start)

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self._current_op)
        self._end.append(0)
        self._failed.append(0)
        self._stack.append(idx)
        self._start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self._end[idx] = time.perf_counter_ns()
        self._stack.pop()
        if failed:
            self._failed[idx] = 1

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        except BaseException:
            self.close(idx, failed=True)
            raise
        self.close(idx)

    @contextmanager
    def operation(self, kind: str):
        """Root span of one benchmark operation; nested spans share its id."""
        outer = self._current_op
        self._current_op = self._next_op
        self._next_op += 1
        try:
            with self.span(f"op.{kind}"):
                yield
        finally:
            self._current_op = outer

    @contextmanager
    def paused(self):
        """Calls made inside record no spans (used around output checks)."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def _wrap(self, fn, name: str):
        suffix = _SPAN_SUFFIX.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer.open(f"{name}@{suffix(args)}" if suffix else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            tracer.close(idx)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    @contextmanager
    def installed(self, package):
        """Wrap the public functions of every layer module of ``package``
        while the block runs; the originals are back afterwards."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        try:
            for namespace in [package] + modules:
                for attr, obj in list(vars(namespace).items()):
                    entry = wrappers.get(id(obj))
                    if entry is not None and entry[0] is obj:
                        self._patches.append((namespace, attr, obj))
                        setattr(namespace, attr, entry[1])
            state_cls = package.qstate.LabeledState
            original = state_cls.__dict__["__post_init__"]
            self._patches.append((state_cls, "__post_init__", original))
            state_cls.__post_init__ = self._wrap(original, "qstate.labeled_state")
            yield
        finally:
            for namespace, attr, original in reversed(self._patches):
                setattr(namespace, attr, original)
            self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times_ns(self) -> np.ndarray:
        duration = _ints(self._end) - _ints(self._start)
        parent = _ints(self._parent)
        child_total = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child_total, parent[has_parent], duration[has_parent])
        return duration - child_total

    def summary(self) -> dict[str, dict[str, np.ndarray]]:
        """Per span name: inclusive and self durations (ns) and failed flags."""
        if not len(self):
            return {}
        name = _ints(self._name)
        duration = _ints(self._end) - _ints(self._start)
        self_ns = self.self_times_ns()
        failed = np.array(self._failed, dtype=bool)
        out = {}
        for nid, label in enumerate(self.names):
            mask = name == nid
            out[label] = {
                "duration": duration[mask],
                "self": self_ns[mask],
                "failed": failed[mask],
            }
        return out

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in the order the spans were opened."""
        with open(path, "w") as handle:
            for idx in range(len(self)):
                parent = self._parent[idx]
                handle.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": self.names[self._name[idx]],
                            "start_ns": self._start[idx],
                            "end_ns": self._end[idx],
                            "parent": parent if parent >= 0 else None,
                            "op": self._op[idx],
                            "failed": bool(self._failed[idx]),
                        }
                    )
                    + "\n"
                )
