"""Span tracing of the program's layers, from outside the program.

The benchmark wraps public functions of the program at the name they
are looked up by (``repro.core.process.pearson_many``, not
``repro.core.correlation.pearson_many``) and records one span per call:
name, start, end, parent span and operation id.  Spans live in memory
and are turned into per-layer metrics when the run ends.  A layer's
self time is its span durations minus the time covered by its child
spans.

Sweep attempts of the lease scheduler run in forked child processes.
They inherit the wrappers, so each child appends its spans to a spill
file whenever one of its top-level spans ends (a forked multiprocessing
child leaves through ``os._exit`` and never runs exit handlers); the
parent reads the spill files back before computing metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: ``(module, attribute path, span name)`` of every wrapped call.  The
#: attribute is patched where the callers look it up.
SPAN_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.hdl.verilog_parse", "parse_verilog", "hdl.verilog_parse"),
    ("repro.experiments.runner", "prime_fleet_activity", "hdl.simulate"),
    ("repro.experiments.runner", "build_campaign_fleet", "experiments.fleet_build"),
    ("repro.power.noise", "NoiseModel.sample", "power.noise"),
    ("repro.acquisition.oscilloscope", "Oscilloscope.acquire", "acquisition.acquire"),
    ("repro.core.process", "k_averaged_set", "core.averaging"),
    ("repro.core.process", "k_averaged_trace", "core.averaging"),
    ("repro.core.process", "pearson_many", "core.correlation"),
    ("repro.core.process", "pearson_rows", "core.correlation"),
    ("repro.core.distinguishers", "Distinguisher.identify", "core.distinguishers"),
    ("repro.sweeps.store", "SweepStore.put", "sweeps.store.put"),
    ("repro.sweeps.executor", "run_scenario", "sweeps.scenario"),
    ("repro.sweeps.scenario", "run_scenario", "sweeps.scenario"),
)


def _resolve(module_name: str, attr_path: str):
    """``(owner, attribute name)`` of a dotted attribute in a module."""
    owner = importlib.import_module(module_name)
    *parents, name = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def _matrix_key(matrix) -> int:
    """Identity of a trace matrix: the address of its first row.

    Prefix views served by the program's trace caches share it with
    the matrix they were cut from, so reads through either count
    against the same acquisition.
    """
    return int(matrix.__array_interface__["data"][0])


class Tracer:
    """In-memory span recorder plus the counters measured alongside it."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.op: Optional[str] = None
        self._patched: List[Tuple[object, str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.parent_pid = os.getpid()
        self._reset(os.getpid())

    def _reset(self, pid: int) -> None:
        self.pid = pid
        self.spans: List[dict] = []
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        # (op, matrix key) -> rows acquired / distinct rows read.
        self.acquired: Dict[Tuple[str, int], int] = {}
        self.rows_read: Dict[Tuple[str, int], set] = defaultdict(set)

    # -- spans ---------------------------------------------------------

    def call(self, name: str, fn: Callable, /, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if os.getpid() != self.pid:
            # A forked child starts with a copy of the parent's spans;
            # it reports only its own.
            self._reset(os.getpid())
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = f"{self.pid}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": self.op,
                }
            )
            if not stack and self.pid != self.parent_pid:
                self._spill()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[(self.op, name)] += amount

    # -- wrappers ------------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        """Wrap every span point, plus the selection index draws."""
        tracer = self
        for module_name, attr_path, span_name in SPAN_POINTS:
            owner, name = _resolve(module_name, attr_path)
            original = getattr(owner, name)
            hook = _COUNTING_HOOKS.get(span_name, _plain_hook)

            def wrapper(*args, _fn=original, _name=span_name, _hook=hook, **kwargs):
                return _hook(tracer, _name, _fn, args, kwargs)

            self._patch(owner, name, functools.wraps(original)(wrapper))

        owner, name = _resolve("repro.core.selection", "uniform_distinct_indices")
        draw = getattr(owner, name)

        @functools.wraps(draw)
        def counted_draw(*args, **kwargs):
            indices = draw(*args, **kwargs)
            matrix = getattr(tracer._local, "matrix", None)
            if matrix is not None:
                tracer.rows_read[(tracer.op, matrix)].update(indices.tolist())
            return indices

        self._patch(owner, name, counted_draw)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- row usage -----------------------------------------------------

    def row_usage(self) -> List[Tuple[str, int, int]]:
        """``(op, rows acquired, distinct rows read)`` per trace matrix."""
        return [
            (op, acquired, len(self.rows_read.get((op, key), ())))
            for (op, key), acquired in self.acquired.items()
        ]

    # -- child processes -----------------------------------------------

    def _spill(self) -> None:
        """Append this child's spans and counters to its spill file."""
        payload = {
            "spans": self.spans,
            "counters": [[*key, value] for key, value in self.counters.items()],
            "rows": self.row_usage(),
        }
        path = os.path.join(self.spill_dir, f"child-{self.pid}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(payload) + "\n")
        self._reset(self.pid)

    def collect_children(self) -> List[Tuple[str, int, int]]:
        """Merge every child's spill file into this tracer.

        Returns the children's row usage in :meth:`row_usage` form.
        """
        rows: List[Tuple[str, int, int]] = []
        for entry in sorted(os.listdir(self.spill_dir)):
            if not entry.startswith("child-"):
                continue
            path = os.path.join(self.spill_dir, entry)
            with open(path) as handle:
                for line in handle:
                    payload = json.loads(line)
                    self.spans.extend(payload["spans"])
                    for op, name, value in payload["counters"]:
                        self.counters[(op, name)] += value
                    rows.extend(tuple(row) for row in payload["rows"])
            os.unlink(path)
        return rows


# -- hooks: what each span point records besides its span -----------------


def _plain_hook(tracer: Tracer, name, fn, args, kwargs):
    return tracer.call(name, fn, *args, **kwargs)


def _calls_hook(metric: str):
    def hook(tracer: Tracer, name, fn, args, kwargs):
        tracer.count(metric)
        return tracer.call(name, fn, *args, **kwargs)

    return hook


def _noise_hook(tracer: Tracer, name, fn, args, kwargs):
    # NoiseModel.sample(self, n_traces, n_samples, signal_std, rng)
    tracer.count("power.noise.rows", args[1])
    return tracer.call(name, fn, *args, **kwargs)


def _acquire_hook(tracer: Tracer, name, fn, args, kwargs):
    traces = tracer.call(name, fn, *args, **kwargs)
    tracer.count("acquisition.traces", traces.n_traces)
    tracer.acquired[(tracer.op, _matrix_key(traces.matrix))] = traces.n_traces
    return traces


def _averaging_hook(tracer: Tracer, name, fn, args, kwargs):
    # k_averaged_set / k_averaged_trace(traces, k, ...): the index draws
    # made inside select rows of this matrix.
    tracer.count("core.averaging.calls")
    tracer._local.matrix = _matrix_key(args[0].matrix)
    try:
        return tracer.call(name, fn, *args, **kwargs)
    finally:
        tracer._local.matrix = None


def _put_hook(tracer: Tracer, name, fn, args, kwargs):
    # SweepStore.put(self, scenario_id, record, arrays=None).  The sizes
    # are counted inside the span: in an attempt child the put is a
    # top-level span, whose end spills everything counted so far.
    store, scenario_id = args[0], args[1]

    def put_and_count():
        fn(*args, **kwargs)
        tracer.count("sweeps.store.put.calls")
        for path in (store.record_path(scenario_id), store.arrays_path(scenario_id)):
            if os.path.exists(path):
                tracer.count("sweeps.store.bytes", os.path.getsize(path))

    return tracer.call(name, put_and_count)


_COUNTING_HOOKS = {
    "hdl.verilog_parse": _calls_hook("hdl.verilog_parse.calls"),
    "hdl.simulate": _calls_hook("hdl.simulate.calls"),
    "power.noise": _noise_hook,
    "acquisition.acquire": _acquire_hook,
    "core.averaging": _averaging_hook,
    "sweeps.store.put": _put_hook,
}


def span_times(spans: List[dict]):
    """``(inclusive, self)`` seconds, each keyed by ``(op, span name)``."""
    child_time: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    inclusive: Dict[Tuple[str, str], float] = defaultdict(float)
    own: Dict[Tuple[str, str], float] = defaultdict(float)
    for span in spans:
        key = (span["op"], span["name"])
        duration = span["end"] - span["start"]
        inclusive[key] += duration
        own[key] += duration - child_time.get(span["id"], 0.0)
    return inclusive, own
