"""Out-of-program tracing: spans recorded around calls into each layer.

The benchmark never edits ``src/``.  To see where an op's time goes it wraps
the public entry points of every layer (class methods and module-level
functions, wherever they are bound inside the ``repro`` package) with a thin
recorder, runs the op, and puts every original attribute back.  Spans live
in memory as parallel arrays ``(name, start, end, parent, op)`` and are
written out once, when the run ends.

A span's *self time* is its duration minus the part of it that its child
spans cover.  Per op, the self times of all spans -- including the op's own
root span, which holds the benchmark glue -- add up to the op's wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterable, Sequence

import numpy as np

#: Root span of one op; its self time is the benchmark's own glue.
OP_SPAN = "op"

# (span name, module, class or None, attribute).  A span name is the layer
# metric prefix: ``<name>.self_s`` and ``<name>.calls`` are reported per op.
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("sim.flight", "repro.sim.flight", "FlightSimulation", "__init__"),
    ("sim.flight", "repro.sim.flight", "FlightSimulation", "run"),
    ("sim.flight", "repro.sim.flight", "FlightSimulation", "step"),
    ("sim.recorder", "repro.sim.recorder", "FlightRecorder", "maybe_record"),
    ("sim.recorder", "repro.sim.metrics", None, "compute_metrics"),
    ("rtos.advance", "repro.rtos.scheduler", "MulticoreScheduler", "advance"),
    ("dynamics.step", "repro.dynamics.quadrotor", "Quadrotor", "step"),
    # The flight's drivers call ``sample_now``; ``sample`` delegates to it.
    ("sensors.sample", "repro.sensors.imu", "Imu", "sample_now"),
    ("sensors.sample", "repro.sensors.barometer", "Barometer", "sample_now"),
    ("sensors.sample", "repro.sensors.gps", "Gps", "sample_now"),
    ("sensors.sample", "repro.sensors.mocap", "MotionCapture", "sample_now"),
    ("estimation", "repro.estimation.attitude", "ComplementaryFilter", "update"),
    ("estimation", "repro.estimation.position", "PositionEstimator", "predict"),
    ("estimation", "repro.estimation.position", "PositionEstimator", "update_mocap"),
    ("estimation", "repro.estimation.position", "PositionEstimator", "update_gps"),
    ("estimation", "repro.estimation.position", "PositionEstimator",
     "update_baro_altitude"),
    ("control.compute", "repro.control.complex_controller", "ComplexController",
     "compute"),
    ("control.compute", "repro.control.safety_controller", "SafetyController",
     "compute"),
    ("core.monitor", "repro.core.framework", "ContainerDroneFramework", "run_monitor"),
    ("core.frames", "repro.core.framework", "ContainerDroneFramework",
     "handle_actuator_frames"),
    ("mavlink.send", "repro.mavlink.connection", "MavlinkConnection", "send"),
    ("mavlink.receive", "repro.mavlink.connection", "MavlinkConnection", "receive"),
    ("network.send", "repro.network.stack", "NetworkStack", "send"),
    ("memsys.memguard", "repro.memsys.memguard", "MemGuard", "record_accesses"),
    ("memsys.memguard", "repro.memsys.memguard", "MemGuard", "advance_to"),
    ("memsys.dram", "repro.memsys.dram", "DramModel", "latency_factor"),
    ("batch.trace", "repro.sim.batch.trace", None, "trace_for"),
    ("batch.run", "repro.sim.batch.core", None, "run_batch"),
    ("campaign.run", "repro.campaign.runner", "CampaignRunner", "run"),
    ("store.key", "repro.store.keys", None, "cache_key"),
    ("store.get", "repro.store.store", "CampaignStore", "get"),
    ("store.has_arrays", "repro.store.store", "CampaignStore", "has_arrays"),
    ("store.put", "repro.store.store", "CampaignStore", "put"),
    ("store.put_arrays", "repro.store.store", "CampaignStore", "put_arrays"),
    ("service.client", "repro.campaign.client", "ServiceClient", "ping"),
    ("service.client", "repro.campaign.client", "ServiceClient", "check_service"),
    ("service.client", "repro.campaign.client", "ServiceClient", "submit_tasks"),
    ("service.client", "repro.campaign.client", "ServiceClient", "submit_spec"),
    ("service.client", "repro.campaign.client", "ServiceClient", "status"),
    ("service.client", "repro.campaign.client", "ServiceClient", "results"),
    ("service.client", "repro.campaign.client", "ServiceClient", "task_results"),
    ("service.client", "repro.campaign.client", "ServiceClient", "cancel"),
    ("service.client", "repro.campaign.client", "ServiceClient", "list_runs"),
)


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the parent's interval.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Children may nest, overlap each other or have zero length.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    result = end - start
    has_parent = parent >= 0
    if not has_parent.any():
        return result
    child = np.flatnonzero(has_parent)
    owner = parent[child]
    order = np.lexsort((start[child], owner))
    child, owner = child[order], owner[order]
    inside = (start[child] >= start[owner]) & (end[child] <= end[owner])
    same = owner[1:] == owner[:-1]
    disjoint = ~same | (start[child[1:]] >= end[child[:-1]])
    if inside.all() and disjoint.all():
        # Spans from one call stack: children lie inside their parent and
        # siblings follow one another, so the union is a plain sum.
        result -= np.bincount(owner, weights=end[child] - start[child],
                              minlength=len(result))
        return result
    reach = {}
    for index, own in zip(child.tolist(), owner.tolist()):
        lo = max(start[index], reach.get(own, start[own]))
        hi = min(end[index], end[own])
        if hi > lo:
            result[own] -= hi - lo
            reach[own] = hi
    return result


class _Patch:
    """One wrapped attribute and how to put the original back."""

    __slots__ = ("owner", "attr", "original", "had_own")

    def __init__(self, owner: Any, attr: str, original: Any, had_own: bool) -> None:
        self.owner = owner
        self.attr = attr
        self.original = original
        self.had_own = had_own

    def restore(self) -> None:
        if self.had_own:
            setattr(self.owner, self.attr, self.original)
        else:
            delattr(self.owner, self.attr)


def _import_all(targets: Sequence[tuple[str, str, str | None, str]]) -> dict[str, Any]:
    """Import every target module first, so that the bindings of a
    module-level function are all loaded before any is looked up."""
    return {module: importlib.import_module(module) for _, module, _, _ in targets}


def _bindings(function: Any) -> list[tuple[Any, str]]:
    """Every ``repro`` module attribute bound to ``function`` (a module-level
    function imported by name elsewhere must be wrapped there too)."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                found.append((module, attr))
    return found


class Tracer:
    """Span recorder plus the wrap/restore machinery.

    Spans are recorded only on the thread that created the tracer: the
    in-process campaign service answers HTTP on its own threads, and those
    calls belong to no op of the closed-loop client.
    """

    def __init__(self, targets: Sequence[tuple[str, str, str | None, str]] = TARGETS):
        self.targets = tuple(targets)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op_id = -1
        self._thread = threading.get_ident()
        self._patches: list[_Patch] = []
        #: Per-op counters fed by exit hooks: ``counts[op][name] += value``.
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: Run arguments seen by ``run_batch`` in each op.
        self.batches: dict[int, list[Sequence[Any]]] = defaultdict(list)

    # -- recording ----------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def wrap(self, function: Callable, name: str,
             on_exit: Callable[[Any, tuple, Any], None] | None = None) -> Callable:
        """A recording stand-in for ``function`` under span ``name``.
        ``on_exit(tracer, args, result)`` runs after the span has closed."""
        name_id = self._intern(name)
        starts, ends, stack = self.start, self.end, self._stack
        clock, ident, home = time.perf_counter, threading.get_ident, self._thread
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if ident() != home:
                return function(*args, **kwargs)
            index = tracer._open(name_id)
            starts[index] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(tracer, args, result)
            return result

        return traced

    def op_span(self, op_id: int) -> "_OpSpan":
        """Context manager for the root span of op ``op_id``."""
        return _OpSpan(self, op_id)

    # -- wrapping -----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target.  Raises if already installed."""
        if self._patches:
            raise RuntimeError("tracer wrappers already installed")
        modules = _import_all(self.targets)
        for name, module_name, class_name, attr in self.targets:
            module = modules[module_name]
            hook = _EXIT_HOOKS.get((name, attr))
            if class_name is None:
                original = getattr(module, attr)
                wrapped = self.wrap(original, name, hook)
                for owner, bound in _bindings(original):
                    self._patches.append(_Patch(owner, bound, original, True))
                    setattr(owner, bound, wrapped)
            else:
                owner = getattr(module, class_name)
                had_own = attr in vars(owner)
                original = getattr(owner, attr)
                self._patches.append(_Patch(owner, attr, vars(owner).get(attr), had_own))
                setattr(owner, attr, self.wrap(original, name, hook))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            self._patches.pop().restore()

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- analysis -----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per op: ``<span>.self_s``, ``<span>.calls`` and ``op.wall_s``."""
        data = self.arrays()
        own = self_times(data["start"], data["end"], data["parent"])
        ops, op_index = np.unique(data["op"], return_inverse=True)
        width = len(self.names)
        key = op_index * width + data["name_id"]
        size = len(ops) * width
        self_s = np.bincount(key, weights=own, minlength=size).reshape(-1, width)
        calls = np.bincount(key, minlength=size).reshape(-1, width)
        roots = data["parent"] < 0
        wall = np.bincount(op_index[roots], weights=(data["end"] - data["start"])[roots],
                           minlength=len(ops))
        table: dict[int, dict[str, float]] = {}
        for row, op_id in enumerate(ops.tolist()):
            entry = {"op.wall_s": float(wall[row])}
            for column, name in enumerate(self.names):
                if calls[row, column]:
                    entry[f"{name}.self_s"] = float(self_s[row, column])
                    entry[f"{name}.calls"] = float(calls[row, column])
            table[op_id] = entry
        return table

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int) -> None:
        self._tracer = tracer
        self._op_id = op_id
        self._name_id = tracer._intern(OP_SPAN)

    def __enter__(self) -> None:
        tracer = self._tracer
        if tracer._stack != [-1]:
            raise RuntimeError("op span opened inside another span")
        tracer._op_id = self._op_id
        self._index = tracer._open(self._name_id)
        tracer.start[self._index] = time.perf_counter()

    def __exit__(self, *exc_info: Any) -> None:
        tracer = self._tracer
        tracer.end[self._index] = time.perf_counter()
        tracer._stack.pop()
        tracer._op_id = -1


# -- exit hooks: per-op counts read at layer boundaries --------------------------


def _count_flight(tracer: Tracer, args: tuple, result: Any) -> None:
    flight = args[0]
    dropped = sum(d for _, d in flight.network.firewall.counters().values())
    row = tracer.counts[tracer._op_id]
    row["network.drops"] += dropped
    row["core.violations"] += len(result.violations)


def _count_batch(tracer: Tracer, args: tuple, results: Any) -> None:
    tracer.batches[tracer._op_id].append(list(args[0]))
    tracer.counts[tracer._op_id]["core.violations"] += sum(
        len(result.violations) for result in results
    )


def _count_request(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts[tracer._op_id]["service.client.requests"] += 1


_EXIT_HOOKS: dict[tuple[str, str], Callable[[Tracer, tuple, Any], None]] = {
    ("sim.flight", "run"): _count_flight,
    ("batch.run", "run_batch"): _count_batch,
    # ServiceClient methods that each make one HTTP request themselves
    # (check_service and task_results delegate to ping and results).
    **{("service.client", attr): _count_request
       for attr in ("ping", "submit_tasks", "submit_spec", "status", "results",
                    "cancel", "list_runs")},
}


_MISSING = object()


def attribute_state(targets: Sequence[tuple[str, str, str | None, str]]) -> list[tuple]:
    """What every target attribute is bound to right now: class attributes
    (or their absence, for inherited methods) and, for module-level
    functions, the name in every loaded ``repro`` module."""
    state = []
    modules = _import_all(targets)
    for _, module_name, class_name, attr in targets:
        module = modules[module_name]
        if class_name is None:
            for name in sorted(sys.modules):
                if name == "repro" or name.startswith("repro."):
                    value = vars(sys.modules[name]).get(attr, _MISSING)
                    if value is not _MISSING:
                        state.append((name, attr, value))
        else:
            owner = getattr(module, class_name)
            state.append((class_name, attr, vars(owner).get(attr, _MISSING)))
    return state


def same_state(before: list[tuple], after: list[tuple]) -> bool:
    """True when every attribute is bound to the identical object again."""
    return len(before) == len(after) and all(
        a[:2] == b[:2] and a[2] is b[2] for a, b in zip(before, after)
    )


def batch_shape(batches: Iterable[Sequence[Any]]) -> tuple[int, int]:
    """``(timing classes, lanes)`` summed over the ``run_batch`` calls."""
    from repro.sim.batch import timing_fingerprint

    classes = lanes = 0
    for scenarios in batches:
        lanes += len(scenarios)
        classes += len({timing_fingerprint(s) for s in scenarios})
    return classes, lanes
