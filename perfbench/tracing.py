"""Span tracing from outside the program, for the traced benchmark run.

Every layer is timed by wrapping calls into its modules' public
functions; nothing inside ``src/`` changes.  A span is (name, start,
end, parent, request); spans are kept in memory in flat arrays and
written out once, when the run ends.  A layer's *self time* is its
span time minus the time of the spans nested in it, so the self times
of all layers plus the time no span covers (``unattributed``) add up to
the traced wall time exactly.

The wrappers must be installed *before* any engine is built: compiled
triggers bind index methods (``tree.get_sum`` …) when they are
compiled, so an index class patched afterwards would go unseen.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

#: Self-time layers, in report order.  ``<layer>`` is a span name;
#: the per-layer metric is ``<layer>_s``.
LAYERS = (
    "query.build",
    "engine.build",
    "engine.warm_start",
    "engine.write",
    "engine.read",
    "index.probe",
    "index.shift",
    "index.mutate",
    "index.bulk_load",
    "colbatch.encode",
    "colbatch.decode",
    "wal.append",
    "wal.snapshot",
    "protocol.encode",
    "protocol.decode",
    "deltas.freeze",
    "deltas.diff",
    "deltas.fold",
    "server.apply",
    "server.fanout",
    "shard.batch",
    "shard.split",
    "shard.result",
)

_INDEX_OPS = {
    "index.probe": (
        "get", "get_sum", "total_sum", "suffix_sum", "min_key", "max_key",
        "successor", "predecessor", "first_key_with_prefix_above",
        "range_sum",
    ),
    "index.shift": ("shift_keys",),
    "index.mutate": ("put", "add", "delete", "pop", "clear"),
    "index.bulk_load": ("bulk_load",),
}

#: spans kept for the span file per process; later spans still count
#: toward every self time and total, they are only not written out
MAX_KEPT_SPANS = 500_000

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder with running per-layer self times."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.req_ids = array("i")
        self.requests: list[tuple] = []
        self.request = -1
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.totals: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._child: list[float] = []
        self.spans = 0
        self.wall = 0.0
        self.covered = 0.0
        self._began = None
        self._marked_calls: dict[str, int] = {}
        self._marked_obs: dict[str, int] = {}

    # -- run bracket -----------------------------------------------------

    def begin(self) -> None:
        self._began = _clock()

    def end(self) -> None:
        if self._began is not None:
            self.wall += _clock() - self._began
            self._began = None

    def mark(self) -> None:
        """Start of the measured phase: per-event ratios count only the
        calls and counters after this point (set-up excluded)."""
        from repro import obs

        self._marked_calls = dict(self.calls)
        self._marked_obs = dict(obs.SINK.counters)

    def set_request(self, key: tuple | None) -> None:
        if key is None:
            self.request = -1
        else:
            self.requests.append(key)
            self.request = len(self.requests) - 1

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def wrap(self, fn, layer: str, after=None):
        """``fn`` timed as one span of ``layer``; ``after(result, args)``
        may record counts from the call."""
        name_id = self._name_id(layer)
        opened = self._open
        child = self._child
        starts, ends = self.starts, self.ends
        self_time = self.self_time
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.spans += 1
            ident = len(starts)
            if ident < MAX_KEPT_SPANS:
                starts.append(0.0)
                ends.append(0.0)
                self.name_ids.append(name_id)
                self.parents.append(opened[-1] if opened else -1)
                self.req_ids.append(self.request)
            else:
                ident = -1
            opened.append(ident)
            child.append(0.0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                opened.pop()
                nested = child.pop()
                duration = t1 - t0
                self_time[layer] += duration - nested
                calls[layer] += 1
                if child:
                    child[-1] += duration
                else:
                    self.covered += duration
                if ident >= 0:
                    starts[ident] = t0
                    ends[ident] = t1
            if after is not None:
                after(result, args, duration)
            return result

        traced.__perfbench_traced__ = True
        return traced

    def count(self, name: str, value: float = 1) -> None:
        self.totals[name] += value

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    # -- output ----------------------------------------------------------

    def summary(self) -> dict:
        """Plain-data per-process summary (merged across processes by
        :func:`merge`), with the obs counters."""
        from repro import obs

        counters = dict(obs.SINK.counters)
        return {
            "wall": self.wall,
            "covered": self.covered,
            "self_time": dict(self.self_time),
            "calls": dict(self.calls),
            "measured_calls": {k: v - self._marked_calls.get(k, 0)
                               for k, v in self.calls.items()},
            "totals": dict(self.totals),
            "maxima": dict(self.maxima),
            "spans": self.spans,
            "obs": counters,
            "measured_obs": {k: v - self._marked_obs.get(k, 0)
                             for k, v in counters.items()},
        }

    def write_spans(self, path: Path) -> None:
        """Write the kept spans, one tab-separated line each: name,
        start, end, parent line (-1: none or not kept), request
        (session:seq, or - outside a serving ingest)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write("name\tstart\tend\tparent\trequest\n")
            for i in range(len(self.starts)):
                req = self.req_ids[i]
                tag = "-" if req < 0 else "%s:%s" % self.requests[req]
                out.write(
                    f"{self.names[self.name_ids[i]]}\t{self.starts[i]:.9f}\t"
                    f"{self.ends[i]:.9f}\t{self.parents[i]}\t{tag}\n"
                )


_SUMMED = ("self_time", "calls", "measured_calls", "totals", "obs", "measured_obs")


def merge(summaries: list[dict]) -> dict:
    """One summary for several traced processes: times, counts and wall
    times add up; maxima take the largest."""
    out: dict = {"wall": 0.0, "covered": 0.0, "spans": 0, "maxima": defaultdict(float)}
    out.update({key: defaultdict(float) for key in _SUMMED})
    for part in summaries:
        out["wall"] += part["wall"]
        out["covered"] += part["covered"]
        out["spans"] += part["spans"]
        for key in _SUMMED:
            for name, value in part[key].items():
                out[key][name] += value
        for name, value in part["maxima"].items():
            out["maxima"][name] = max(out["maxima"][name], value)
    return out


def finish(tracer: Tracer, report, prefix: Path) -> dict:
    """Write this process's spans and merge its summary with those the
    workload collected from traced child processes."""
    tracer.write_spans(prefix.with_name(prefix.name + ".spans.tsv"))
    return merge([tracer.summary(), *report.child_summaries])


# ---------------------------------------------------------------------------
# Wrapper installation
# ---------------------------------------------------------------------------


def _patch_method(cls, name: str, wrapper_factory) -> None:
    raw = cls.__dict__.get(name)
    if raw is None:
        return
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(wrapper_factory(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, name, staticmethod(wrapper_factory(raw.__func__)))
    elif not getattr(raw, "__perfbench_traced__", False):
        setattr(cls, name, wrapper_factory(raw))


def _patch_function(module, name: str, replacement) -> None:
    """Replace ``module.name`` and every ``from module import name``
    binding already made in a loaded ``repro`` module."""
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        if getattr(mod, name, None) is original:
            setattr(mod, name, replacement)


_TRIGGERS = ("on_event", "on_batch", "on_frame")
_ENGINE_METHODS = {
    **{name: "engine.write" for name in _TRIGGERS},
    "result": "engine.read",
    "warm_start": "engine.warm_start",
}


def _engine_classes(root) -> list:
    found, todo = [], [root]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's public entry points.  Call before any
    engine is built (see the module docstring)."""
    from repro import obs
    from repro.core import adaptive, pai_map, rpai
    from repro.engine import base, registry, sharding, supervision
    from repro.query import codegen, planner
    from repro.serving import client, deltas, protocol, server  # noqa: F401 - bindings
    from repro.storage import colbatch, wal
    from repro.trees import fenwick, rpai_btree, segment_tree, treemap
    from repro.workloads import queries

    obs.enable()

    for cls in (rpai.RPAITree, pai_map.PAIMap, treemap.TreeMap,
                fenwick.FenwickTree, segment_tree.SegmentTree,
                rpai_btree.RPAIBTree, adaptive.AdaptiveIndex):
        for layer, names in _INDEX_OPS.items():
            for name in names:
                _patch_method(cls, name, lambda fn, layer=layer: tracer.wrap(fn, layer))

    # query layer: parse, plan, backend choice, codegen
    _patch_function(queries, "parse_query",
                    tracer.wrap(queries.parse_query, "query.build"))
    for name in ("classify", "choose_backend"):
        _patch_function(planner, name, tracer.wrap(getattr(planner, name), "query.build"))
    _patch_function(codegen, "maybe_specialize",
                    tracer.wrap(codegen.maybe_specialize, "query.build"))

    # engines: every engine class's trigger, read and warm-start entry
    # points.  Compiled triggers are instance attributes (skipped when an
    # engine pickles), so engines built through the registry get those
    # wrapped on the instance as well.  The WAL and sharding wrappers
    # have layers of their own and are left out.
    for cls in _engine_classes(base.IncrementalEngine):
        if cls.__module__ in (sharding.__name__, supervision.__name__):
            continue
        for name, layer in _ENGINE_METHODS.items():
            _patch_method(cls, name, lambda fn, layer=layer: tracer.wrap(fn, layer))
    timed_build = tracer.wrap(registry.build_engine, "engine.build")

    def build_engine(*args, **kwargs):
        engine = timed_build(*args, **kwargs)
        for name in _TRIGGERS:
            bound = engine.__dict__.get(name)
            if bound is not None:
                setattr(engine, name, tracer.wrap(bound, "engine.write"))
        return engine

    _patch_function(registry, "build_engine", build_engine)

    # colbatch: frame encode / decode, with bytes per event
    def count_bytes(data, args, _duration):
        tracer.count("colbatch.bytes", len(data))
        tracer.count("colbatch.events", len(args[0]))

    frame = colbatch.ColumnarFrame
    _patch_method(frame, "from_events", lambda fn: tracer.wrap(fn, "colbatch.encode"))
    _patch_method(frame, "to_bytes",
                  lambda fn: tracer.wrap(fn, "colbatch.encode", after=count_bytes))
    _patch_method(frame, "from_bytes", lambda fn: tracer.wrap(fn, "colbatch.decode"))
    _patch_method(frame, "events", lambda fn: tracer.wrap(fn, "colbatch.decode"))

    # WAL: append, and snapshot (engine pickle + file write)
    def snapshot_bytes(_path, args, _duration):
        tracer.peak("wal.snapshot_bytes", len(args[1]))

    def snapshot_stall(_path, _args, duration):
        tracer.peak("wal.snapshot_max_ms", duration * 1e3)

    _patch_method(wal.WriteAheadLog, "append", lambda fn: tracer.wrap(fn, "wal.append"))
    _patch_method(wal.WriteAheadLog, "snapshot",
                  lambda fn: tracer.wrap(fn, "wal.snapshot", after=snapshot_bytes))
    _patch_method(supervision.DurableEngine, "snapshot",
                  lambda fn: tracer.wrap(fn, "wal.snapshot", after=snapshot_stall))

    # wire protocol
    def wire_bytes(data, _args, _duration):
        tracer.count("protocol.bytes", len(data))

    _patch_function(protocol, "encode",
                    tracer.wrap(protocol.encode, "protocol.encode", after=wire_bytes))
    _patch_function(protocol, "decode_body",
                    tracer.wrap(protocol.decode_body, "protocol.decode"))

    # result deltas
    def delta_made(delta, _args, _duration):
        if delta is not None:
            tracer.count("deltas.sent")

    _patch_function(deltas, "freeze", tracer.wrap(deltas.freeze, "deltas.freeze"))
    _patch_function(deltas, "compute_delta",
                    tracer.wrap(deltas.compute_delta, "deltas.diff", after=delta_made))
    _patch_function(deltas, "fold", tracer.wrap(deltas.fold, "deltas.fold"))

    # server: apply one ingest (its spans share the ingest's
    # (session, seq)), fan-out, queue depth
    runtime = server.TenantRuntime
    timed_apply = tracer.wrap(runtime.apply, "server.apply")

    def apply(self, session, seq, events):
        tracer.peak("server.queue_depth_max", self.queue.qsize())
        tracer.count("server.events", len(events))
        tracer.set_request((session, seq))
        try:
            return timed_apply(self, session, seq, events)
        finally:
            tracer.set_request(None)

    apply.__perfbench_traced__ = True
    runtime.apply = apply
    _patch_method(runtime, "_fan_out", lambda fn: tracer.wrap(fn, "server.fanout"))

    # sharding: the parent side of the multiprocess executor
    pool = sharding.MultiprocessShardedExecutor
    _patch_method(pool, "on_batch", lambda fn: tracer.wrap(fn, "shard.batch"))
    _patch_method(pool, "_split", lambda fn: tracer.wrap(fn, "shard.split"))
    _patch_method(pool, "result", lambda fn: tracer.wrap(fn, "shard.result"))
