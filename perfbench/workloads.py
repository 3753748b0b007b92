"""The in-process workloads: book-fresh, tpch-write, batch-ingest and
shard-ingest.

Each query runs in a *lane*: one engine over one stream, stood up over
the stream's first ``warm`` events (the set-up), then fed in rounds.  A
round gives every lane the same fixed slice of operations, and a run
does a fixed number of whole rounds, set from ``--seconds`` and sized to
take about that long today, so every run on every seed does the same
work.  When a lane reaches the end of its stream it plays the
stream back inverted (each event retracted, newest first) down to the
warm state and then forwards again; the live rows after any prefix of
that walk equal those of a prefix of the stream, which is what the
oracles are computed from.

Writes (``on_event``/``on_batch``) and reads (``result()``) are separate
calls, timed apart; the benchmark never uses a trigger's return value.
The lanes of a workload share one ``Timeline``: every timed sample in
the order it was taken, with the round boundaries, from which the
percentiles' windows are cut.
"""

from __future__ import annotations

import gc
import multiprocessing
import pickle
import time

import streams
from common import (
    SETUP_REPEATS,
    SHORT_SETUP_REPEATS,
    MemoryPeak,
    Report,
    latency_metrics,
    median,
    private_mb,
    rss_mb,
    split_repeats,
)
from oracles import ORACLES, LiveSet, same

from repro.engine import registry
from repro.storage.stream import Stream

clock = time.perf_counter


class Timeline:
    """The timed samples of a workload's lanes, in the order they were
    taken, and the sample count at the end of every round."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.cuts: list[int] = []

    def cut(self) -> None:
        self.cuts.append(len(self.samples))


class Lane:
    """One query's engine and its walk over a stream."""

    def __init__(self, query: str, events: list, warm: int, per_round: int,
                 timeline: Timeline, read_every: int = 1, chunk: int = 0) -> None:
        self.query = query
        self.events = events
        self.warm = warm
        self.per_round = per_round
        self.read_every = read_every
        self.chunk = chunk  # 0: per-event writes; > 0: on_batch chunks
        usable = (len(events) - warm) // per_round * per_round
        if usable <= 0:
            raise ValueError(f"{query}: stream too short for one round")
        self.end = warm + usable
        self.pos = warm
        self.forward = True
        self.engine = None
        self.timeline = timeline
        self.samples = timeline.samples
        self.events_done = 0
        self.write_s = 0.0
        self.read_s = 0.0
        self.checks: list[tuple[int, object]] = []

    def next_slice(self) -> list:
        """The next ``per_round`` events of the walk."""
        n = self.per_round
        if self.forward:
            out = self.events[self.pos:self.pos + n]
            self.pos += n
        else:
            out = [e.inverted() for e in reversed(self.events[self.pos - n:self.pos])]
            self.pos -= n
        if self.pos == self.end:
            self.forward = False
        elif self.pos == self.warm:
            self.forward = True
        return out

    def checkpoint(self) -> None:
        """Record the result at the current position (an extra read,
        outside the timed samples; copied, since a grouped result may
        be the engine's own dict)."""
        result = self.engine.result()
        self.checks.append((self.pos, dict(result) if isinstance(result, dict) else result))


def freeze_inputs() -> None:
    """Move the generated streams out of the garbage collector's sight:
    a run holds far more input events than a deployment would, and
    full collections scanning them would be charged to the engines."""
    gc.collect()
    gc.freeze()


def engine_memory() -> MemoryPeak:
    """This process's memory above what it holds once the inputs are
    made: the engines' share of ``peak_rss_mb``."""
    return MemoryPeak(rss_mb, rss_mb())


def stand_up(lanes: list[Lane], build, repeats: int) -> list[float]:
    """Build and warm every lane's engine ``repeats`` times; the last
    engines are kept.  Returns the set-up times."""
    times = []
    for _ in range(repeats):
        close_all(lanes)
        gc.collect()
        t0 = clock()
        for lane in lanes:
            lane.engine = build(lane)
        times.append(clock() - t0)
    return times


def close_all(lanes: list[Lane]) -> None:
    for lane in lanes:
        close = getattr(lane.engine, "close", None)
        if close is not None:
            close()
        lane.engine = None


def warm_built(lane: Lane):
    engine = registry.build_engine(lane.query, "rpai")
    engine.warm_start(Stream(lane.events[:lane.warm]))
    return engine


def rounds_for(seconds: float, per_second: float) -> int:
    return max(1, round(seconds * per_second))


def run_rounds(lanes: list[Lane], rounds: int, memory: MemoryPeak) -> None:
    """Feed ``rounds`` whole rounds, sampling ``memory`` and cutting the
    timeline after each; checkpoints after rounds 1, 4, 16, … and after
    the last."""
    next_check = 1
    memory.sample()
    for done in range(1, rounds + 1):
        for lane in lanes:
            batch = lane.next_slice()
            if lane.chunk:
                _feed_chunks(lane, batch)
            else:
                _feed_events(lane, batch)
        lanes[0].timeline.cut()
        memory.sample()
        if done == next_check or done == rounds:
            for lane in lanes:
                lane.checkpoint()
        if done == next_check:
            next_check *= 4


def _feed_events(lane: Lane, batch: list) -> None:
    write = lane.engine.on_event
    read = lane.engine.result
    every = lane.read_every
    samples = lane.samples
    done = lane.events_done
    write_s = read_s = 0.0
    for event in batch:
        t0 = clock()
        write(event)
        t1 = clock()
        done += 1
        if done % every == 0:
            read()
            t2 = clock()
            read_s += t2 - t1
        else:
            t2 = t1
        write_s += t1 - t0
        samples.append(t2 - t0)
    lane.events_done = done
    lane.write_s += write_s
    lane.read_s += read_s


def _feed_chunks(lane: Lane, batch: list) -> None:
    write = lane.engine.on_batch
    read = lane.engine.result
    size = lane.chunk
    for start in range(0, len(batch), size):
        chunk = batch[start:start + size]
        t0 = clock()
        write(chunk)
        t1 = clock()
        read()
        t2 = clock()
        lane.write_s += t1 - t0
        lane.read_s += t2 - t1
        lane.samples.append(t2 - t0)
        lane.events_done += len(chunk)


def verify(report: Report, lanes: list[Lane]) -> None:
    """Compare every checkpoint with the oracle of its stream prefix.
    Lanes over the same stream share one sweep."""
    by_stream: dict[int, list[Lane]] = {}
    for lane in lanes:
        by_stream.setdefault(id(lane.events), []).append(lane)
    for group in by_stream.values():
        wanted = sorted({pos for lane in group for pos, _ in lane.checks})
        expected: dict[tuple[str, int], object] = {}
        live = LiveSet()
        queries = {lane.query for lane in group}
        for pos in wanted:
            live.advance(group[0].events, pos)
            for query in queries:
                expected[query, pos] = ORACLES[query](live)
        for lane in group:
            for pos, got in lane.checks:
                want = expected[lane.query, pos]
                report.check(f"{lane.query}@{pos}", same(got, want),
                             f"engine {got!r} != oracle {want!r}")


def summarize(report: Report, lanes: list[Lane], what: str) -> None:
    timeline = lanes[0].timeline
    events = sum(lane.events_done for lane in lanes)
    busy = sum(lane.write_s + lane.read_s for lane in lanes)
    report.ops(len(timeline.samples))
    report.layers["events"] = events
    report.metric("ev_per_s", events / busy)
    latency_metrics(report, timeline.samples, what, timeline.cuts)
    for lane in lanes:
        report.layers[f"per_query.{lane.query}.ev_per_s"] = (
            lane.events_done / (lane.write_s + lane.read_s)
        )
        report.note(
            f"{lane.query}: {lane.events_done} events, write {lane.write_s:.3f}s "
            f"read {lane.read_s:.3f}s, position {lane.pos}/{lane.end}"
        )


def state_bytes(engines) -> int:
    return sum(len(pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL))
               for engine in engines)


# ---------------------------------------------------------------------------
# book-fresh: per-event updates, a read after every one
# ---------------------------------------------------------------------------

BOOK_WARM = 20_000
SQ1_WARM = 3_000
BOOK_ROUND = 256
SQ1_ROUND = 8
BOOK_ROUNDS_PER_S = 18


def book_fresh(report: Report, seed: int, seconds: float, tracer=None) -> None:
    rounds = rounds_for(seconds, BOOK_ROUNDS_PER_S)
    events = streams.order_book(seed, BOOK_WARM + rounds * BOOK_ROUND)
    timeline = Timeline()
    lanes = [Lane(q, events, BOOK_WARM, BOOK_ROUND, timeline)
             for q in ("VWAP", "MST", "PSP", "NQ1")]
    lanes.append(Lane("SQ1", events, SQ1_WARM, SQ1_ROUND, timeline))
    # three set-ups of about two seconds each are steady enough
    _fresh(report, lanes, rounds, tracer, "update (write + read)", repeats=3)


# ---------------------------------------------------------------------------
# tpch-write: per-event writes, a read every READ_EVERY events
# ---------------------------------------------------------------------------

TPCH_SCALE = 3.0
TPCH_WARM_LINEITEMS = 40_000
EQ_WARM = 20_000
EQ_EVENTS = 100_000
TPCH_ROUND = 512
TPCH_ROUNDS_PER_S = 70
READ_EVERY = 64


def tpch_write(report: Report, seed: int, seconds: float, tracer=None) -> None:
    lines = streams.tpch(seed, TPCH_SCALE)
    reference = sum(1 for e in lines if e.relation != "lineitem")
    r = streams.r_stream(seed + 1, EQ_EVENTS)
    warm = reference + TPCH_WARM_LINEITEMS
    timeline = Timeline()
    lanes = [
        Lane("Q17", lines, warm, TPCH_ROUND, timeline, READ_EVERY),
        Lane("Q18", lines, warm, TPCH_ROUND, timeline, READ_EVERY),
        Lane("EQ", r, EQ_WARM, TPCH_ROUND, timeline, READ_EVERY),
    ]
    _fresh(report, lanes, rounds_for(seconds, TPCH_ROUNDS_PER_S), tracer,
           f"write (+ read every {READ_EVERY})", repeats=SHORT_SETUP_REPEATS)


def _fresh(report: Report, lanes: list[Lane], rounds: int, tracer, what: str,
           repeats: int) -> None:
    freeze_inputs()
    memory = engine_memory()
    before, after = split_repeats(repeats, tracer is not None)
    if tracer:
        tracer.begin()
    setups = stand_up(lanes, warm_built, before)
    if tracer:
        tracer.mark()
    run_rounds(lanes, rounds, memory)
    if tracer:
        tracer.end()
    report.metric("peak_rss_mb", memory.peak)
    report.note(f"{rounds} rounds")
    summarize(report, lanes, what)
    report.layers["state.bytes"] = state_bytes(lane.engine for lane in lanes)
    setups += stand_up(lanes, warm_built, after)
    report.metric("setup_s", median(setups))
    verify(report, lanes)


# ---------------------------------------------------------------------------
# batch-ingest (K=1) and shard-ingest (K=2): on_batch chunks, a read
# at every chunk boundary
# ---------------------------------------------------------------------------

#: events per ``on_batch`` chunk, per query, K=1 and K=2 alike: the two
#: workloads run the same job, so their ``ev_per_s`` compare.  In-process
#: a chunk then takes about as long on each query, so the percentiles do
#: not sit on the boundary between two lanes' latencies.
CHUNK = {"VWAP": 64, "Q18": 256, "EQ": 768}
#: events per round, the same for every lane
BATCH_ROUND = 3_072
BATCH_WARM = 8_192
#: rounds per second of run length; the lanes run one after another
K1_ROUNDS_PER_S = 10
K2_ROUNDS_PER_S = 4.8


def _batch_lanes(seed: int) -> list[Lane]:
    timeline = Timeline()

    def lane(query: str, events: list) -> Lane:
        return Lane(query, events, BATCH_WARM, BATCH_ROUND, timeline, chunk=CHUNK[query])

    return [
        lane("VWAP", streams.bids(seed, 60_000)),
        lane("Q18", streams.tpch(seed + 1, 1.0)),
        lane("EQ", streams.r_stream(seed + 2, 100_000)),
    ]


def batch_ingest(report: Report, seed: int, seconds: float, tracer=None) -> None:
    """K=1: one in-process engine per query (the single-threaded
    baseline of shard-ingest's job)."""
    lanes = _batch_lanes(seed)
    freeze_inputs()
    memory = engine_memory()
    before, after = split_repeats(SHORT_SETUP_REPEATS, tracer is not None)
    if tracer:
        tracer.begin()
    setups = stand_up(lanes, warm_built, before)
    if tracer:
        tracer.mark()
    rounds = rounds_for(seconds, K1_ROUNDS_PER_S)
    for lane in lanes:
        run_rounds([lane], rounds, memory)
    if tracer:
        tracer.end()
    report.metric("peak_rss_mb", memory.peak)
    summarize(report, lanes, "chunk (on_batch + read)")
    report.layers["state.bytes"] = state_bytes(lane.engine for lane in lanes)
    setups += stand_up(lanes, warm_built, after)
    report.metric("setup_s", median(setups))
    verify(report, lanes)


SHARDS = 2


def _sharded(lane: Lane):
    """Executor build with its two worker processes, then the warm
    prefix through ``on_batch`` (executors have no bulk load)."""
    engine = registry.build_sharded_engine(
        lane.query, "rpai", shards=SHARDS, workers=SHARDS, plan_stream=Stream(lane.events)
    )
    for start in range(0, lane.warm, lane.chunk):
        engine.on_batch(lane.events[start:min(start + lane.chunk, lane.warm)])
    return engine


def _workers_memory() -> MemoryPeak:
    """The live shard workers' own memory, summed (their engine state);
    one executor is alive at a time, so its workers are this process's
    only multiprocessing children."""
    pids = [process.pid for process in multiprocessing.active_children()]
    return MemoryPeak(lambda: sum(private_mb(pid) for pid in pids))


def shard_ingest(report: Report, seed: int, seconds: float, tracer=None) -> None:
    """K=2: the same job through the multiprocess sharded executor,
    one executor (two workers) alive at a time."""
    lanes = _batch_lanes(seed)
    freeze_inputs()
    setup = peak = 0.0
    rounds = rounds_for(seconds, K2_ROUNDS_PER_S)
    before, after = split_repeats(SETUP_REPEATS, tracer is not None)
    if tracer:
        tracer.begin()
    try:
        for lane in lanes:
            setups = stand_up([lane], _sharded, before)
            memory = _workers_memory()
            run_rounds([lane], rounds, memory)
            peak = max(peak, memory.peak)
            setups += stand_up([lane], _sharded, after)
            setup += median(setups)
            close_all([lane])
    finally:
        close_all(lanes)
    if tracer:
        tracer.end()
    report.metric("setup_s", setup)
    report.metric("peak_rss_mb", peak)
    summarize(report, lanes, "chunk (on_batch + read)")
    report.layers["state.bytes"] = 0.0
    verify(report, lanes)
