"""serve-durable: ``repro serve`` with a WAL, driven over TCP.

The server runs as a child process (``python -m repro serve --port 0
--wal-root <dir>``; in the traced run, ``serve_shim.py`` with the same
arguments).  This process is the load generator: two connections, A
ingests and subscribes, B only subscribes, both to VWAP, PSP and Q18.

* **Open loop**: batches are *due* at a fixed offered rate whatever the
  server does; a sample is the time from when a batch was due until its
  ``INGEST_ACK`` reaches A, which on A's connection follows every delta
  the batch caused (``p50_ms``, and the p99 printed beside it: the
  median of each percentile over consecutive windows of at least 1000
  samples).
* **Saturating**: a fixed number of batches, at most ``WINDOW`` in
  flight; events acknowledged per second (``ev_per_s``, the median over
  windows of ``RATE_WINDOW`` batches).

The two phases alternate ``CYCLES`` times, so that both are measured
across the whole run rather than each in one stretch of it.

Every subscriber's folded view is compared with the oracle after each
phase, and the final DRAIN snapshots after SIGTERM as well.  The server
must drain and exit cleanly; it is killed after ``DRAIN_TIMEOUT_S``, and
its port and WAL directory never outlive the run.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import streams
from common import (
    SETUP_REPEATS,
    Report,
    children_peak_rss_mb,
    latency_metrics,
    median,
    percentile,
)
from oracles import ORACLES, LiveSet, same
from workloads import freeze_inputs

from repro.serving.client import SubscriptionClient
from repro.serving.protocol import MsgType

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

QUERIES = ("VWAP", "PSP", "Q18")
#: events per ingest batch
BATCH = 4
#: offered load of the open-loop phase, events per second: 312 batches
#: a second, under half of what the server acknowledges when saturated,
#: so about five checkpoints a second
OFFERED = 1_250
#: ingest batches in flight in the saturating phase
WINDOW = 4
#: acknowledged batches per throughput window of the saturating phase
#: (the server checkpoints each engine every 64 WAL records by default,
#: so a window holds one checkpoint)
RATE_WINDOW = 64
#: events ingested before the measured phases (large batches, not
#: timed), so snapshots and deltas work on a book of realistic size
PRELOAD = 40_000
PRELOAD_BATCH = 256
#: share of the run spent in the open-loop phase
OPEN_SHARE = 0.85
#: open-loop and saturating phases alternate this many times
CYCLES = 4
#: events per second of run length sent in the saturating phase (about
#: what the server sustains today, so the phase takes about its share)
SATURATING_EV_PER_S = 3_000
#: seconds to wait for the ``serving on`` line, a drain, or a stall
START_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 15.0
SETTLE_TIMEOUT_S = 30.0

clock = time.perf_counter


class TimedClient(SubscriptionClient):
    """Records when each ``INGEST_ACK`` arrives."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, reconnect=False, **kwargs)
        self.acked_at: dict[int, float] = {}
        self.ack = asyncio.Event()

    async def _dispatch(self, message) -> None:
        if message.type is MsgType.INGEST_ACK:
            self.acked_at[message.seq] = clock()
            self.ack.set()
        await super()._dispatch(message)


class Server:
    """The server child process and its WAL directory."""

    def __init__(self, traced: bool, summary: Path) -> None:
        SCRATCH.mkdir(exist_ok=True)
        OUT.mkdir(exist_ok=True)
        self.wal_root = Path(tempfile.mkdtemp(prefix="wal-", dir=SCRATCH))
        self.traced = traced
        self.summary = summary
        self.proc: asyncio.subprocess.Process | None = None
        self.port = 0
        self.clean = False

    async def start(self) -> None:
        serve_args = ["serve", "--port", "0", "--wal-root", str(self.wal_root)]
        if self.traced:
            cmd = [sys.executable, str(HERE / "serve_shim.py"), str(self.summary), *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = await asyncio.create_subprocess_exec(
            *cmd, cwd=ROOT, env=env, stdout=asyncio.subprocess.PIPE
        )
        line = await asyncio.wait_for(self.proc.stdout.readline(), START_TIMEOUT_S)
        text = line.decode()
        if not text.startswith("serving on "):
            raise RuntimeError(f"server did not start: {text!r}")
        self.port = int(text.split()[2].rsplit(":", 1)[1])

    async def stop(self) -> None:
        """SIGTERM and require a clean drain; kill past the timeout."""
        if self.proc is None or self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = await asyncio.wait_for(self.proc.communicate(), DRAIN_TIMEOUT_S)
            self.clean = self.proc.returncode == 0 and b"drained and stopped" in out
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()

    def kill(self) -> None:
        """Last resort outside the event loop: SIGKILL and reap."""
        if self.proc is None or self.proc.returncode is not None:
            return
        try:
            os.kill(self.proc.pid, signal.SIGKILL)
            os.waitpid(self.proc.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass

    def remove(self) -> None:
        shutil.rmtree(self.wal_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


async def _connect(server: Server) -> list[TimedClient]:
    """A (ingests) and B (only subscribes), both subscribed to every
    query and holding its snapshot."""
    clients = [TimedClient("127.0.0.1", server.port, tenant="bench", session=session)
               for session in ("ingest", "watch")]
    for client in clients:
        await client.connect()
        for query in QUERIES:
            await client.subscribe(query)
    for client in clients:
        await client.wait_for(lambda c: set(QUERIES) <= set(c.results), START_TIMEOUT_S)
    return clients


async def _settle(ingest: TimedClient, watch: TimedClient) -> None:
    """Every ingest acked, and B has folded every delta A has."""
    await ingest.settle(SETTLE_TIMEOUT_S)
    await watch.wait_for(
        lambda c: all(c.acked.get(q, 0) >= ingest.acked.get(q, 0) for q in QUERIES),
        SETTLE_TIMEOUT_S,
    )


def _check_views(report: Report, live: LiveSet, views: dict[str, dict], label: str) -> None:
    for query in QUERIES:
        want = ORACLES[query](live)
        for who, results in views.items():
            got = results.get(query)
            report.check(f"{label}/{who}/{query}", same(got, want),
                         f"view {got!r} != oracle {want!r}")


async def _open_loop(ingest: TimedClient, batches: list, first: int, count: int):
    """Send ``count`` batches on the offered schedule; returns the due
    time of each ingest seq and how late each send was."""
    interval = BATCH / OFFERED
    due_of: dict[int, float] = {}
    late: list[float] = []
    start = clock() + 0.01
    for i in range(count):
        due = start + i * interval
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(max(0.0, clock() - due))
        seq = await ingest.ingest(batches[first + i])
        due_of[seq] = due
    return due_of, late


async def _window_send(ingest: TimedClient, batch: list) -> int:
    """Send once fewer than ``WINDOW`` ingests are in flight."""
    while len(ingest.pending_ingest) >= WINDOW:
        ingest.ack.clear()
        await asyncio.wait_for(ingest.ack.wait(), SETTLE_TIMEOUT_S)
    return await ingest.ingest(batch)


async def _saturate(ingest: TimedClient, batches: list) -> list[float]:
    """Send ``batches`` with ``WINDOW`` in flight; returns their ack
    times."""
    seqs = [await _window_send(ingest, batch) for batch in batches]
    await ingest.settle(SETTLE_TIMEOUT_S)
    return [ingest.acked_at[seq] for seq in seqs]


def _window_rates(acked: list[float]) -> list[float]:
    """Events per second over consecutive windows of ``RATE_WINDOW``
    acknowledged batches (one shorter window in a very short run)."""
    size = min(RATE_WINDOW, len(acked) - 1)
    return [size * BATCH / (acked[i + size] - acked[i])
            for i in range(0, len(acked) - size, size)]


async def _session(report: Report, server: Server, batches: list, events: list,
                   seconds: float, measure: bool) -> float:
    """Start the server and subscribe both clients (the set-up); when
    ``measure``, run both phases and check every view.  Returns the
    set-up time."""
    clients: list[TimedClient] = []
    try:
        t0 = clock()
        await server.start()
        clients = await _connect(server)
        setup = clock() - t0
        if measure:
            await _measure(report, *clients, batches, events, seconds, server)
        else:
            await server.stop()
            report.check("drain", server.clean, "server did not drain and exit cleanly")
    finally:
        for client in clients:
            await client.close()
        if server.proc is not None and server.proc.returncode is None:
            server.proc.kill()
            await server.proc.wait()
    return setup


async def _measure(report, ingest, watch, batches, events, seconds, server) -> None:
    t0 = clock()
    for start in range(0, PRELOAD, PRELOAD_BATCH):
        await _window_send(ingest, events[start:min(start + PRELOAD_BATCH, PRELOAD)])
    await _settle(ingest, watch)
    live = LiveSet()
    live.advance(events, PRELOAD)
    _check_views(report, live, {"A": ingest.results, "B": watch.results}, "preload")
    report.note(f"preload of {PRELOAD} events: {clock() - t0:.2f}s")

    open_count, saturating = _phase_batches(seconds)
    fresh: list[float] = []
    late: list[float] = []
    rates: list[float] = []
    sent = 0
    for cycle in range(CYCLES):
        due_of, lateness = await _open_loop(ingest, batches, sent, open_count)
        await _settle(ingest, watch)
        fresh += [ingest.acked_at[seq] - due for seq, due in due_of.items()]
        late += lateness
        sent += open_count
        report.ops(open_count)
        live.advance(events, PRELOAD + sent * BATCH)
        _check_views(report, live, {"A": ingest.results, "B": watch.results},
                     f"open-loop{cycle}")

        acked = await _saturate(ingest, batches[sent:sent + saturating])
        await _settle(ingest, watch)
        rates += _window_rates(acked)
        sent += saturating
        report.ops(saturating)
        live.advance(events, PRELOAD + sent * BATCH)
        _check_views(report, live, {"A": ingest.results, "B": watch.results},
                     f"saturating{cycle}")

    await server.stop()
    report.check("drain", server.clean, "server did not drain and exit cleanly")
    _check_views(report, live, {"A": ingest.drained, "B": watch.drained}, "drain")

    report.metric("ev_per_s", median(rates))
    latency_metrics(report, fresh, f"freshness at {OFFERED} ev/s offered")
    report.layers["gen.late_p99_ms"] = percentile(sorted(late), 0.99) * 1e3
    report.note(f"{CYCLES} cycles of open loop: {open_count} batches of {BATCH}, "
                f"then saturating: {saturating} batches")


def _phase_batches(seconds: float) -> tuple[int, int]:
    """Batches of one open-loop and one saturating phase."""
    open_loop = math.ceil(seconds * OPEN_SHARE * OFFERED / BATCH / CYCLES)
    saturating = math.ceil(seconds * (1 - OPEN_SHARE) * SATURATING_EV_PER_S / BATCH / CYCLES)
    return open_loop, saturating


def serve_durable(report: Report, seed: int, seconds: float, tracer=None) -> None:
    events = streams.serving_mix(seed, PRELOAD + CYCLES * sum(_phase_batches(seconds)) * BATCH)
    batches = [events[i:i + BATCH] for i in range(PRELOAD, len(events), BATCH)]
    freeze_inputs()
    setups: list[float] = []
    if tracer:
        tracer.begin()
    for repeat in range(SETUP_REPEATS):
        measure = repeat == SETUP_REPEATS - 1
        summary = OUT / f"serve-durable-seed{seed}-server{repeat}.json"
        server = Server(tracer is not None, summary)
        try:
            setups.append(asyncio.run(asyncio.wait_for(
                _session(report, server, batches, events, seconds, measure),
                seconds + 4 * SETTLE_TIMEOUT_S,
            )))
        finally:
            server.kill()
            server.remove()
            if summary.exists():
                report.child_summaries.append(json.loads(summary.read_text()))
                summary.unlink()
    if tracer:
        tracer.end()
    report.metric("setup_s", median(setups))
    report.metric("peak_rss_mb", children_peak_rss_mb())
