"""Shared pieces of the workloads: the run report, percentiles, memory.

Metric names and units are those of ``BENCHMARK.json``; a workload
records values by name only."""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys

#: repetitions of a workload's set-up; ``setup_s`` is their median.
#: Untraced, about half are made before the measured rounds and the
#: rest after them (see ``split_repeats``), so the median samples the
#: host at both ends of the run rather than during one short burst.
#: Set-ups under a fifth of a second are repeated ``SHORT_SETUP_REPEATS``
#: times instead, so that their median is not one burst of host noise.
SETUP_REPEATS = 5
SHORT_SETUP_REPEATS = 9
#: least samples in one window of the latency percentiles
WINDOW_SAMPLES = 1_000


def split_repeats(repeats: int, traced: bool) -> tuple[int, int]:
    """Set-ups to make before and after the measured rounds.  A traced
    run makes them all before, inside its traced window."""
    if traced:
        return repeats, 0
    return (repeats + 1) // 2, repeats // 2


class Report:
    """What one run measured and checked.

    ``attempted``/``failed`` count operations: every timed write (an
    event, an ingest batch or a chunk) and every comparison with an
    oracle.  A mismatch fails its comparison; an operation that raised
    or did not finish within the workload's budget fails itself.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.child_summaries: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        """One comparison with an oracle."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(f"{label}: {detail}")
            print(f"MISMATCH {self.workload} {label}: {detail}", file=sys.stderr)

    def note(self, text: str) -> None:
        print(f"[{self.workload}] {text}", file=sys.stderr)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def windows(count: int, cuts=None, least: int = WINDOW_SAMPLES) -> list[tuple[int, int]]:
    """Consecutive ``(start, end)`` slices of ``count`` samples, each of
    at least ``least`` samples and each ending at one of ``cuts`` (the
    sample counts at round boundaries; any sample when ``None``).  A
    remainder too small for a window of its own joins the last one; with
    fewer than ``least`` samples in all, there is one window."""
    out: list[tuple[int, int]] = []
    start = 0
    for cut in range(1, count + 1) if cuts is None else cuts:
        if cut - start >= least:
            out.append((start, cut))
            start = cut
    if not out:
        return [(0, count)]
    if start < count:
        out[-1] = (out[-1][0], count)
    return out


def latency_metrics(report: Report, samples_s: list[float], what: str, cuts=None) -> None:
    """``p50_ms`` from per-operation seconds, in the order they were
    taken: the median of its values over consecutive windows of at least
    ``WINDOW_SAMPLES`` samples (see ``windows``), so one burst of load
    from elsewhere on the host sets at most a few windows' values, not
    the run's.  The p99, taken the same way, is printed with its sample
    counts but is not a metric: see perfbench/README.md."""
    parts = [sorted(samples_s[a:b]) for a, b in windows(len(samples_s), cuts)]
    report.metric("p50_ms", median([percentile(p, 0.50) for p in parts]) * 1e3)
    p99_ms = median([percentile(p, 0.99) for p in parts]) * 1e3
    smallest = min(len(p) for p in parts)
    beyond = smallest - math.ceil(0.99 * smallest)
    report.note(f"{what}: {len(samples_s)} samples in {len(parts)} windows of "
                f"{smallest} or more; p99 {p99_ms:.6g} ms, {beyond} or more "
                "samples beyond it in each window")


def median(values: list[float]) -> float:
    return statistics.median(values)


_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Resident memory of this process now, in MB."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * _PAGE_MB


def private_mb(pid: int) -> float:
    """Memory only process ``pid`` holds, in MB: its private resident
    pages.  For a forked worker this leaves out the pages it still
    shares with its parent (the parent's inputs), and counts what it
    built or wrote itself."""
    kb = 0
    with open(f"/proc/{pid}/smaps_rollup") as rollup:
        for line in rollup:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                kb += int(line.split()[1])
    return kb / 1024


class MemoryPeak:
    """Largest sampled memory above a baseline, in MB.  ``sample`` is
    called between timed operations, never inside one."""

    def __init__(self, read, baseline: float = 0.0) -> None:
        self.read = read
        self.baseline = baseline
        self.peak = 0.0

    def sample(self) -> None:
        self.peak = max(self.peak, self.read() - self.baseline)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The first shared-memory segment a process makes (the shard rings)
    starts a tracker process that otherwise ends only after this one
    has exited, orphaned, and outlives the run.  Stopping it is safe
    once every segment is closed: it unlinks any that were left."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def children_peak_rss_mb() -> float:
    """High-water resident memory in MB of the largest waited-for child
    process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
