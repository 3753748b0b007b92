"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload book-fresh --seed 1 --seconds 10 --trace 0

The workloads and the metrics, with their units, are those listed in
``BENCHMARK.json`` (see perfbench/README.md).  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it first runs
the same workload untraced in a child process (for the tracing
overhead), then again with every layer wrapped in spans, and reports
the per-layer metrics.  Metric lines go to standard error; the last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MANIFEST = ROOT / "BENCHMARK.json"

#: hard wall-clock budget of one run; a run still going is a hang
BUDGET_S = 170

QUERIES = ("VWAP", "MST", "PSP", "NQ1", "SQ1", "Q17", "Q18", "EQ")


class Hang(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise Hang(f"run exceeded its {BUDGET_S}s budget")


def workloads() -> dict:
    import serve
    import workloads as inprocess

    return {
        "book-fresh": inprocess.book_fresh,
        "tpch-write": inprocess.tpch_write,
        "serve-durable": serve.serve_durable,
        "batch-ingest": inprocess.batch_ingest,
        "shard-ingest": inprocess.shard_ingest,
    }


def _untraced_ev_per_s(args) -> float:
    """The same run without tracing, in a child process."""
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=BUDGET_S, check=True, text=True,
    )
    last = child.stdout.strip().splitlines()[-1]
    return json.loads(last)["metrics"]["ev_per_s"]["value"]


def layer_metrics(report, summary: dict, untraced: float) -> dict:
    """Every per-layer metric, from the merged trace summary (see
    tracing.py) and the obs counters; zero where the workload does not
    exercise a layer."""
    from tracing import LAYERS

    counters = summary["obs"]
    measured = summary["measured_obs"]
    self_time = summary["self_time"]
    totals = summary["totals"]
    maxima = summary["maxima"]
    events = report.layers.get("events") or totals.get("server.events", 0.0)
    calls = summary["measured_calls"]
    index_calls = sum(v for k, v in calls.items() if k.startswith("index.")
                      and k != "index.bulk_load")

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    out = {f"{layer}_s": self_time.get(layer, 0.0) for layer in LAYERS}
    out.update({
        "query.codegen.deopts": counters.get("codegen.deopts", 0),
        "engine.events": events,
        "engine.results": measured.get("engine.results", 0),
        "index.ops_per_event": per(index_calls, events),
        "rpai.rotations_per_event": per(measured.get("rpai.rotations", 0), events),
        "rpai.fix_tree_violations": measured.get("rpai.violations", 0),
        "colbatch.bytes_per_event": per(totals.get("colbatch.bytes", 0.0),
                                        totals.get("colbatch.events", 0.0)),
        "wal.snapshot_max_ms": maxima.get("wal.snapshot_max_ms", 0.0),
        "wal.snapshot_bytes": maxima.get("wal.snapshot_bytes", 0.0),
        "protocol.wire_bytes_per_event": per(totals.get("protocol.bytes", 0.0),
                                             totals.get("server.events", 0.0)),
        "deltas.sent": totals.get("deltas.sent", 0.0),
        "server.queue_depth_max": maxima.get("server.queue_depth_max", 0.0),
        "shard.bytes_shipped": counters.get("shard.bytes_shipped", 0),
        "shard.frames_shipped": counters.get("shard.frames_shipped", 0),
    })
    for query in QUERIES:
        out[f"per_query.{query}.ev_per_s"] = report.layers.get(f"per_query.{query}.ev_per_s", 0.0)
    traced = report.metrics["ev_per_s"]
    attributed = sum(out[f"{layer}_s"] for layer in LAYERS)
    report.note(f"layer self times {attributed:.6f}s + unattributed "
                f"{summary['wall'] - summary['covered']:.6f}s = traced wall {summary['wall']:.6f}s")
    out.update({
        "state.bytes": report.layers.get("state.bytes") or maxima.get("state.bytes", 0.0),
        "gen.late_p99_ms": report.layers.get("gen.late_p99_ms", 0.0),
        "trace.overhead_ratio": per(untraced, traced),
        "trace.unattributed_s": summary["wall"] - summary["covered"],
        "trace.wall_s": summary["wall"],
        "trace.spans": summary["spans"],
    })
    return out


def main(argv=None) -> int:
    manifest = json.loads(MANIFEST.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from common import Report, stop_resource_tracker

    untraced = _untraced_ev_per_s(args) if args.trace else 0.0
    report = Report(args.workload)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(BUDGET_S)
    error = None
    try:
        workloads()[args.workload](report, args.seed, args.seconds, tracer)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        error = exc
        report.ops(1, 1)
    finally:
        signal.alarm(0)
        stop_resource_tracker()

    if tracer is not None and error is None:
        from tracing import finish

        summary = finish(tracer, report, OUT / f"{args.workload}-seed{args.seed}")
        values = layer_metrics(report, summary, untraced)
        listed = manifest["per_layer"]
    else:
        values = report.metrics
        listed = manifest["end_to_end"] if error is None else []
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, entry in metrics.items():
        print(f"{args.workload:14s} {name:34s} {entry['value']:.6g} {entry['unit']}",
              file=sys.stderr)
    correct = error is None and not report.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
