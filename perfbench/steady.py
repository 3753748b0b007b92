"""Steadiness of the benchmark: run each workload several times, report
every end-to-end metric's median and quartiles, and compare two sets of
runs against the bounds in BENCHMARK.json.

Usage, from the root of a checkout::

    python3 perfbench/steady.py run --runs 10 --first-seed 1 --out A.json
    python3 perfbench/steady.py run --runs 10 --first-seed 101 --out B.json
    python3 perfbench/steady.py compare A.json B.json

``run`` prints, per workload and metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile
distance as a share of the median, next to the metric's bound; a spread
above a third of the bound is flagged ``WIDE`` and one above the bound
``UNSTEADY``.  ``compare``
reports every metric whose second median is worse than the first by
more than its bound, and any workload whose share of failed operations
differs between the sets.  Both exit 1 when anything is out of bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _one(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def cmd_run(args) -> int:
    manifest = _manifest()
    workloads = args.workloads or [w["name"] for w in manifest["workloads"]]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    seconds = args.seconds or manifest["run_seconds"]
    results: dict = {}
    bad = False
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            runs.append(_one(workload, args.first_seed + i, seconds))
            print(f"{workload} seed {args.first_seed + i}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        results[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: failed share {sorted(shares)}"
              f"{'  VARIES' if len(shares) > 1 else ''}")
        bad |= len(shares) > 1 or not all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            s = _stats([r["metrics"][name]["value"] for r in runs])
            flag = ""
            if s["spread"] > bound:
                flag, bad = "UNSTEADY", True
            elif s["spread"] > bound / 3:
                flag = "WIDE"
            print(f"  {name:12s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:6.3f}  bound {bound}  {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(results))
    return 1 if bad else 0


def cmd_compare(args) -> int:
    manifest = _manifest()
    metrics = {m["name"]: m for m in manifest["end_to_end"]}
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    bad = False
    for workload in first:
        if workload not in second:
            continue
        share = [{r["failed"] / r["attempted"] for r in runs}
                 for runs in (first[workload], second[workload])]
        if share[0] != share[1]:
            print(f"{workload}: failed share differs {share[0]} vs {share[1]}")
            bad = True
        for name, meta in metrics.items():
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (b - a) / a if meta["better"] == "lower" else (a - b) / a
            flag = "OUT OF BOUND" if worse > meta["bound"] else ""
            bad |= bool(flag)
            print(f"{workload:14s} {name:12s} {a:<12.6g} -> {b:<12.6g} "
                  f"worse by {worse:+.3f} (bound {meta['bound']}) {flag}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    run.add_argument("--workloads", nargs="*")
    run.add_argument("--out")
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
