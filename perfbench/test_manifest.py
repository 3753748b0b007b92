"""BENCHMARK.json names exactly the workloads and metrics the runs have.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_manifest.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from common import Report  # noqa: E402

MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match() -> None:
    empty = {"wall": 1.0, "covered": 0.5, "spans": 0, "self_time": {}, "calls": {},
             "measured_calls": {}, "totals": {}, "maxima": {}, "obs": {},
             "measured_obs": {}}
    report = Report("book-fresh")
    report.metric("ev_per_s", 1.0)
    values = run.layer_metrics(report, empty, 1.0)
    assert [m["name"] for m in MANIFEST["per_layer"]] == list(values)


def test_listed_workloads_run() -> None:
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.workloads())
