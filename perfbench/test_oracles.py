"""The reference oracles agree with the package's ``evaluate_query``
interpreter (through the ``recompute`` strategy, which re-evaluates the
SQL from scratch after every event) on short random streams with
retractions, price ties and duplicate rows.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_oracles.py -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oracles import ORACLES, LiveSet, same  # noqa: E402
from repro.engine.registry import build_engine  # noqa: E402
from repro.storage.stream import Event  # noqa: E402


def _churn(rng: random.Random, make_row, relation: str, steps: int) -> list[Event]:
    """Inserts (a third re-inserting a live row: duplicates) and
    retractions of random live rows."""
    live: list[dict] = []
    out: list[Event] = []
    for _ in range(steps):
        roll = rng.random()
        if live and roll < 0.25:
            out.append(Event(relation, live.pop(rng.randrange(len(live))), -1))
        else:
            row = rng.choice(live) if live and roll < 0.45 else make_row()
            live.append(row)
            out.append(Event(relation, row, +1))
    return out


def _book(rng: random.Random, relations: tuple[str, ...], steps: int) -> list[Event]:
    def row():
        return {"timestamp": 0, "id": 0, "broker_id": 1,
                "price": rng.randint(1, 6), "volume": rng.randint(1, 4)}

    merged = [_churn(rng, row, rel, steps) for rel in relations]
    events = [e for pair in zip(*merged) for e in pair]
    return events


def _r_stream(rng: random.Random, steps: int) -> list[Event]:
    # B in {2, 4}: totals stay small so 0.5 * total == group sum ties
    # actually occur
    return _churn(rng, lambda: {"A": rng.randint(1, 4), "B": rng.choice((2, 4))}, "R", steps)


def _tpch(rng: random.Random, steps: int) -> list[Event]:
    events = []
    for partkey in range(1, 5):
        hit = partkey % 2 == 1
        events.append(Event("part", {
            "partkey": partkey,
            "brand": "Brand#23" if hit else "Brand#12",
            "container": "WRAP BOX" if hit or partkey == 4 else "SM CASE"}, +1))
    for custkey in range(1, 4):
        events.append(Event("customer", {"custkey": custkey, "name": f"c{custkey}"}, +1))
    for orderkey in range(1, 5):
        events.append(Event("orders", {"orderkey": orderkey, "custkey": 1 + orderkey % 3,
                                       "orderdate": 1, "totalprice": 0}, +1))

    def lineitem():
        qty = rng.choice((1, 2, 10, 50, 100, 150))
        return {"orderkey": rng.randint(1, 4), "partkey": rng.randint(1, 4),
                "quantity": qty, "extendedprice": qty * 7}

    return events + _churn(rng, lineitem, "lineitem", steps)


def _stream(query: str, rng: random.Random) -> list[Event]:
    if query in ("MST", "PSP"):
        return _book(rng, ("bids", "asks"), 30)
    if query == "EQ":
        return _r_stream(rng, 40)
    if query in ("Q17", "Q18"):
        return _tpch(rng, 40)
    return _book(rng, ("bids",), 40)


@pytest.mark.parametrize("query", sorted(ORACLES))
@pytest.mark.parametrize("seed", range(8))
def test_oracle_matches_interpreter(query: str, seed: int) -> None:
    rng = random.Random(f"{query}-{seed}")
    events = _stream(query, rng)
    interpreter = build_engine(query, "recompute")
    live = LiveSet()
    for position, event in enumerate(events, 1):
        expected = interpreter.on_event(event)
        live.apply(event)
        got = ORACLES[query](live)
        assert same(got, expected), (query, seed, position, got, expected)


def test_same_is_exact_for_integers_and_tolerant_for_floats() -> None:
    assert same(10, 10) and not same(10, 11) and same(10.0, 10)
    assert same(1.0, 1.0 + 1e-12) and not same(1.0, 1.001)
    assert same({1: 2}, {1: 2}) and not same({1: 2}, {1: 2, 3: 4})
    assert not same(None, 0)
