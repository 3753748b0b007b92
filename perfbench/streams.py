"""Seeded input streams for the workloads.

Every stream is a pure function of ``--seed`` (and of the run length,
which only sets how long a stream is made: a longer run reads further
into the same stream).  The engines receive only these events.
"""

from __future__ import annotations

import random

from repro.storage.stream import Event
from repro.workloads import (
    OrderBookConfig,
    TPCHConfig,
    generate_bids_only,
    generate_order_book,
    generate_tpch,
)

#: distinct integer price levels of the synthetic order book
PRICE_LEVELS = 5_000
#: share of retractions in the order book and the ``R`` stream
DELETE_RATIO = 0.1


def _book_config(seed: int, events: int) -> OrderBookConfig:
    return OrderBookConfig(
        events=events,
        price_levels=PRICE_LEVELS,
        volume_max=100,
        delete_ratio=DELETE_RATIO,
        seed=seed,
    )


def order_book(seed: int, events: int) -> list[Event]:
    """Interleaved bids and asks, ~10% retractions of live orders."""
    return list(generate_order_book(_book_config(seed, events)))


def bids(seed: int, events: int) -> list[Event]:
    return list(generate_bids_only(_book_config(seed, events)))


def tpch(seed: int, scale_factor: float) -> list[Event]:
    """part, customer and orders reference rows, then the lineitem
    stream (``scale_factor`` 1 = 60k lineitems, 2k parts, 7.5k orders)."""
    return list(generate_tpch(TPCHConfig(scale_factor=scale_factor, seed=seed)))


def r_stream(seed: int, events: int) -> list[Event]:
    """Example 2.1's ``R(A, B)``: A in [1, 500], B in [1, 50], 10% of
    events retract a random live row."""
    rng = random.Random(seed)
    out: list[Event] = []
    live: list[dict] = []
    while len(out) < events:
        if live and rng.random() < DELETE_RATIO:
            out.append(Event("R", live.pop(rng.randrange(len(live))), -1))
        else:
            row = {"A": rng.randint(1, 500), "B": rng.randint(1, 50)}
            live.append(row)
            out.append(Event("R", row, +1))
    return out


def serving_mix(seed: int, events: int) -> list[Event]:
    """Order book and TPC-H interleaved three to two, so one ingest
    stream feeds VWAP, PSP and Q18 subscribers alike."""
    book = order_book(seed, events * 3 // 5)
    lines = tpch(seed + 1, 1.1 * (events * 2 // 5) / 70_000)
    out: list[Event] = []
    b = t = 0
    while b < len(book) or t < len(lines):
        out.extend(book[b:b + 3])
        out.extend(lines[t:t + 2])
        b += 3
        t += 2
    return out[:events]
