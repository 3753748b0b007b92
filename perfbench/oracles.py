"""Reference results for every query the workloads run, computed apart
from the engines.

Each oracle reads the *live multiset* of rows (a ``Counter`` per
relation, built by :class:`LiveSet` from the event prefix) and
evaluates the query's SQL meaning directly by sorting and prefix sums.
No engine, index or interpreter code from ``repro`` is used; the
comparisons keep the exact operand order of the SQL text (``0.75 *
total < prefix``), so integer-valued results must match bit for bit.
``test_oracles.py`` cross-checks every oracle against the package's
``evaluate_query`` interpreter.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

#: relation -> the row fields the oracles read, in key order
FIELDS = {
    "bids": ("price", "volume"),
    "asks": ("price", "volume"),
    "R": ("A", "B"),
    "lineitem": ("orderkey", "partkey", "quantity", "extendedprice"),
    "part": ("partkey", "brand", "container"),
    "orders": ("orderkey", "custkey"),
    "customer": ("custkey",),
}


class LiveSet:
    """Multiset of live rows per relation, advanced one event at a time."""

    def __init__(self) -> None:
        self.rows: dict[str, Counter] = defaultdict(Counter)
        self.applied = 0

    def apply(self, event) -> None:
        fields = FIELDS.get(event.relation)
        if fields is not None:
            row = event.row
            self.rows[event.relation][tuple(row[f] for f in fields)] += event.weight
        self.applied += 1

    def advance(self, events, upto: int) -> None:
        """Apply ``events[applied:upto]``."""
        for index in range(self.applied, upto):
            self.apply(events[index])

    def __getitem__(self, relation: str) -> Counter:
        return self.rows[relation]


def _by_price(rows: Counter) -> tuple[list, dict, dict, dict, int]:
    """Sorted distinct prices with per-price volume, price*volume and
    row count, plus the total volume."""
    volume: dict = defaultdict(int)
    weighted: dict = defaultdict(int)
    count: dict = defaultdict(int)
    for (price, vol), mult in rows.items():
        if mult:
            volume[price] += vol * mult
            weighted[price] += price * vol * mult
            count[price] += mult
    return sorted(volume), volume, weighted, count, sum(volume.values())


def vwap(live: LiveSet):
    prices, volume, weighted, _count, total = _by_price(live["bids"])
    out, cum = 0, 0
    for price in prices:
        cum += volume[price]
        if 0.75 * total < cum:
            out += weighted[price]
    return out


def _top_quartile_side(rows: Counter) -> tuple[int, int]:
    """(row count, price sum) of rows whose strictly-higher-priced
    volume is below a quarter of the side's total (MST's predicate)."""
    prices, volume, _weighted, count, total = _by_price(rows)
    n = s = 0
    above = total
    for price in prices:
        above -= volume[price]
        if 0.25 * total > above:
            n += count[price]
            s += price * count[price]
    return n, s


def mst(live: LiveSet):
    n_a, s_a = _top_quartile_side(live["asks"])
    n_b, s_b = _top_quartile_side(live["bids"])
    return s_a * n_b - s_b * n_a


def psp(live: LiveSet):
    def side(rows: Counter) -> tuple[int, int]:
        total = sum(vol * mult for (_p, vol), mult in rows.items())
        n = s = 0
        for (price, vol), mult in rows.items():
            if mult and vol > 0.0001 * total:
                n += mult
                s += price * mult
        return n, s

    n_b, s_b = side(live["bids"])
    n_a, s_a = side(live["asks"])
    return s_a * n_b - s_b * n_a


def sq1(live: LiveSet):
    prices, volume, weighted, _count, total = _by_price(live["bids"])
    out, below = 0, 0
    for price in prices:
        at_or_above = total - below
        below += volume[price]
        if 0.75 * at_or_above < below:
            out += weighted[price]
    return out


def nq1(live: LiveSet):
    prices, volume, weighted, _count, total = _by_price(live["bids"])
    out, cum, eligible = 0, 0, 0
    for price in prices:
        cum += volume[price]
        if 0.25 * total < cum:
            eligible += volume[price]
        if 0.75 * total < eligible:
            out += weighted[price]
    return out


def eq(live: LiveSet):
    per_a: dict = defaultdict(int)
    for (a, b), mult in live["R"].items():
        if mult:
            per_a[a] += b * mult
    total = sum(per_a.values())
    return sum(a * s for a, s in per_a.items() if 0.5 * total == s)


def q17(live: LiveSet, brand: str = "Brand#23", container: str = "WRAP BOX"):
    matching_parts: dict = defaultdict(int)
    for (partkey, p_brand, p_container), mult in live["part"].items():
        if p_brand == brand and p_container == container:
            matching_parts[partkey] += mult
    count: dict = defaultdict(int)
    quantity: dict = defaultdict(int)
    for (_ok, partkey, qty, _price), mult in live["lineitem"].items():
        count[partkey] += mult
        quantity[partkey] += qty * mult
    total = 0
    for (_ok, partkey, qty, price), mult in live["lineitem"].items():
        parts = matching_parts.get(partkey, 0)
        if parts and mult and qty < 0.2 * (quantity[partkey] / count[partkey]):
            total += price * mult * parts
    return total / 7.0


def q18(live: LiveSet, threshold: int = 300) -> dict:
    per_order: dict = defaultdict(int)
    for (orderkey, _pk, qty, _price), mult in live["lineitem"].items():
        per_order[orderkey] += qty * mult
    big = {ok for ok, qty in per_order.items() if qty > threshold}
    customers = live["customer"]
    owners: dict = defaultdict(list)
    for (orderkey, custkey), mult in live["orders"].items():
        if mult and orderkey in big and customers.get((custkey,), 0):
            owners[orderkey].append((custkey, mult * customers[(custkey,)]))
    out: dict = defaultdict(int)
    for (orderkey, _pk, qty, _price), mult in live["lineitem"].items():
        if mult:
            for custkey, weight in owners.get(orderkey, ()):
                out[custkey] += qty * mult * weight
    return dict(out)


ORACLES = {
    "VWAP": vwap,
    "MST": mst,
    "PSP": psp,
    "SQ1": sq1,
    "NQ1": nq1,
    "EQ": eq,
    "Q17": q17,
    "Q18": q18,
}


def same(got, want) -> bool:
    """Exact for integers (and dicts of them); within a relative 1e-9
    for floats."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return False
        return all(same(got[k], want[k]) for k in want)
    if isinstance(want, float):
        return isinstance(got, (int, float)) and math.isclose(
            got, want, rel_tol=1e-9, abs_tol=1e-9
        )
    return type(got) in (int, float) and got == want
