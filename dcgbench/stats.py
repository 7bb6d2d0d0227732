"""Arithmetic of the benchmark: medians, quartiles, tail percentiles,
error rates and per-layer self time from span records.

Tested by test_stats.py (`python3 dcgbench/test_stats.py`).
"""

import math
import statistics

# A tail percentile is reported only where at least this many samples
# lie beyond it.
MIN_TAIL = 10


def summary(values):
    """Sample count, median and quartiles (statistics.quantiles, n=4).

    A single value is its own median and quartiles."""
    values = [float(v) for v in values]
    if not values:
        return {"n": 0, "median": 0.0, "q1": 0.0, "q3": 0.0}
    if len(values) == 1:
        v = values[0]
        return {"n": 1, "median": v, "q1": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b), by Lentz's
    continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - betainc(b, a, 1.0 - x)
    log_front = a * math.log(x) + b * math.log1p(-x) + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 10000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return math.exp(log_front) * f / a


def hd_quantile(values, p):
    """Harrell-Davis estimate of the `p` quantile (0 < p < 1): a
    Beta-weighted mean of the order statistics. Unlike a single order
    statistic it moves continuously when samples cluster on a few
    values, as round trips do on the server's 20 ms accept-poll steps."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n == 0:
        return 0.0
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail_percentile(values, pct=90.0, min_tail=MIN_TAIL):
    """The Harrell-Davis estimate of the `pct` percentile, or of the
    highest percentile that still has `min_tail` samples beyond it when
    there are too few; never below the median. Returns (value,
    percentile used)."""
    n = len(values)
    if n == 0:
        return 0.0, pct
    used = max(50.0, min(pct, 100.0 * (n - min_tail) / n))
    return hd_quantile(values, used / 100.0), used


def error_rate(attempted, failed):
    """Failed operations over attempted ones."""
    if attempted <= 0:
        raise ValueError("no operation was attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie within 0..attempted")
    return failed / attempted


def durations(records):
    """Duration of every span and aggregate record, by id (ns)."""
    out = {}
    for r in records:
        if r["k"] == "span":
            out[r["id"]] = r["t1"] - r["t0"]
        elif r["k"] == "agg":
            out[r["id"]] = r["ns"]
    return out


def self_times(records):
    """Self time of every span and aggregate record: its duration minus
    the durations of its direct children. Returns (record, self ns)
    pairs."""
    dur = durations(records)
    children = {}
    for r in records:
        if r["k"] in ("span", "agg"):
            children[r["parent"]] = children.get(r["parent"], 0) + dur[r["id"]]
    return [
        (r, dur[r["id"]] - children.get(r["id"], 0))
        for r in records
        if r["k"] in ("span", "agg")
    ]


class Layers:
    """Per-layer figures from one traced run's records."""

    def __init__(self, records):
        self.records = records
        self.selfs = self_times(records)
        self.dur = durations(records)

    def self_total(self, name):
        return sum(s for r, s in self.selfs if r["name"] == name)

    def self_list(self, name):
        return [s for r, s in self.selfs if r["name"] == name]

    def agg_n(self, name):
        return sum(r["n"] for r in self.records if r["k"] == "agg" and r["name"] == name)

    def count(self, name):
        return sum(r["v"] for r in self.records if r["k"] == "count" and r["name"] == name)

    def count_list(self, name):
        return [r["v"] for r in self.records if r["k"] == "count" and r["name"] == name]

    def per_unit(self, name, units):
        """Self time of `name` per unit of work (ns), 0 when no work."""
        return self.self_total(name) / units if units else 0.0

    def median_self(self, name, scale):
        """Median self time of the records called `name`, divided by
        `scale` ns (1e3 for us, 1e6 for ms); 0 when there are none."""
        xs = self.self_list(name)
        return summary(xs)["median"] / scale if xs else 0.0

    def busy_fraction(self, pool="suite.pool", tasks=("suite.task", "setup.task"), workers_count="suite.workers"):
        """Summed task time over pool wall time times workers."""
        pools = [r for r in self.records if r["k"] == "span" and r["name"] == pool]
        if not pools:
            return 0.0
        ids = {r["id"] for r in pools}
        busy = sum(
            self.dur[r["id"]]
            for r in self.records
            if r["k"] == "span" and r["name"] in tasks and r["parent"] in ids
        )
        workers = max(self.count_list(workers_count) or [1])
        wall = sum(self.dur[r["id"]] for r in pools)
        return busy / (wall * workers) if wall else 0.0
