"""Summary statistics shared by the runner and the compare mode."""

from __future__ import annotations

import statistics

# a percentile is reported only when at least this many samples lie beyond it
TAIL_SAMPLES = 10
_LEVELS = (99, 95, 90, 75, 50)


def tail_level(n: int) -> int | None:
    """Highest of the usual percentile levels with TAIL_SAMPLES beyond it."""
    for level in _LEVELS:
        if n * (100 - level) >= TAIL_SAMPLES * 100:
            return level
    return None


def summarize(values: list[float], better: str) -> dict:
    """Median, sample count and the tail percentile the count supports.
    The tail is the slow side: high for lower-is-better metrics, low for
    higher-is-better ones."""
    out = {"n": len(values), "median": statistics.median(values),
           "tail_level": None, "tail": None}
    level = tail_level(len(values))
    if level is not None:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        out["tail_level"] = level if better == "lower" else 100 - level
        out["tail"] = cuts[out["tail_level"] - 1]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2)


def compare_pairs(parent: list[float], change: list[float], better: str,
                  bound: float | None) -> dict:
    """Verdict for one metric from paired runs (pair i = parent[i],
    change[i]).

    better      change wins >= 9/10 of all pairs (ties count for neither)
                and the medians differ by more than the parent's own
                interquartile distance
    worse       change median is worse than the parent's by more than bound
    unresolved  the parent's spread is wider than the bound and not every
                change run beats every parent run
    same        none of the above
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two complete pairs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (cq[1] - pq[1])
    out = {"parent": pq, "change": cq, "pairs": len(parent),
           "won": wins / len(parent)}
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if out["won"] >= 0.9 and gain > pq[2] - pq[0]:
        out["verdict"] = "better"
    elif bound is not None and -gain > bound * abs(pq[1]):
        out["verdict"] = "worse"
    elif bound is not None and relative_spread(parent) > bound \
            and not all_better:
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "same"
    return out
