"""Percentiles and the tail rule the benchmark reports latency with."""

from __future__ import annotations

import math

#: candidate tail percentiles, highest first
TAIL_QUANTILES = (0.99, 0.90)
#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (q in (0, 1])."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n``."""
    return n - max(1, math.ceil(q * n))


def tail(values) -> tuple[float, str, int]:
    """``(value, label, n_beyond)``: the highest of p99/p90 with at least
    ten samples beyond it.  With too few samples for either, the
    maximum is reported, labelled ``max`` with zero samples beyond."""
    ordered = sorted(values)
    for q in TAIL_QUANTILES:
        n_beyond = beyond(len(ordered), q)
        if n_beyond >= MIN_BEYOND:
            return percentile(ordered, q), f"p{round(q * 100)}", n_beyond
    return ordered[-1], "max", 0


def block_rates(done, block: int, start: float) -> list[float]:
    """Work per second over consecutive blocks of ``block`` completions.

    ``done`` holds ``(t_end, work)`` in completion order; each block is
    timed from the end of the block before it (the first from
    ``start``).  A trailing partial block is dropped.  Blocks of whole
    input cycles keep a mixed workload's rate free of where a time
    window happens to cut the cycle.
    """
    rates = []
    prev = start
    for k in range(len(done) // block):
        chunk = done[k * block:(k + 1) * block]
        end = chunk[-1][0]
        rates.append(sum(work for _, work in chunk) / (end - prev))
        prev = end
    if not rates:
        raise ValueError(f"fewer than {block} completions to time")
    return rates
