"""Statistics perfbench/run.py computes from the executor's raw samples.

Kept free of I/O so `perfbench/tests/test_stats.py` can pin each rule:
the percentile rule (at least ten samples beyond a reported percentile),
the open-loop ladder step verdict and peak finder, span self time, and the
quartile spread the steadiness check uses.
"""

import math
import statistics

# A reported percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to report it."""


def samples_beyond(n, q):
    """Samples strictly after the nearest-rank q-quantile of n samples."""
    return n - math.ceil(q * n)


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile of `values` (None counts as +inf: a failed
    operation misses every latency limit). Raises InsufficientSamples when
    fewer than `min_beyond` samples lie beyond it."""
    n = len(values)
    if n == 0 or samples_beyond(n, q) < min_beyond:
        raise InsufficientSamples(
            f"p{q * 100:g} of {n} samples leaves "
            f"{max(0, samples_beyond(n, q)) if n else 0} beyond it; "
            f"need {min_beyond}")
    ordered = sorted(math.inf if v is None else v for v in values)
    return ordered[max(0, math.ceil(q * n) - 1)]


def windowed_percentile(values, q, window=1000, min_beyond=MIN_BEYOND):
    """Median over consecutive blocks of at least `window` samples (in send
    order) of each block's q-quantile; each block must support it under the
    ten-beyond rule. A tail statistic that one scheduler stall in one block
    cannot move, while a tail present throughout moves every block."""
    blocks = len(values) // window
    if blocks == 0:
        raise InsufficientSamples(
            f"{len(values)} samples make no block of {window}")
    size = len(values) // blocks
    per_block = [
        percentile(values[b * size:(b + 1) * size if b < blocks - 1 else None],
                   q, min_beyond)
        for b in range(blocks)]
    return statistics.median(per_block), blocks


def highest_supported_quantile(n, candidates=(0.99, 0.95, 0.9, 0.5),
                               min_beyond=MIN_BEYOND):
    """The highest of `candidates` that n samples support, or None."""
    for q in candidates:
        if n > 0 and samples_beyond(n, q) >= min_beyond:
            return q
    return None


def ladder(base, ratio, rungs):
    """The fixed rate ladder: base * ratio**i for i in [0, rungs)."""
    return [base * ratio ** i for i in range(rungs)]


def backlog_grows(latencies, limit_ms):
    """True when latency climbs across a step (in send order): the median of
    the last third exceeds that of the first third by more than a quarter of
    the latency limit, so the queue is still growing when the step ends."""
    third = len(latencies) // 3
    if third == 0:
        return False
    head = [math.inf if v is None else v for v in latencies[:third]]
    tail = [math.inf if v is None else v for v in latencies[-third:]]
    return statistics.median(tail) - statistics.median(head) > limit_ms / 4


def step_passes(latencies, limit_ms, max_fail_share=0.01):
    """Ladder step verdict: at most `max_fail_share` of operations miss the
    latency limit (failed ones always miss) and the backlog is not growing.
    Equivalent to p99 <= limit at the default share, without needing a
    reportable p99 at every step."""
    if not latencies:
        return False
    misses = sum(1 for v in latencies if v is None or v > limit_ms)
    if misses > max_fail_share * len(latencies):
        return False
    return not backlog_grows(latencies, limit_ms)


def find_peak(rates, passes):
    """Highest index i of the ascending ladder `rates` with passes(rates[i]),
    by bisection (the verdict is taken to be monotone in rate). Returns
    (index or -1 when even the lowest rung fails, [(rate, verdict), ...] in
    probe order)."""
    lo, hi = -1, len(rates)  # lo passes (virtually), hi fails (virtually)
    probes = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok = passes(rates[mid])
        probes.append((rates[mid], ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return lo, probes


def probes_needed(rungs):
    """Bisection probes `find_peak` makes on a ladder of `rungs` rungs."""
    return math.ceil(math.log2(rungs + 1))


def self_times(spans):
    """Self time per span id: its duration minus the part of its interval
    covered by its children (overlapping children count once; the parts of
    children outside the parent are ignored). `spans` rows are
    (name, start, end, id, parent, request)."""
    children = {}
    for row in spans:
        children.setdefault(row[4], []).append((row[1], row[2]))
    result = {}
    for name, start, end, span_id, _parent, _request in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span_id] = (end - start) - covered
    return result


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)
    gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def drift(first, second):
    """Share by which `second` differs from `first`, in either direction."""
    return abs(second - first) / first
