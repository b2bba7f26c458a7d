"""Statistics the benchmark reports: percentiles with their sample counts,
the median of per-window p99s, span self time and the event-loop residual.

Pure functions over plain lists so perfbench/test_stats.py can pin them.
"""

import math


def percentile(values, p):
    """Nearest-rank p-th percentile of `values` (0 < p <= 100).

    Returns (value, n, beyond): the percentile, the sample count, and how
    many samples lie strictly above the percentile's rank. A percentile is
    only meaningful when `beyond` is at least ten.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile rank must be in (0, 100]")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(p / 100.0 * n))
    return ordered[rank - 1], n, n - rank


def median(values):
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def window_p99(times, values, window_s, min_samples=1000):
    """Median over fixed time windows of each window's p99.

    `times[i]` places `values[i]` in window floor(times[i] / window_s).
    Windows holding fewer than `min_samples` samples (so fewer than ten
    beyond their p99) are left out. Returns (median_p99, windows,
    smallest_window_samples).
    """
    if len(times) != len(values):
        raise ValueError("times and values differ in length")
    buckets = {}
    for t, v in zip(times, values):
        buckets.setdefault(int(t // window_s), []).append(v)
    full = [b for b in buckets.values() if len(b) >= min_samples]
    if not full:
        raise ValueError("no window holds %d samples" % min_samples)
    p99s = [percentile(b, 99)[0] for b in full]
    return median(p99s), len(full), min(len(b) for b in full)


def self_times(spans):
    """Total self time per span name.

    `spans` is a list of (name, parent_index, start, end). A span's self
    time is its duration minus the part of it that its children's
    intervals cover (overlapping children count once).
    """
    children = {}
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    totals = {}
    for i, (name, _, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children.get(i, []), key=lambda c: spans[c][2]):
            lo = max(spans[c][2], cursor)
            hi = min(spans[c][3], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def event_loop_residual(epoch_s, sgd_sweep_s, rmse_train_s, rmse_test_s):
    """Wall time of an epoch not spent in the SGD sweep or either RMSE pass:
    the simulator's event loop and scheduler, seen from outside."""
    return epoch_s - sgd_sweep_s - rmse_train_s - rmse_test_s
