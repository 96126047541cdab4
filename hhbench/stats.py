"""Statistics shared by the benchmark runner and its steadiness proof.

Kept free of I/O so hhbench/tests/test_stats.py can pin every rule.
"""

import statistics

# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def mean(values):
    return statistics.fmean(values)


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, n). With n samples sorted ascending, the
    sample at index n - TAIL_BEYOND - 1 has exactly TAIL_BEYOND samples
    above it, and it sits at percentile 100 * (n - TAIL_BEYOND) / n.
    With too few samples for that, the maximum is returned at
    percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def fail_rate(failed, attempted):
    """Failed checks over checks attempted; a run that checked nothing
    has failed outright."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2
