"""Response-time statistics (Figs. 5 and 6).

Response time of an application is completion minus arrival.  The paper
reports *relative response-time reduction* (baseline mean over system
mean, higher is better) and *relative tail latency* (system percentile
over baseline percentile, lower is better).

The statistics are pure python but match numpy's floats exactly:
``_pairwise_sum`` replicates numpy's pairwise summation (8-way unrolled
blocks of 128, halved recursion above) and ``_percentile_linear``
replicates ``np.percentile``'s linear-interpolation ``_lerp``.  The fig5
golden pins those exact floats, and ``tests/test_workloads_metrics.py``
checks them against numpy when it is installed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

#: numpy's pairwise-summation block size (PW_BLOCKSIZE).
_PW_BLOCKSIZE = 128


def _pairwise_sum(values: Sequence[float], start: int, n: int) -> float:
    """numpy's pairwise summation over ``values[start:start+n]``.

    Mirrors ``pairwise_sum_@TYPE@`` in numpy's umath loops: a plain
    accumulation below 8 elements, an 8-accumulator unrolled loop up to
    the block size, and above that a recursive halving aligned down to a
    multiple of 8 — the exact operation order, hence the exact float.
    """
    if n < 8:
        res = 0.0
        for i in range(start, start + n):
            res += values[i]
        return res
    if n <= _PW_BLOCKSIZE:
        r0, r1, r2, r3 = values[start], values[start + 1], values[start + 2], values[start + 3]
        r4, r5, r6, r7 = values[start + 4], values[start + 5], values[start + 6], values[start + 7]
        i = start + 8
        end = start + n - (n % 8)
        while i < end:
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
            i += 8
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, start + n):
            res += values[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, n - half)


def _mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))``, numpy-free but bit-identical."""
    values = [float(v) for v in values]
    return _pairwise_sum(values, 0, len(values)) / len(values)


def _percentile_linear(values: Sequence[float], q: float) -> float:
    """``float(np.percentile(values, q))`` (method="linear"), bit-identical.

    numpy computes the virtual index ``q/100 * (n-1)``, splits it into
    floor and fractional parts, and lerps between the two neighbouring
    order statistics with ``a + t*(b-a)`` — switching to ``b - (b-a)*(1-t)``
    when ``t >= 0.5`` (the symmetric form it uses to cut rounding error).
    """
    data = sorted(float(v) for v in values)
    n = len(data)
    virtual = (q / 100.0) * (n - 1)
    previous = math.floor(virtual)
    gamma = virtual - previous
    lo = min(max(int(previous), 0), n - 1)
    hi = min(lo + 1, n - 1)
    a, b = data[lo], data[hi]
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1.0 - gamma)
    return a + diff * gamma


@dataclass
class ResponseStats:
    """Summary statistics of one run's response times."""

    samples_ms: List[float] = field(default_factory=list)

    def extend(self, values: Iterable[float]) -> None:
        """Append ``values`` after one validation pass."""
        values = values if isinstance(values, list) else list(values)
        if not values:
            return
        for value in values:
            if isinstance(value, (list, tuple)):
                raise ValueError("expected a flat sample sequence")
            if float(value) < 0:
                raise ValueError(f"negative response time {value}")
        self.samples_ms.extend(values)

    @property
    def count(self) -> int:
        return len(self.samples_ms)

    def mean(self) -> float:
        self._require_samples()
        return _mean(self.samples_ms)

    def percentile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100])."""
        self._require_samples()
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return _percentile_linear(self.samples_ms, q)

    def p95(self) -> float:
        return self.percentile(95.0)

    def p99(self) -> float:
        return self.percentile(99.0)

    def _require_samples(self) -> None:
        if not self.samples_ms:
            raise ValueError("no response samples recorded")


def relative_reduction(baseline: ResponseStats, system: ResponseStats) -> float:
    """Fig. 5 metric: baseline mean / system mean (higher is better)."""
    return baseline.mean() / system.mean()


def relative_tail(baseline: ResponseStats, system: ResponseStats, q: float) -> float:
    """Fig. 6 metric: system percentile / baseline percentile (lower is better)."""
    return system.percentile(q) / baseline.percentile(q)


def summarize_runs(runs: Sequence[ResponseStats]) -> Dict[str, float]:
    """Aggregate a set of per-sequence stats into one summary dict."""
    if not runs:
        raise ValueError("no runs to summarize")
    means = [run.mean() for run in runs]
    p95s = [run.p95() for run in runs]
    p99s = [run.p99() for run in runs]
    return {
        "mean_ms": _mean(means),
        "p95_ms": _mean(p95s),
        "p99_ms": _mean(p99s),
        "runs": float(len(runs)),
        "samples": float(sum(run.count for run in runs)),
    }


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, the conventional aggregate for speedup ratios."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    logs = [math.log(v) for v in values]
    return math.exp(_mean(logs))
