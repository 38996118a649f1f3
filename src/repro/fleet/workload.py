"""Fleet-scale arrival streams over the paper's workload generators.

A fleet serves one *global* arrival stream that the routing front-end
splits across shards, so these generators produce traffic shapes a single
two-board cluster never sees:

* **uniform** — the paper's interval regime, scaled up (control family);
* **diurnal** — sinusoidal rate modulation around the base regime, the
  day/night cycle of a public service;
* **bursty** — heavy-tailed (Pareto) inter-arrival gaps: long quiet
  stretches punctuated by arrival clumps;
* **hot-skew** — Zipf-skewed application popularity, concentrating load
  on few benchmarks (the hot-shard case under hash routing);
* **multi-tenant** — independent tenant streams under different
  congestion regimes, merged into one admission queue.

Every stream is generated from a string-seeded Mersenne-Twister stream
(seeded via SHA-512 inside CPython, independent of ``PYTHONHASHSEED``), so
a worker process regenerating a stream always reproduces it bit-identically.
The shape knobs (period, peak factor, tail index, skew exponent) are
module constants: a workload is fully described by
``(kind, condition, n_apps, batch_range, apps)``, which keeps fleet cases
representable in the verify fuzzer's flat repro files.

Generation is *phased*: all application names are drawn first, then all
batch sizes, then all inter-arrival gaps — each phase one contiguous block
of same-type draws from the stream.  Every persisted fleet stream depends
on that order (pinned by digest in ``tests/test_fleet.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from ..apps.benchmarks import BENCHMARKS
from ..workloads.generator import BATCH_RANGE, Arrival, Condition

#: The recognized stream shapes, in registry order.
FLEET_WORKLOAD_KINDS = (
    "uniform", "diurnal", "bursty", "hot-skew", "multi-tenant",
)

#: Diurnal cycle length and peak-to-trough arrival-rate ratio.
DIURNAL_PERIOD_MS = 60_000.0
DIURNAL_PEAK_FACTOR = 4.0

#: Pareto tail index of bursty inter-arrival gaps (lower == heavier tail;
#: must stay > 1 so the mean gap exists).
BURSTY_TAIL_ALPHA = 1.6

#: Zipf exponent of hot-skew application popularity.
HOT_SKEW_EXPONENT = 1.4

#: Multi-tenant mix: (tenant label, congestion regime, share of n_apps).
TENANT_MIX: Tuple[Tuple[str, Condition, float], ...] = (
    ("batch", Condition.LOOSE, 0.3),
    ("interactive", Condition.STANDARD, 0.4),
    ("realtime", Condition.STRESS, 0.3),
)


@dataclass(frozen=True)
class FleetWorkload:
    """Declarative, picklable spec of one global fleet arrival stream."""

    kind: str = "uniform"
    condition: Condition = Condition.STANDARD
    n_apps: int = 32
    batch_range: Tuple[int, int] = BATCH_RANGE
    apps: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "apps", tuple(self.apps))
        if self.kind not in FLEET_WORKLOAD_KINDS:
            raise ValueError(
                f"unknown fleet workload kind {self.kind!r}; "
                f"available: {', '.join(FLEET_WORKLOAD_KINDS)}"
            )
        if self.n_apps < 1:
            raise ValueError(f"n_apps must be >= 1, got {self.n_apps}")
        lo, hi = self.batch_range
        if not (1 <= lo <= hi):
            raise ValueError(f"bad batch range {self.batch_range}")
        unknown = [name for name in self.apps if name not in BENCHMARKS]
        if unknown:
            raise KeyError(f"unknown benchmark(s): {', '.join(unknown)}")

    # ------------------------------------------------------------------
    def app_names(self) -> List[str]:
        return list(self.apps) if self.apps else list(BENCHMARKS)

    def arrivals(self, seed: int, index: int = 0) -> List[Arrival]:
        """The global arrival stream under ``(seed, index)``.

        Drawn in three phases: all names, then all batch sizes, then all
        inter-arrival gaps.
        """
        if self.kind == "multi-tenant":
            return self._multi_tenant(seed, index)
        rng = random.Random(f"fleet/{self.kind}/{seed}/{index}")
        names = self.app_names()
        n = self.n_apps
        lo_batch, hi_batch = self.batch_range
        interval_lo, interval_hi = self.condition.interval_range
        # Phase 1: application names.
        if self.kind == "hot-skew":
            weights = [1.0 / (rank + 1) ** HOT_SKEW_EXPONENT
                       for rank in range(len(names))]
            picked = rng.choices(names, weights=weights, k=n)
        else:
            picked = [rng.choice(names) for _ in range(n)]
        # Phase 2: batch sizes.
        batch_sizes = [rng.randint(lo_batch, hi_batch) for _ in range(n)]
        # Phase 3: inter-arrival gaps (the diurnal rate modulation is a
        # sequential transform of the drawn gaps, not extra draws).
        if self.kind == "bursty":
            # Pareto gaps rescaled so the mean gap stays at the base
            # regime's mean interval (alpha/(alpha-1) is the Pareto mean).
            base_interval = (interval_lo + interval_hi) / 2.0
            scale = base_interval * (BURSTY_TAIL_ALPHA - 1.0) / BURSTY_TAIL_ALPHA
            gaps = [scale * rng.paretovariate(BURSTY_TAIL_ALPHA) for _ in range(n)]
        else:
            gaps = [rng.uniform(interval_lo, interval_hi) for _ in range(n)]
        times: List[float] = []
        t = 0.0
        for gap in gaps:
            times.append(t)
            if self.kind == "diurnal":
                # Arrival *rate* swings sinusoidally between 1x and the
                # peak factor; intervals divide by the current rate.
                phase = 2.0 * math.pi * t / DIURNAL_PERIOD_MS
                rate = 1.0 + (DIURNAL_PEAK_FACTOR - 1.0) * 0.5 * (1.0 - math.cos(phase))
                gap /= rate
            t += gap
        return [
            Arrival(app_name=name, batch_size=batch, time_ms=time_ms)
            for name, batch, time_ms in zip(picked, batch_sizes, times)
        ]

    def _multi_tenant(self, seed: int, index: int) -> List[Arrival]:
        """Independent per-tenant phased streams merged by arrival time."""
        names = self.app_names()
        lo_batch, hi_batch = self.batch_range
        merged: List[Tuple[float, int, int, Arrival]] = []
        remaining = self.n_apps
        for tenant_index, (label, condition, share) in enumerate(TENANT_MIX):
            last = tenant_index == len(TENANT_MIX) - 1
            count = remaining if last else min(
                remaining, max(1, round(self.n_apps * share))
            )
            remaining -= count
            if count <= 0:
                continue
            rng = random.Random(f"fleet/multi-tenant/{seed}/{index}/{label}")
            interval_lo, interval_hi = condition.interval_range
            picked = [rng.choice(names) for _ in range(count)]
            batch_sizes = [rng.randint(lo_batch, hi_batch) for _ in range(count)]
            gaps = [rng.uniform(interval_lo, interval_hi) for _ in range(count)]
            t = 0.0
            for order in range(count):
                arrival = Arrival(
                    app_name=picked[order],
                    batch_size=batch_sizes[order],
                    time_ms=t,
                )
                merged.append((t, tenant_index, order, arrival))
                t += gaps[order]
        merged.sort(key=lambda entry: entry[:3])
        return [arrival for _, _, _, arrival in merged]
