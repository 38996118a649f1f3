"""Routing and admission policies for the sharded fleet front-end.

The fleet front-end assigns every arriving application to one of N
independent cluster shards.  Routing runs at *admission time*, against the
front-end's own load accounting (estimated slot-work routed to each shard
so far), never against live simulation telemetry — that is what makes a
dispatch plan a pure function of the arrival stream, so shards simulate as
independent campaign cells with bit-identical results whether they run
serially or fanned out over worker processes.

Every policy is seeded through :class:`~repro.sim.rng.SeededStreams` and
every hash is a SHA-256 digest (:func:`stable_digest`), never the builtin
``hash()``: a routing decision must come out the same in every worker
process regardless of ``PYTHONHASHSEED``.

Arrivals are admitted in small *batches* (:data:`ADMISSION_BATCH`): the
load snapshot the policies see is frozen at batch start, modelling a
front-end that folds telemetry in periodically rather than per request.
The admission loop itself is the supervised control plane
(:func:`repro.fleet.control.supervised_partition`); a policy only picks
a shard among the ones currently serving.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Callable, Dict, List, Sequence, Tuple

from ..apps.benchmarks import BENCHMARKS
from ..sim import SeededStreams
from ..workloads.generator import Arrival

#: Arrivals admitted per routing batch; the per-shard load snapshot the
#: policies consult refreshes only at batch boundaries.
ADMISSION_BATCH = 4

#: Virtual nodes per shard on the consistent-hash ring.
VNODES = 64


def stable_digest(text: str) -> int:
    """A 63-bit integer digest of ``text``, stable across processes."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def estimated_work_ms(arrival: Arrival) -> float:
    """Admission-time work estimate of one arrival (total slot-work)."""
    spec = BENCHMARKS[arrival.app_name]
    return sum(task.exec_time_ms for task in spec.tasks) * arrival.batch_size


class RoutingPolicy:
    """Base class: map an arrival to one of the live shards.

    ``loads`` is the front-end's per-shard estimated-work snapshot;
    ``live`` is the sorted tuple of currently-serving shard indices (all
    of them when nothing has failed).
    """

    name = "?"

    def __init__(self, n_shards: int, streams: SeededStreams) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.streams = streams

    def route(
        self,
        arrival: Arrival,
        loads: Sequence[float],
        live: Sequence[int],
    ) -> int:
        raise NotImplementedError


#: Registered policies by name (insertion-ordered dict).
ROUTING_POLICIES: Dict[str, Callable[..., RoutingPolicy]] = {}


def register_policy(cls):
    """Class decorator adding a routing policy to the registry."""
    if cls.name in ROUTING_POLICIES:
        raise ValueError(f"routing policy {cls.name!r} is already registered")
    ROUTING_POLICIES[cls.name] = cls
    return cls


def get_policy(name: str, n_shards: int, streams: SeededStreams) -> RoutingPolicy:
    """Instantiate a registered policy; KeyError names the alternatives."""
    try:
        factory = ROUTING_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown routing policy {name!r}; "
            f"available: {', '.join(ROUTING_POLICIES)}"
        ) from None
    return factory(n_shards, streams)


def policy_names() -> List[str]:
    return list(ROUTING_POLICIES)


@register_policy
class ConsistentHashPolicy(RoutingPolicy):
    """Consistent-hash ring keyed by application name.

    All arrivals of one benchmark land on one shard (cache/bitstream
    affinity), and adding a shard only remaps ~1/N of the key space.
    ``VNODES`` virtual nodes per shard keep the ring balanced.
    """

    name = "hash"

    def __init__(self, n_shards: int, streams: SeededStreams) -> None:
        super().__init__(n_shards, streams)
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for vnode in range(VNODES):
                points.append((stable_digest(f"shard{shard}/vnode{vnode}"), shard))
        points.sort()
        self._ring = [point for point, _ in points]
        self._owner = [shard for _, shard in points]

    def route(
        self,
        arrival: Arrival,
        loads: Sequence[float],
        live: Sequence[int],
    ) -> int:
        # The first live vnode clockwise of the key: keys whose owner
        # stays live keep their shard, so a leave/rejoin remaps only the
        # dead shard's key range (consistent-hashing stability under
        # failures).
        if not live:
            raise ValueError("route needs at least one live shard")
        live_set = frozenset(live)
        point = stable_digest(f"app/{arrival.app_name}")
        index = bisect_right(self._ring, point) % len(self._ring)
        for step in range(len(self._ring)):
            owner = self._owner[(index + step) % len(self._ring)]
            if owner in live_set:
                return owner
        raise ValueError("route: no live shard found")  # pragma: no cover


@register_policy
class LeastLoadedPolicy(RoutingPolicy):
    """Route to the shard with the least estimated work (ties: lowest index)."""

    name = "least-loaded"

    def route(
        self,
        arrival: Arrival,
        loads: Sequence[float],
        live: Sequence[int],
    ) -> int:
        if not live:
            raise ValueError("route needs at least one live shard")
        best = live[0]
        best_load = loads[best]
        for shard in live[1:]:
            if loads[shard] < best_load:
                best = shard
                best_load = loads[shard]
        return best


@register_policy
class PowerOfTwoPolicy(RoutingPolicy):
    """Pick two random candidate shards, route to the less loaded one.

    The candidate stream comes from the fleet's seeded RNG family, so the
    choice sequence is reproducible in every process; with one shard it
    degenerates to that shard.
    """

    name = "p2c"

    def __init__(self, n_shards: int, streams: SeededStreams) -> None:
        super().__init__(n_shards, streams)
        self._rng = streams.stream("p2c")

    def route(
        self,
        arrival: Arrival,
        loads: Sequence[float],
        live: Sequence[int],
    ) -> int:
        # Candidates are drawn from the *live* index space, so every
        # decision takes exactly two draws and always lands on a live
        # shard.
        if not live:
            raise ValueError("route needs at least one live shard")
        first = live[self._rng.randrange(len(live))]
        second = live[self._rng.randrange(len(live))]
        return first if loads[first] <= loads[second] else second


def shard_loads(shards: Sequence[Sequence[Arrival]]) -> List[float]:
    """Estimated per-shard work of a dispatch plan (rollup/imbalance input)."""
    return [
        sum(estimated_work_ms(arrival) for arrival in shard) for shard in shards
    ]


def load_imbalance(shards: Sequence[Sequence[Arrival]]) -> float:
    """Max/mean estimated shard load (1.0 == perfectly balanced)."""
    loads = shard_loads(shards)
    total = sum(loads)
    if not loads or total <= 0:
        return 1.0
    return max(loads) / (total / len(loads))
