"""Campaign execution backends: the simulation core, serial and parallel.

:func:`simulate_run` is the single place a (system, arrivals) pair is
turned into a finished simulation; both campaign backends are thin
wrappers over it.  Each campaign *cell* carries everything a worker
needs (workload spec, seed, resolved parameters), so the parallel
backend ships only small picklable specs to worker processes and each
worker rebuilds its own engine, RNG streams and application-instance-id
counter — no cross-run global state.

The serial backend is the reference for determinism tests: for the same
cells, :class:`ProcessBackend` must return bit-identical records.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..apps.application import reset_instance_ids
from ..config import DEFAULT_PARAMETERS, SystemParameters
from ..fpga.board import FPGABoard
from ..schedulers.base import SchedulerStats
from ..sim import DEFAULT_ENGINE, Engine, Tracer
from ..telemetry import (
    JsonlEventLogSink,
    StreamingAggregationSink,
    TelemetryBus,
)
from ..workloads.generator import Arrival, WorkloadSpec, drive
from .results import COUNTER_FIELDS, RunRecord, fingerprint_parameters
from .scenario import get_system

#: Callback invoked with ``(engine, board, scheduler)`` right after the
#: simulation is assembled and before the workload starts driving it;
#: the verify layer uses these to attach tracers and invariant monitors.
Instrument = Callable[[Engine, FPGABoard, object], None]

#: Safety horizon: every sequence must drain well before this (ms).
DEFAULT_HORIZON_MS = 500_000_000.0


class DrainError(RuntimeError):
    """A simulation ended with undrained applications.

    The message names the stuck applications and the engine clock so a
    hang is diagnosable from the exception alone.
    """

    def __init__(
        self,
        system: str,
        completions: int,
        expected: int,
        undrained: Sequence[str],
        clock_ms: float,
    ) -> None:
        self.system = system
        self.completions = completions
        self.expected = expected
        self.undrained = list(undrained)
        self.clock_ms = clock_ms
        shown = ", ".join(self.undrained[:8])
        if len(self.undrained) > 8:
            shown += f", ... ({len(self.undrained)} total)"
        super().__init__(
            f"{system} finished {completions}/{expected} apps at "
            f"t={clock_ms:.0f} ms — the simulation did not drain; "
            f"undrained: {shown or 'unknown'}"
        )

    def __reduce__(self):
        # A worker's DrainError crosses the multiprocessing boundary by
        # pickle; the default reduction would replay ``args`` (the
        # message) into the 5-argument ``__init__`` and lose the
        # diagnostic, so rebuild from the structured fields instead.
        return (
            type(self),
            (
                self.system,
                self.completions,
                self.expected,
                self.undrained,
                self.clock_ms,
            ),
        )


@dataclass
class SimulationOutcome:
    """Raw outcome of one simulation: live stats object plus makespan."""

    system: str
    stats: SchedulerStats
    makespan_ms: float


def simulate_run(
    system: str,
    arrivals: Sequence[Arrival],
    params: Optional[SystemParameters] = None,
    horizon_ms: float = DEFAULT_HORIZON_MS,
    engine_factory: Optional[Callable[[], Engine]] = None,
    tracer: Optional[Tracer] = None,
    instruments: Iterable[Instrument] = (),
    telemetry: Optional[TelemetryBus] = None,
) -> SimulationOutcome:
    """Simulate ``system`` serving ``arrivals`` on a fresh board.

    ``engine_factory`` swaps the simulation kernel (the verify layer runs
    the same cell on the optimized and the reference kernel); when omitted
    the production default (:data:`repro.sim.DEFAULT_ENGINE`, the timing
    wheel) is used.  ``tracer``, ``telemetry`` and ``instruments`` attach
    observability before the workload starts.  Attach every sink to the
    bus before passing it in: slot observation is only installed when a
    sink wants slot events.
    """
    spec = get_system(system)
    resolved = params if params is not None else DEFAULT_PARAMETERS
    reset_instance_ids()
    engine = engine_factory() if engine_factory is not None else DEFAULT_ENGINE()
    board = FPGABoard(engine, spec.board_config, resolved, name="eval")
    if tracer is not None:
        # Keyword, not positional: OnBoardScheduler subclasses registered
        # without their own __init__ take dual_core third — a positional
        # tracer would silently flip that.
        scheduler = spec.factory(board, resolved, tracer=tracer)
    else:
        scheduler = spec.factory(board, resolved)
    if telemetry is not None:
        scheduler.telemetry = telemetry
        telemetry.observe_board(board)
    for instrument in instruments:
        instrument(engine, board, scheduler)
    engine.process(drive(engine, scheduler, arrivals))
    engine.run(until=horizon_ms)
    stats: SchedulerStats = scheduler.stats
    if stats.completions != len(arrivals):
        # ``inst.name`` already embeds the instance id ("IC#3").
        undrained = [app.inst.name for app in scheduler.active_apps()]
        raise DrainError(
            system, stats.completions, len(arrivals), undrained, engine.now
        )
    # ``engine.run(until=...)`` parks the clock at the horizon; the last
    # completion is the simulation's actual makespan (an empty arrival
    # list — a fleet shard the router sent nothing to — has makespan 0).
    return SimulationOutcome(
        system=system, stats=stats, makespan_ms=stats.last_finish_ms
    )


#: Worker-resident cache of regenerated arrival sequences, keyed by the
#: deterministic (workload spec, seed, sequence index) value.  Arrivals
#: are frozen, so sharing one tuple across cells cannot leak state
#: between runs; the cap bounds memory on unbounded fuzz sweeps (cleared
#: wholesale — the cache is an amortization, not a correctness feature).
_SEQUENCE_CACHE: Dict[Tuple[object, int, int], Tuple[Arrival, ...]] = {}
_SEQUENCE_CACHE_MAX = 256


@dataclass(frozen=True)
class CampaignCell:
    """One independently simulatable (system × sequence × seed) unit.

    Cells are frozen and picklable: either ``arrivals`` is given
    explicitly (ad-hoc campaigns over a concrete workload) or the worker
    regenerates the sequence deterministically from
    ``workload.sequence(seed, sequence_index)``.
    """

    scenario: str
    system: str
    sequence_index: int
    seed: int
    params: SystemParameters = DEFAULT_PARAMETERS
    workload: Optional[WorkloadSpec] = None
    arrivals: Optional[Tuple[Arrival, ...]] = None
    horizon_ms: float = DEFAULT_HORIZON_MS
    #: Simulation kernel to run on (a ``repro.verify.reference.KERNELS``
    #: name); "default" is the production wheel kernel, and the verify
    #: layer runs the same cell on several kernels and diffs the outcomes.
    kernel: str = "default"
    #: Fleet shard index this cell simulates; -1 for non-fleet cells.
    shard: int = -1
    #: Condition label for explicit-arrival cells (a cell regenerating
    #: from ``workload`` derives the label from the spec instead).
    condition_label: str = ""
    #: Persist raw per-request response samples on the record (opt-in via
    #: ``--raw-samples``); the default keeps only the O(1)-memory digest.
    keep_raw_samples: bool = False
    #: When set, the worker writes this cell's full typed event stream as
    #: a replayable JSONL log at this path.
    events_path: Optional[str] = None

    def engine_factory(self) -> Optional[Callable[[], Engine]]:
        """Engine factory for this cell's kernel (None = default kernel)."""
        if self.kernel == "default":
            return None
        from ..verify.reference import resolve_kernel  # lazy: avoids a cycle

        return resolve_kernel(self.kernel)

    def resolve_arrivals(self) -> List[Arrival]:
        if self.arrivals is not None:
            return list(self.arrivals)
        if self.workload is None:
            raise ValueError(
                f"cell {self.scenario}/{self.system} has neither a workload "
                "spec nor explicit arrivals"
            )
        # Worker-resident reuse: every system evaluated over the same
        # (spec, seed, index) cell replays the identical sequence, so the
        # regeneration cost is paid once per worker, not once per cell.
        # The key is the frozen spec's *value* (dataclass equality over
        # condition/n_apps/batch_range/apps), never object identity —
        # id() would silently miss across pickled worker boundaries.
        key = (self.workload, self.seed, self.sequence_index)
        cached = _SEQUENCE_CACHE.get(key)
        if cached is None:
            if len(_SEQUENCE_CACHE) >= _SEQUENCE_CACHE_MAX:
                _SEQUENCE_CACHE.clear()
            cached = tuple(self.workload.sequence(self.seed, self.sequence_index))
            _SEQUENCE_CACHE[key] = cached
        return list(cached)


def execute_cell(cell: CampaignCell) -> RunRecord:
    """Run one cell to completion and flatten it into a :class:`RunRecord`.

    This is the unit of work both backends schedule; it must stay a
    module-level function so it pickles under every multiprocessing start
    method.
    """
    arrivals = cell.resolve_arrivals()
    trackers = {}

    def attach_tracker(engine, board, scheduler) -> None:
        # Observability only: the tracker subscribes to slot observers and
        # schedules nothing, so the simulation trace is unchanged.
        from ..metrics.utilization import UtilizationTracker

        trackers["utilization"] = UtilizationTracker(board)

    def configure_retention(engine, board, scheduler) -> None:
        # Digest-only cells never materialize per-request records: the
        # completion stream feeds the digest sink instead, so memory per
        # cell is O(1) in the number of requests.
        scheduler.stats.retain_responses = cell.keep_raw_samples

    # The telemetry spine: a completion-only aggregation sink builds the
    # record's response digest online (zero launch-path overhead), and an
    # optional event-log sink persists the full replayable stream.
    bus = TelemetryBus()
    aggregate = StreamingAggregationSink(kinds=("completion",))
    bus.attach(aggregate)
    if cell.events_path:
        bus.attach(
            JsonlEventLogSink(
                cell.events_path,
                meta={
                    "scenario": cell.scenario,
                    "system": cell.system,
                    "sequence_index": cell.sequence_index,
                    "seed": cell.seed,
                    "kernel": cell.kernel,
                    "shard": cell.shard,
                    "n_apps": len(arrivals),
                },
            )
        )
    try:
        outcome = simulate_run(
            cell.system,
            arrivals,
            cell.params,
            horizon_ms=cell.horizon_ms,
            engine_factory=cell.engine_factory(),
            instruments=(attach_tracker, configure_retention),
            telemetry=bus,
        )
    finally:
        bus.close()
    stats = outcome.stats
    _, condition = cell_outline(cell)
    tracker = trackers["utilization"]
    occupied = tracker.mean_occupied_utilization()
    fabric = tracker.mean_fabric_utilization()
    # ``engine.run(until=...)`` parks the clock at the horizon, so the
    # tracker's elapsed span covers a huge idle tail; renormalize the
    # whole-fabric means over the run's active span (the makespan).
    makespan = outcome.makespan_ms
    if makespan > 0:
        scale = tracker.elapsed_ms() / makespan
        utilization = {
            "occupied_lut": occupied.lut,
            "occupied_ff": occupied.ff,
            "fabric_lut": fabric.lut * scale,
            "fabric_ff": fabric.ff * scale,
            "elapsed_ms": makespan,
        }
    else:
        utilization = {
            "occupied_lut": 0.0, "occupied_ff": 0.0,
            "fabric_lut": 0.0, "fabric_ff": 0.0, "elapsed_ms": 0.0,
        }
    digest = aggregate.digest
    return RunRecord(
        scenario=cell.scenario,
        system=cell.system,
        condition=condition,
        sequence_index=cell.sequence_index,
        seed=cell.seed,
        n_apps=len(arrivals),
        makespan_ms=outcome.makespan_ms,
        response_times_ms=(
            stats.response_times_ms() if cell.keep_raw_samples else []
        ),
        counters={name: getattr(stats, name) for name in COUNTER_FIELDS},
        fingerprint=fingerprint_parameters(cell.params),
        shard=cell.shard,
        utilization=utilization,
        response_digest=digest.to_dict() if digest.count else {},
    )


class SerialBackend:
    """Reference backend: cells run in order, in this process.

    Backend contract (both backends, relied on by
    :func:`repro.store.resume.execute_with_store`): ``run`` returns one
    record per input cell, in input order, and each record depends only
    on its own cell — never on which other cells shared the call.  That
    is what lets the store layer dispatch cells in snapshot-sized chunks
    (and re-dispatch only the unfinished ones on ``--resume``) with
    results bit-identical to one monolithic ``run``.  A backend may also
    offer ``scope(cells)``, a context manager inside which those chunks
    are ``run`` in order (see :meth:`ProcessBackend.scope`).
    """

    name = "serial"

    def run(self, cells: Sequence[CampaignCell]) -> List[RunRecord]:
        return [execute_cell(cell) for cell in cells]


def cell_outline(cell: CampaignCell) -> Tuple[int, str]:
    """``(n_apps, condition)`` of the record ``cell`` yields, from its spec.

    Never resolves arrivals: regenerating the sequence re-runs the very
    code that may have crashed or hung a worker, and resume checks every
    persisted record against its cell before any cell runs.
    """
    if cell.arrivals is not None:
        n_apps = len(cell.arrivals)
    elif cell.workload is not None:
        n_apps = cell.workload.n_apps
    else:
        n_apps = 0
    if cell.workload is not None:
        condition = cell.workload.condition.label
    else:
        condition = cell.condition_label or "explicit"
    return n_apps, condition


def failure_record(cell: CampaignCell, error: str) -> RunRecord:
    """A sample-free :class:`RunRecord` marking a cell whose worker failed.

    Surfacing the failure as a record (``record.failed`` is True) instead
    of raising keeps one crashed or hung cell from discarding the whole
    campaign: every healthy record still persists, and the failed cell is
    identifiable and individually re-runnable from the store.
    """
    n_apps, condition = cell_outline(cell)
    return RunRecord(
        scenario=cell.scenario,
        system=cell.system,
        condition=condition,
        sequence_index=cell.sequence_index,
        seed=cell.seed,
        n_apps=n_apps,
        makespan_ms=0.0,
        fingerprint=fingerprint_parameters(cell.params),
        shard=cell.shard,
        error=error,
    )


#: Seconds between a pool worker's checks that its orchestrator still lives.
_PARENT_POLL_S = 0.25


def _exit_with_parent(parent_pid: int) -> None:
    """Pool-worker initializer: exit as soon as the orchestrator is gone.

    A SIGKILLed orchestrator never sends its workers the shutdown
    sentinel, and a worker blocked on the call queue would sleep forever,
    reparented to init.  A daemon thread polls the parent pid instead.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def _new_executor(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=workers,
        initializer=_exit_with_parent,
        initargs=(os.getpid(),),
    )


#: Pool tasks per worker that a pool splits its pending cells into: enough
#: that the workers finish together, few enough that a task's round trip
#: costs little beside its cells.
_TASKS_PER_WORKER = 16


class _PartialBatch(Exception):
    """A cell of a pool task raised.

    ``args`` are the records of the task's cells before it and its error,
    so the error surfaces when collection reaches that cell, not earlier.
    """


def _run_batch(cells: Sequence[CampaignCell]) -> List[RunRecord]:
    """Pool task: run ``cells`` in order, one :func:`execute_cell` each.

    ``execute_cell`` is looked up in this module at call time, so a
    wrapper installed on the module attribute before the pool forks sees
    every cell.
    """
    records: List[RunRecord] = []
    for cell in cells:
        try:
            records.append(execute_cell(cell))
        except Exception as exc:
            raise _PartialBatch(records, exc) from exc
    return records


class _Task(NamedTuple):
    """One pool task: the scope's cells ``start`` to ``stop``, in order."""

    start: int
    stop: int
    future: concurrent.futures.Future


class _SharedPool:
    """The prefetching worker pool behind one :meth:`ProcessBackend.scope`.

    The first :meth:`collect` forks the workers and submits every cell of
    the scope in cell order, in contiguous batches: each pool task takes
    ``ceil(pending / (16 × workers))`` cells, so a campaign of at most
    16 × workers cells still sends one cell per task.  Each later
    :meth:`collect` only waits on the tasks holding its own chunk while
    the workers simulate the cells behind it; a task may straddle two
    chunks.
    """

    def __init__(
        self, backend: "ProcessBackend", cells: Sequence[CampaignCell]
    ) -> None:
        self.backend = backend
        self.cells = list(cells)
        #: Index of the first cell no :meth:`collect` has claimed yet.
        self.cursor = 0
        self.executor: Optional[concurrent.futures.ProcessPoolExecutor] = None
        #: The task of every submitted cell not collected yet, by index.
        self.tasks: Dict[int, _Task] = {}

    def collect(self, chunk: List[CampaignCell]) -> List[RunRecord]:
        start, stop = self.cursor, self.cursor + len(chunk)
        if stop > len(self.cells) or any(
            cell is not self.cells[index]
            for index, cell in enumerate(chunk, start)
        ):
            raise ValueError(
                "run() inside a scope must take the scope's next cells, "
                "in scope order"
            )
        self.cursor = stop
        if not chunk:
            return []
        if self.executor is not None and self.executor._broken:
            # A cell behind this chunk broke the pool between collections:
            # nothing uncollected has failed, it all runs again below.
            self.stop()
        if self.executor is None:
            self._start(start)
        tasks: List[_Task] = []
        for index in range(start, stop):
            task = self.tasks.pop(index)
            if not tasks or tasks[-1] is not task:
                tasks.append(task)
        records, failures = self.backend._collect(
            tasks, self.executor, range(start, stop)
        )
        if failures:
            # The pool broke while this chunk was collected: its unfinished
            # cells get isolation retries, the cells behind it a fresh pool
            # at the next collect.
            self.stop()
            self.backend._retry_isolated(self.cells, records, failures)
        return [records[index] for index in range(start, stop)]

    def _start(self, start: int) -> None:
        """Fork the workers and submit every cell from ``start`` on.

        Called from ``run()``, never at scope entry, so the workers fork
        inside the ``run`` call that first needs them.
        """
        end = len(self.cells)
        workers = min(self.backend.jobs, end - start)
        self.executor = _new_executor(workers)
        size = -(-(end - start) // (_TASKS_PER_WORKER * workers))
        for first in range(start, end, size):
            last = min(first + size, end)
            try:
                future = self.executor.submit(
                    _run_batch, self.cells[first:last]
                )
            except BrokenProcessPool as exc:
                # A task submitted a moment ago already broke the pool:
                # the unsubmitted cells fail over like its pending ones.
                future = concurrent.futures.Future()
                future.set_exception(exc)
                last = end
            task = _Task(first, last, future)
            self.tasks.update(dict.fromkeys(range(first, last), task))
            if last == end:
                break

    def stop(self) -> None:
        """Shut the pool down and reap its workers (no-op when stopped)."""
        executor, self.executor = self.executor, None
        tasks, self.tasks = self.tasks, {}
        if executor is None:
            return
        if any(not task.future.done() for task in tasks.values()):
            # Nobody will collect these (a chunk raised, or the pool
            # broke): kill the workers rather than wait, since a hung cell
            # would block shutdown forever.
            self.backend._terminate_workers(executor)
        executor.shutdown(wait=True, cancel_futures=True)


@dataclass
class ProcessBackend:
    """Fan cells out over a process pool, surviving crashed workers.

    Results come back in cell order, so aggregate statistics are
    independent of worker completion order and bit-identical to the
    serial backend.  Unlike a bare ``multiprocessing.Pool.map`` — which
    hangs forever when a worker dies mid-task — this backend:

    * ships cells to its workers in contiguous batches, one pool task
      per ``ceil(pending / (16 × workers))`` cells (see
      :class:`_SharedPool`), so a round trip is paid per task, not per
      cell;
    * detects a crashed worker immediately (the pool breaks with
      :class:`BrokenProcessPool` rather than waiting on a lost task);
    * bounds a task of k cells to k × ``timeout_s`` of wall-clock (hung
      workers are terminated, not waited on);
    * re-executes every unfinished cell of the chunk being collected
      deterministically in a fresh single-worker pool, up to
      ``max_retries`` isolation rounds — a transiently killed worker (OOM
      reaper, operator signal) costs a retry, not the campaign;
    * surfaces cells that still fail as :func:`failure_record` entries
      instead of raising, so the healthy records survive;
    * starts its workers with a watchdog that ends them when the
      orchestrating process dies, even by SIGKILL.

    Exceptions raised *by the simulation itself* (``DrainError``, bad
    specs) are real results, not infrastructure faults — they propagate
    exactly as the serial backend would raise them.
    """

    jobs: int = 2
    #: Per-cell wall-clock bound in seconds (None = unbounded).  A task of
    #: k cells may run k × ``timeout_s``, measured from when collection
    #: reaches the task, so an earlier slow task can only lengthen — never
    #: shorten — a later task's budget.  The cells of a task that overruns
    #: go to the isolation retries, where each cell gets ``timeout_s`` of
    #: its own.
    timeout_s: Optional[float] = None
    #: Isolation rounds re-running crashed/timed-out cells before they
    #: are surfaced as failure records.  With 0, every uncollected cell of
    #: a failed task is surfaced, its healthy neighbours included.
    max_retries: int = 1
    name: str = field(init=False, default="process")
    _pool: Optional[_SharedPool] = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    @contextlib.contextmanager
    def scope(self, cells: Sequence[CampaignCell]) -> Iterator[None]:
        """Share one prefetching pool across every ``run`` over ``cells``.

        Inside the scope, each ``run`` must take the next cells of
        ``cells`` in order (the store layer's snapshot chunks).  The first
        ``run`` starts the pool and submits every cell, in batches; later
        ones collect results the workers computed while the caller was
        persisting the previous chunk.  When a crash or timeout breaks the
        pool, the chunk being collected gets the isolation retries and the
        cells behind it run again on a fresh pool, uncounted as failures.
        Leaving the scope shuts the pool down and reaps its workers.
        """
        if self._pool is not None:
            raise RuntimeError("ProcessBackend scopes do not nest")
        self._pool = _SharedPool(self, cells)
        try:
            yield
        finally:
            pool, self._pool = self._pool, None
            pool.stop()

    def run(self, cells: Sequence[CampaignCell]) -> List[RunRecord]:
        cells = list(cells)
        if self.jobs > 1 and self._pool is not None:
            return self._pool.collect(cells)
        if self.jobs == 1 or len(cells) <= 1:
            # A lone one-shot cell is not worth forking a pool for.
            return SerialBackend().run(cells)
        with self.scope(cells):
            return self._pool.collect(cells)

    def _collect(
        self,
        tasks: Sequence[_Task],
        executor: concurrent.futures.ProcessPoolExecutor,
        wanted: range,
    ) -> Tuple[Dict[int, RunRecord], Dict[int, str]]:
        """Wait on ``tasks`` in order: the ``wanted`` cells' records, and
        their failures to retry."""
        records: Dict[int, RunRecord] = {}
        failures: Dict[int, str] = {}
        for task in tasks:
            cells = range(max(task.start, wanted.start),
                          min(task.stop, wanted.stop))
            budget = (None if self.timeout_s is None
                      else self.timeout_s * (task.stop - task.start))
            error = None
            try:
                batch = task.future.result(timeout=budget)
            except _PartialBatch as partial:
                batch, raised = partial.args
                if task.start + len(batch) < cells.stop:
                    # The simulation raised in a wanted cell: a real
                    # result, raised like the serial backend raises it.
                    raise raised from partial.__cause__
            except concurrent.futures.TimeoutError:
                error = f"cell timed out after {self.timeout_s:g}s"
                # result(timeout=...) leaves the worker running; kill the
                # pool's processes so the hung task cannot block shutdown
                # (pending siblings fail over to retry).
                self._terminate_workers(executor)
            except BrokenProcessPool:
                # The dying worker is not attributable to one task: every
                # unfinished cell fails over to the retry round.
                error = "worker process crashed"
            except concurrent.futures.CancelledError:
                error = "cancelled after pool breakage"
            if error is None:
                records.update(zip(cells, batch[cells.start - task.start :]))
            else:
                failures.update(dict.fromkeys(cells, error))
        return records, failures

    def _retry_isolated(
        self,
        cells: Sequence[CampaignCell],
        records: Dict[int, RunRecord],
        failures: Dict[int, str],
    ) -> None:
        """Settle ``failures`` into ``records``: retried, else failure records.

        Isolation mode: each failed cell retries in its own fresh
        single-worker pool, so a poison cell can only break its own pool
        and healthy siblings caught in the breakage complete.
        """
        for _ in range(self.max_retries):
            if not failures:
                break
            still_failing: Dict[int, str] = {}
            for index in sorted(failures):
                executor = _new_executor(1)
                try:
                    future = executor.submit(_run_batch, [cells[index]])
                    retried, failed = self._collect(
                        [_Task(index, index + 1, future)], executor,
                        range(index, index + 1),
                    )
                finally:
                    executor.shutdown(wait=True, cancel_futures=True)
                records.update(retried)
                still_failing.update(failed)
            failures = still_failing
        for index, error in failures.items():
            records[index] = failure_record(
                cells[index], f"{error} (after {self.max_retries} retries)"
            )

    @staticmethod
    def _terminate_workers(executor) -> None:
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()


def make_backend(
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    max_retries: int = 1,
):
    """The backend matching a ``--jobs N [--cell-timeout S]`` request."""
    if jobs <= 1:
        return SerialBackend()
    return ProcessBackend(jobs=jobs, timeout_s=timeout_s, max_retries=max_retries)
