"""The ``--jobs`` pool's lifetime: one prefetching pool per durable campaign.

``execute_with_store`` opens one :meth:`ProcessBackend.scope` over its
pending cells: the first ``run`` forks the workers and submits every cell,
in batches of ``ceil(pending / (16 × workers))`` cells per pool task, and
the workers keep simulating later snapshot chunks while the orchestrator
appends, snapshots and folds the current one.  These tests pin how many
pools a campaign starts and how many tasks it sends, that every scoped
cell runs in a worker, that a pool shared across chunks fails exactly
like the per-chunk pools it replaced, that a poison cell inside a batch
costs its healthy neighbours nothing, and that no worker outlives its
orchestrator.

The special cells override ``resolve_arrivals`` — the first cell-specific
code a worker runs — and talk to each other through files, because they
run in forked workers.
"""

import concurrent.futures
import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner, ProcessBackend, Scenario, SerialBackend
from repro.campaign import backend as backend_module
from repro.campaign.backend import CampaignCell
from repro.store import execute_with_store, open_store
from repro.workloads.generator import Condition, WorkloadSpec

SRC = Path(__file__).resolve().parents[1] / "src"

#: Files shared with forked workers (set per test before the pool forks).
_FILES = {"marker": "", "crashed": "", "slow": "", "pids": ""}


def _clone_as(cls, cell: CampaignCell):
    kwargs = {
        f.name: getattr(cell, f.name) for f in dataclasses.fields(cell) if f.init
    }
    return cls(**kwargs)


def _cells(count: int):
    return CampaignRunner().cells_for(Scenario(
        name="pool",
        workload=WorkloadSpec(Condition.LOOSE, n_apps=2, sequence_count=count),
        systems=("FCFS",),
    ))


class PidCell(CampaignCell):
    """Appends the pid of the process that executes it."""

    def resolve_arrivals(self):
        with open(_FILES["pids"], "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return super().resolve_arrivals()


class SlowCell(CampaignCell):
    """Holds its chunk open until a later chunk's poison cell has started."""

    def resolve_arrivals(self):
        with open(_FILES["slow"], "a") as handle:
            handle.write("attempt\n")
        deadline = time.monotonic() + 10.0
        while not os.path.exists(_FILES["marker"]):
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
        time.sleep(0.2)
        return super().resolve_arrivals()


class NapCell(CampaignCell):
    """Takes 0.2 s, logging each attempt."""

    def resolve_arrivals(self):
        with open(_FILES["slow"], "a") as handle:
            handle.write("attempt\n")
        time.sleep(0.2)
        return super().resolve_arrivals()


def _mark_started() -> None:
    open(_FILES["marker"], "w").close()


class CrashOnceCell(CampaignCell):
    def resolve_arrivals(self):
        _mark_started()
        if not os.path.exists(_FILES["crashed"]):
            open(_FILES["crashed"], "w").close()
            os._exit(1)
        return super().resolve_arrivals()


class AlwaysCrashCell(CampaignCell):
    def resolve_arrivals(self):
        _mark_started()
        os._exit(1)


class HangCell(CampaignCell):
    def resolve_arrivals(self):
        _mark_started()
        time.sleep(300)
        return super().resolve_arrivals()


class RaisingCell(CampaignCell):
    def resolve_arrivals(self):
        raise ValueError("simulation-level error")


class PerChunkPools:
    """The dispatch the scope replaced: without ``scope``, every chunk's
    ``run`` is a one-shot call with a fresh pool of its own."""

    def __init__(self, backend) -> None:
        self.backend = backend

    def run(self, cells):
        return self.backend.run(cells)


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every ProcessPoolExecutor a test constructs."""
    made = []
    real = concurrent.futures.ProcessPoolExecutor

    class Counting(real):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    return made


@pytest.fixture
def task_sizes(monkeypatch):
    """The cell count of every pool task a test submits, in order."""
    sizes = []
    real = backend_module._new_executor

    def counting(workers):
        executor = real(workers)
        submit = executor.submit

        def counted(fn, cells):
            sizes.append(len(cells))
            return submit(fn, cells)

        executor.submit = counted
        return executor

    monkeypatch.setattr(backend_module, "_new_executor", counting)
    return sizes


def _log(path):
    with open_store(path) as store:
        return [(n.id, n.kind, n.payload) for n in store.select()]


def _dicts(records):
    return [record.to_dict() for record in records]


class TestScopeLifetime:
    def test_one_pool_per_durable_campaign(self, tmp_path, pools):
        cells = _cells(7)
        with open_store(tmp_path / "pool.sqlite") as store:
            outcome = execute_with_store(
                ProcessBackend(jobs=2), cells, store=store, snapshot_every=2
            )
        assert pools == [2]
        assert outcome.snapshots == 4
        assert [r.to_dict() for r in outcome.records] == \
            [r.to_dict() for r in SerialBackend().run(cells)]
        # Workers are reaped on return, so RUSAGE_CHILDREN charges their
        # CPU to the campaign.
        assert multiprocessing.active_children() == []
        # The store log is the one the per-chunk pools wrote.
        with open_store(tmp_path / "chunked.sqlite") as store:
            execute_with_store(PerChunkPools(ProcessBackend(jobs=2)), cells,
                               store=store, snapshot_every=2)
        assert _log(tmp_path / "pool.sqlite") == \
            _log(tmp_path / "chunked.sqlite")

    def test_fully_resumed_campaign_starts_no_pool(self, tmp_path, pools):
        cells = _cells(6)
        path = tmp_path / "done.sqlite"
        with open_store(path) as store:
            execute_with_store(SerialBackend(), cells, store=store,
                               snapshot_every=2)
        before = _log(path)
        with open_store(path) as store:
            outcome = execute_with_store(
                ProcessBackend(jobs=2), cells, store=store,
                snapshot_every=2, resume=True,
            )
        assert outcome.executed == 0
        assert pools == []
        assert _log(path) == before

    def test_single_cell_chunks_run_in_workers(self, tmp_path, pools):
        _FILES["pids"] = str(tmp_path / "pids")
        cells = [_clone_as(PidCell, cell) for cell in _cells(4)]
        with open_store(tmp_path / "ones.sqlite") as store:
            outcome = execute_with_store(
                ProcessBackend(jobs=2), cells, store=store, snapshot_every=1
            )
        assert outcome.snapshots == 4
        pids = [int(line) for line in Path(_FILES["pids"]).read_text().split()]
        assert len(pids) == 4
        assert os.getpid() not in pids
        assert pools == [2]

    def test_run_inside_a_scope_takes_the_next_cells(self):
        cells = _cells(4)
        backend = ProcessBackend(jobs=2)
        with backend.scope(cells):
            with pytest.raises(ValueError, match="next cells"):
                backend.run(cells[1:2])
            with pytest.raises(RuntimeError, match="do not nest"):
                with backend.scope(cells):
                    pass
        assert multiprocessing.active_children() == []


class TestSharedPoolFailures:
    """A poison cell in chunk 1 that starts while chunk 0 is collected."""

    def _campaign(self, tmp_path, poison, backend):
        base = _cells(4)
        cells = [_clone_as(SlowCell, base[0]), base[1],
                 _clone_as(poison, base[2]), base[3]]
        path = tmp_path / f"{type(backend).__name__}.sqlite"
        with open_store(path) as store:
            outcome = execute_with_store(backend, cells, store=store,
                                         snapshot_every=2)
        return [r.to_dict() for r in outcome.records], _log(path)

    @pytest.mark.parametrize(
        "poison, timeout_s, error, slow_attempts",
        [
            # A crash breaks the shared pool under the slow chunk-0 cell,
            # which gets an isolation retry; a hang breaks nothing until
            # its own chunk's collection times out.
            (CrashOnceCell, None, "", 2),
            (AlwaysCrashCell, None,
             "worker process crashed (after 1 retries)", 2),
            (HangCell, 1.0, "cell timed out after 1s (after 1 retries)", 1),
        ],
    )
    def test_same_records_and_log_as_per_chunk_pools(
        self, tmp_path, poison, timeout_s, error, slow_attempts
    ):
        for name in ("marker", "crashed", "slow"):
            _FILES[name] = str(tmp_path / name)
        # Per-chunk pools never run chunk 1 while chunk 0 is collected, so
        # the slow cell must not wait for the poison cell there.
        _mark_started()
        chunked = self._campaign(
            tmp_path, poison,
            PerChunkPools(ProcessBackend(jobs=2, timeout_s=timeout_s)),
        )
        for name in ("marker", "crashed", "slow"):
            Path(_FILES[name]).unlink(missing_ok=True)
        scoped = self._campaign(
            tmp_path, poison, ProcessBackend(jobs=2, timeout_s=timeout_s)
        )
        assert scoped == chunked
        assert len(Path(_FILES["slow"]).read_text().split()) == slow_attempts
        records, _ = scoped
        assert records[2]["error"] == error
        healthy = SerialBackend().run(_cells(4))
        assert [records[i] for i in (0, 1, 3)] == \
            [healthy[i].to_dict() for i in (0, 1, 3)]
        assert multiprocessing.active_children() == []

    def test_pool_broken_while_submitting_fails_over(self, monkeypatch):
        # A cell can break the pool before the cells behind it are even
        # submitted; those must fail over like pending cells, not raise.
        from concurrent.futures.process import BrokenProcessPool

        from repro.campaign import backend as backend_module

        real = backend_module._new_executor

        def breaks_on_second_submit(workers):
            executor = real(workers)
            submit, submitted = executor.submit, []

            def flaky(*args):
                submitted.append(args)
                if len(submitted) > 1:
                    raise BrokenProcessPool("broken while submitting")
                return submit(*args)

            executor.submit = flaky
            return executor

        monkeypatch.setattr(backend_module, "_new_executor",
                            breaks_on_second_submit)
        cells = _cells(3)
        records = ProcessBackend(jobs=2).run(cells)
        assert [r.to_dict() for r in records] == \
            [r.to_dict() for r in SerialBackend().run(cells)]
        assert multiprocessing.active_children() == []

    def test_simulation_exception_propagates_from_its_chunk(self, tmp_path):
        base = _cells(6)
        cells = base[:2] + [_clone_as(RaisingCell, base[2])] + base[3:]
        with open_store(tmp_path / "raise.sqlite") as store:
            with pytest.raises(ValueError, match="simulation-level error"):
                execute_with_store(ProcessBackend(jobs=2), cells, store=store,
                                   snapshot_every=2)
            # Chunk 0 was appended (records + snapshot); nothing after it.
            assert store.counts() == {"record": 2, "snapshot": 1}
        assert multiprocessing.active_children() == []


class TestBatchedDispatch:
    """Cells travel to the workers in contiguous batches."""

    @pytest.mark.parametrize("count, tasks", [(512, 32), (32, 32), (5, 5)])
    def test_task_count(self, task_sizes, count, tasks):
        # Empty cells: the dispatch is under test, not the simulation.
        cells = [
            CampaignCell(scenario="empty", system="FCFS", sequence_index=i,
                         seed=1, arrivals=())
            for i in range(count)
        ]
        records = ProcessBackend(jobs=2).run(cells)
        assert task_sizes == [count // tasks] * tasks
        assert _dicts(records) == _dicts(SerialBackend().run(cells))

    def test_durable_campaign_in_two_cell_tasks(self, tmp_path, task_sizes):
        # Three-cell chunks over two-cell tasks: every other task
        # straddles two chunks.
        cells = _cells(40)
        with open_store(tmp_path / "pool.sqlite") as store:
            outcome = execute_with_store(
                ProcessBackend(jobs=2), cells, store=store, snapshot_every=3
            )
        assert task_sizes == [2] * 20
        assert _dicts(outcome.records) == _dicts(SerialBackend().run(cells))
        with open_store(tmp_path / "serial.sqlite") as store:
            execute_with_store(SerialBackend(), cells, store=store,
                               snapshot_every=3)
        assert _log(tmp_path / "pool.sqlite") == \
            _log(tmp_path / "serial.sqlite")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("poison, timeout_s, error", [
        (CrashOnceCell, None, ""),
        (AlwaysCrashCell, None, "worker process crashed (after 1 retries)"),
        (HangCell, 1.0, "cell timed out after 1s (after 1 retries)"),
    ])
    def test_poison_cell_inside_a_task(
        self, tmp_path, task_sizes, poison, timeout_s, error
    ):
        for name in ("marker", "crashed"):
            _FILES[name] = str(tmp_path / name)
        base = _cells(66)
        # 66 cells on 2 workers: tasks of 3, and cell 4 is the middle one
        # of the second task.
        cells = [*base[:4], _clone_as(poison, base[4]), *base[5:]]
        with open_store(tmp_path / "poison.sqlite") as store:
            outcome = execute_with_store(
                ProcessBackend(jobs=2, timeout_s=timeout_s), cells,
                store=store, snapshot_every=6,
            )
        assert task_sizes[:22] == [3] * 22
        records = _dicts(outcome.records)
        assert records[4]["error"] == error
        healthy = _dicts(SerialBackend().run(base))
        if not error:
            assert records == healthy
        assert records[:4] + records[5:] == healthy[:4] + healthy[5:]
        assert multiprocessing.active_children() == []

    def test_timeout_budget_grows_with_the_task(self, tmp_path, task_sizes):
        # Three 0.2 s cells share the first task: together they overrun a
        # 0.5 s budget, one by one they do not, and the task gets 1.5 s.
        _FILES["slow"] = str(tmp_path / "slow")
        base = _cells(66)
        cells = [*(_clone_as(NapCell, cell) for cell in base[:3]), *base[3:]]
        records = ProcessBackend(jobs=2, timeout_s=0.5).run(cells)
        assert task_sizes[0] == 3
        assert len(Path(_FILES["slow"]).read_text().split()) == 3
        assert _dicts(records) == _dicts(SerialBackend().run(base))

    def test_simulation_exception_propagates_from_its_own_chunk(
        self, tmp_path
    ):
        # Cell 3 raises inside the task of cells 2 and 3, which straddles
        # chunks 0 and 1: chunk 0 still lands, as under per-cell dispatch.
        base = _cells(40)
        cells = [*base[:3], _clone_as(RaisingCell, base[3]), *base[4:]]
        with open_store(tmp_path / "raise.sqlite") as store:
            with pytest.raises(ValueError, match="simulation-level error") \
                    as raised:
                execute_with_store(ProcessBackend(jobs=2), cells, store=store,
                                   snapshot_every=3)
            assert store.counts() == {"record": 3, "snapshot": 1}
        # The worker's traceback comes along.
        assert "in resolve_arrivals" in str(raised.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_every_cell_runs_through_the_module_execute_cell(
        self, tmp_path, monkeypatch
    ):
        # A wrapper installed on the module attribute before the pool
        # forks sees every cell (perfbench's ``campaign.cell`` span).
        calls = tmp_path / "calls"
        real = backend_module.execute_cell

        def counted(cell):
            with open(calls, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return real(cell)

        monkeypatch.setattr(backend_module, "execute_cell", counted)
        cells = _cells(40)
        records = ProcessBackend(jobs=2).run(cells)
        pids = [int(line) for line in calls.read_text().split()]
        assert len(pids) == len(cells)
        assert os.getpid() not in pids
        assert _dicts(records) == _dicts(SerialBackend().run(cells))


def _children(pid: int):
    """Pids whose parent is ``pid``, read from /proc."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_workers_exit_when_the_orchestrator_is_killed(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "run", "fleet-smoke",
         "--apps", "400", "--jobs", "2", "--snapshot-every", "5",
         "--out", str(tmp_path / "killed.sqlite")],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 60.0
        while len(workers) < 2 and proc.poll() is None:
            assert time.monotonic() < deadline, "the pool never started"
            time.sleep(0.02)
            workers = _children(proc.pid)
        assert proc.poll() is None, "the campaign finished before the kill"
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    deadline = time.monotonic() + 5.0
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert [pid for pid in workers if _running(pid)] == []
