"""The campaign runner: scenario -> cells -> backend -> persisted records."""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..config import SystemParameters
from .backend import CampaignCell, make_backend
from .results import RunRecord
from .scenario import Scenario, get_scenario


class CampaignRunner:
    """Execute campaigns over a serial or multiprocessing backend.

    ``jobs=1`` selects the deterministic serial reference backend;
    ``jobs=N`` fans cells out over N worker processes.  When a ``store``
    (or path) is given, every produced record is appended there so figures
    can later be replayed without re-simulating
    (:func:`~repro.store.resolve_store` maps a path: SQLite store or plain
    JSONL results file).  ``snapshot_every`` appends records to the
    SQLite store in chunks of N cells, each followed by a checkpoint
    marker, and ``resume`` skips cells the store already holds a
    successful record for (after checking the record is this campaign's).
    """

    def __init__(
        self,
        jobs: int = 1,
        backend=None,
        store=None,
        base_params: Optional[SystemParameters] = None,
        raw_samples: bool = False,
        events_dir: Optional[Union[str, Path]] = None,
        timeout_s: Optional[float] = None,
        snapshot_every: int = 0,
        resume: bool = False,
    ) -> None:
        self.backend = (
            backend
            if backend is not None
            else make_backend(jobs, timeout_s=timeout_s)
        )
        self.snapshot_every = snapshot_every
        self.resume = resume
        #: Outcome of the most recent :meth:`run_cells` (resumed/executed
        #: counts) — the CLI surfaces it after a ``--resume`` run.
        self.last_outcome = None
        self.store = store
        if store is not None:
            from ..store import resolve_store  # lazy: no store, no import

            self.store = resolve_store(store, resume, snapshot_every)
        self.base_params = base_params
        #: Persist raw per-request samples on records (``--raw-samples``);
        #: off by default — records carry the bounded-memory digest.
        self.raw_samples = raw_samples
        #: When set, every cell writes its typed event stream under here.
        self.events_dir = Path(events_dir) if events_dir is not None else None

    def cells_for(self, scenario: Scenario) -> List[CampaignCell]:
        """Enumerate a scenario into cells: seeds, then sequences, then
        systems innermost, so a serial campaign visits each sequence's
        systems back to back."""
        params = scenario.parameters(self.base_params)
        cells: List[CampaignCell] = []
        for seed in scenario.seeds:
            for index in range(scenario.workload.sequence_count):
                for system in scenario.system_names():
                    events_path = None
                    if self.events_dir is not None:
                        events_path = str(
                            self.events_dir
                            / f"{scenario.name}-{system}-seed{seed}-seq{index}.jsonl"
                        )
                    cells.append(
                        CampaignCell(
                            scenario=scenario.name,
                            system=system,
                            sequence_index=index,
                            seed=seed,
                            params=params,
                            workload=scenario.workload,
                            keep_raw_samples=self.raw_samples,
                            events_path=events_path,
                        )
                    )
        return cells

    def run(self, scenario: Union[str, Scenario]) -> List[RunRecord]:
        """Run a scenario (by name or spec) and persist its records."""
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        return self.run_cells(self.cells_for(scenario))

    def run_cells(self, cells: Sequence[CampaignCell]) -> List[RunRecord]:
        """Run pre-built cells (ad-hoc campaigns over explicit arrivals)."""
        from ..store.resume import execute_with_store

        outcome = execute_with_store(
            self.backend,
            list(cells),
            store=self.store,
            snapshot_every=self.snapshot_every,
            resume=self.resume,
        )
        self.last_outcome = outcome
        return outcome.records
