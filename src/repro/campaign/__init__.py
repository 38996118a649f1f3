"""Campaign subsystem: registry-driven scenarios, parallel execution,
persisted results.

The experiment stack (``repro.experiments``, the figure modules, the CLI
and the benches) is layered on top of this package:

* :mod:`repro.campaign.scenario` — declarative :class:`Scenario` specs and
  the decorator-based system/scenario registries.
* :mod:`repro.campaign.backend` — the simulation core plus serial and
  ``multiprocessing`` execution backends.
* :mod:`repro.campaign.results` — per-run :class:`RunRecord` persistence
  (JSONL under ``results/``) consumed by reporting and replay.
* :mod:`repro.campaign.runner` — :class:`CampaignRunner`, tying the three
  together.

Durable persistence beyond the plain JSONL file — snapshots, resumable
campaigns, the SQLite recorder, incremental report projections — lives
in :mod:`repro.store`; the runner and :func:`load_records` route a
SQLite path through it.  Any other path stays a plain JSONL results
file, and snapshots or resume on one are refused.
"""

from .backend import (
    CampaignCell,
    DEFAULT_HORIZON_MS,
    DrainError,
    ProcessBackend,
    SerialBackend,
    SimulationOutcome,
    execute_cell,
    failure_record,
    make_backend,
    simulate_run,
)
from .results import (
    COUNTER_FIELDS,
    RESULTS_FILE_SCHEMA,
    ResultsStore,
    RunRecord,
    SCHEMA_VERSION,
    fingerprint_parameters,
    group_by_system,
    is_results_header,
    load_records,
    results_header,
)
from .runner import CampaignRunner
from .scenario import (
    SCENARIOS,
    SYSTEM_REGISTRY,
    Scenario,
    SystemSpec,
    get_scenario,
    get_system,
    register_scenario,
    register_system,
    scenario_names,
    system_names,
)

__all__ = [
    "COUNTER_FIELDS",
    "CampaignCell",
    "CampaignRunner",
    "DEFAULT_HORIZON_MS",
    "DrainError",
    "ProcessBackend",
    "RESULTS_FILE_SCHEMA",
    "ResultsStore",
    "RunRecord",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "SYSTEM_REGISTRY",
    "Scenario",
    "SerialBackend",
    "SimulationOutcome",
    "SystemSpec",
    "execute_cell",
    "failure_record",
    "fingerprint_parameters",
    "get_scenario",
    "get_system",
    "group_by_system",
    "is_results_header",
    "load_records",
    "make_backend",
    "results_header",
    "register_scenario",
    "register_system",
    "scenario_names",
    "simulate_run",
    "system_names",
]
