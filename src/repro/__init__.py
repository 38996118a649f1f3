"""VersaSlot reproduction: fine-grained FPGA sharing with Big.Little slots.

A complete, simulation-based reproduction of *VersaSlot: Efficient
Fine-grained FPGA Sharing with Big.Little Slots and Live Migration in FPGA
Cluster* (DAC 2025).  The README's "Layout" section maps the packages;
``tests/test_paper_claims.py`` checks the paper's claims, and
``PAPER_FIG5`` to ``PAPER_FIG8`` in :mod:`repro.experiments` hold its
numbers.

Public API tour::

    from repro import Engine, FPGABoard, BoardConfig
    from repro.core import VersaSlotBigLittle
    from repro.workloads import WorkloadGenerator, Condition, drive

    engine = Engine()
    board = FPGABoard(engine, BoardConfig.BIG_LITTLE)
    scheduler = VersaSlotBigLittle(board)
    arrivals = WorkloadGenerator(seed=1).sequence(Condition.STANDARD)
    engine.process(drive(engine, scheduler, arrivals))
    engine.run()

Campaigns (registry-driven scenarios, parallel execution, persisted
results) live in :mod:`repro.campaign`::

    from repro.campaign import CampaignRunner, Scenario
    from repro.workloads import Condition, WorkloadSpec

    scenario = Scenario(
        name="sweep",
        workload=WorkloadSpec(Condition.STRESS, sequence_count=4),
    )
    records = CampaignRunner(jobs=4, store="results/sweep.jsonl").run(scenario)
"""

from .config import DEFAULT_PARAMETERS, ParameterSweep, SystemParameters
from .fpga import BoardConfig, FPGABoard, ResourceVector, SlotKind
from .sim import Engine

__version__ = "1.0.0"

__all__ = [
    "BoardConfig",
    "DEFAULT_PARAMETERS",
    "Engine",
    "FPGABoard",
    "ParameterSweep",
    "ResourceVector",
    "SlotKind",
    "SystemParameters",
    "__version__",
]
