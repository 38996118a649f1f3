"""Workload generation, arrival driving and trace record/replay."""

from .generator import (
    BATCH_RANGE,
    Arrival,
    Condition,
    WorkloadGenerator,
    WorkloadSpec,
    drive,
    instantiate,
    total_work_ms,
)
from .phases import Phase, PhasedWorkload, poisson_sequence, ramp_workload
from .trace import dumps, load, loads, save

__all__ = [
    "Arrival",
    "Phase",
    "PhasedWorkload",
    "poisson_sequence",
    "ramp_workload",
    "BATCH_RANGE",
    "Condition",
    "WorkloadGenerator",
    "WorkloadSpec",
    "drive",
    "dumps",
    "instantiate",
    "load",
    "loads",
    "save",
    "total_work_ms",
]
