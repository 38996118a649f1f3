"""Baseline scheduling systems and the shared on-board runtime."""

from .base import OnBoardScheduler, PRPlan, ResponseRecord, SchedulerStats
from .baseline import BaselineScheduler
from .fcfs import FCFSScheduler
from .ilp import optimal_big_slots, optimal_little_slots
from .nimblock import NimblockScheduler
from .round_robin import RoundRobinScheduler
from .runtime import AppRun, BundleRun, TaskRun

__all__ = [
    "AppRun",
    "BaselineScheduler",
    "BundleRun",
    "FCFSScheduler",
    "NimblockScheduler",
    "OnBoardScheduler",
    "PRPlan",
    "ResponseRecord",
    "RoundRobinScheduler",
    "SchedulerStats",
    "TaskRun",
    "optimal_big_slots",
    "optimal_little_slots",
]
