"""Experiment modules regenerating every table/figure of the paper."""

from .fig5 import CONDITIONS, Fig5Result, PAPER_FIG5, run_fig5
from .fig6 import Fig6Result, PAPER_FIG6, TAIL_CONDITIONS, fig6_from_records, run_fig6
from .fig7 import Fig7Result, PAPER_FIG7, PAPER_IC_DETAIL, run_fig7, run_fig7_dynamic
from .fig8 import Fig8Result, PAPER_FIG8, PAPER_SWITCH_OVERHEAD_MS, long_workload, run_cluster, run_fig8
from .runner import SYSTEMS

__all__ = [
    "fig6_from_records",
    "CONDITIONS",
    "Fig5Result",
    "Fig6Result",
    "Fig7Result",
    "Fig8Result",
    "PAPER_FIG5",
    "PAPER_FIG6",
    "PAPER_FIG7",
    "PAPER_FIG8",
    "PAPER_IC_DETAIL",
    "PAPER_SWITCH_OVERHEAD_MS",
    "SYSTEMS",
    "TAIL_CONDITIONS",
    "long_workload",
    "run_cluster",
    "run_fig7_dynamic",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
]
