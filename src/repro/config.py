"""Central timing and sizing parameters for the simulated FPGA cluster.

Every constant that maps a hardware quantity (bitstream size, PCAP
bandwidth, link speed) onto simulated milliseconds lives here, so an
experiment can be re-parameterized without touching model code.  Defaults
follow ZCU216 / ZynqMP numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict


@dataclass(frozen=True)
class SystemParameters:
    """All tunable platform constants (times in ms, sizes in MB)."""

    # --- PCAP / bitstreams -------------------------------------------------
    #: PCAP sustained configuration bandwidth (MB/s); ZynqMP TRM figure.
    pcap_bandwidth_mbps: float = 145.0
    #: Partial bitstream for one Little slot (an eighth of the fabric plus
    #: per-region configuration frames).
    little_bitstream_mb: float = 14.5
    #: Partial bitstream for one Big slot (twice the fabric of a Little).
    big_bitstream_mb: float = 29.0
    #: Full-fabric bitstream used by the exclusive (Baseline) scheduler.
    full_bitstream_mb: float = 47.0
    #: System restart cost on a full reconfiguration (the paper: a full
    #: bitstream reload "leads to system downtime and a full restart").
    full_restart_overhead_ms: float = 800.0

    # --- Slot layout -------------------------------------------------------
    #: Big.Little configuration: number of Big slots.
    big_little_big_slots: int = 2
    #: Big.Little configuration: number of Little slots.
    big_little_little_slots: int = 4
    #: Only.Little configuration: number of Little slots.
    only_little_slots: int = 8
    #: Big slot capacity relative to a Little slot (paper: exactly 2x).
    big_slot_scale: float = 2.0

    # --- Data movement -----------------------------------------------------
    #: Per-item AXI/DDR round-trip between pipeline stages in *separate*
    #: slots.  A 3-in-1 bundle streams internally on-chip and only pays
    #: this at its boundaries (Fig. 3: B*data/B*output cross DDR once per
    #: bundle, not once per member task).
    inter_slot_transfer_ms: float = 15.0

    # --- Hypervisor costs --------------------------------------------------
    #: CPU time for one scheduler pass (allocation + dispatch bookkeeping).
    scheduler_action_ms: float = 0.02
    #: CPU time to launch one batch-item execution (buffer setup + doorbell).
    launch_overhead_ms: float = 0.05
    #: CPU time to post an asynchronous PR request to the PR server.
    pr_request_post_ms: float = 0.005

    # --- Reliability ---------------------------------------------------------
    #: Probability that a partial bitstream load fails DFX verification and
    #: must be retried (fault-injection knob; 0 = ideal hardware).
    pr_failure_rate: float = 0.0
    #: Retries before a load is reported as a hard error.
    pr_max_retries: int = 3

    # --- Cluster / migration -----------------------------------------------
    #: Aurora 64B/66B effective payload bandwidth over zSFP+ (MB/s).
    aurora_bandwidth_mbps: float = 1250.0
    #: Fixed per-migration control-plane cost (channel setup, handshakes).
    migration_fixed_ms: float = 0.5
    #: Application context + buffer footprint moved per app (MB).
    app_context_mb: float = 0.08

    # --- Switch-loop (Schmitt trigger) --------------------------------------
    #: D_switch threshold Only.Little -> Big.Little (paper Fig. 8).
    switch_threshold_up: float = 0.1
    #: D_switch threshold Big.Little -> Only.Little (paper Fig. 8).
    switch_threshold_down: float = 0.0125
    #: Candidate-queue updates between D_switch recalculations (paper: 4).
    dswitch_update_period: int = 4

    # -----------------------------------------------------------------------
    def pr_time_ms(self, size_mb: float) -> float:
        """PCAP load latency for a bitstream of ``size_mb`` megabytes."""
        if size_mb <= 0:
            raise ValueError(f"bitstream size must be positive, got {size_mb}")
        return size_mb / self.pcap_bandwidth_mbps * 1000.0

    @property
    def little_pr_ms(self) -> float:
        """PR latency of a Little-slot bitstream."""
        return self.pr_time_ms(self.little_bitstream_mb)

    @property
    def big_pr_ms(self) -> float:
        """PR latency of a Big-slot bitstream."""
        return self.pr_time_ms(self.big_bitstream_mb)

    @property
    def full_pr_ms(self) -> float:
        """Full-fabric reconfiguration latency (Baseline scheduler)."""
        return self.pr_time_ms(self.full_bitstream_mb)

    def transfer_time_ms(self, size_mb: float) -> float:
        """Aurora/DMA transfer latency for ``size_mb`` megabytes."""
        if size_mb < 0:
            raise ValueError(f"transfer size must be non-negative, got {size_mb}")
        return size_mb / self.aurora_bandwidth_mbps * 1000.0

    def with_overrides(self, **overrides: float) -> "SystemParameters":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


#: Shared default parameter set.
DEFAULT_PARAMETERS = SystemParameters()


@dataclass
class ParameterSweep:
    """A named family of parameter variations for ablation benches."""

    base: SystemParameters = DEFAULT_PARAMETERS
    variations: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def add(self, name: str, **overrides: float) -> None:
        """Register a variation by name."""
        self.variations[name] = overrides

    def materialize(self) -> Dict[str, SystemParameters]:
        """Instantiate every registered variation."""
        out = {"default": self.base}
        for name, overrides in self.variations.items():
            out[name] = self.base.with_overrides(**overrides)
        return out
