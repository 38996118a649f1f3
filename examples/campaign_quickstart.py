#!/usr/bin/env python
"""Campaign quickstart: declare a scenario, run it in parallel, replay it.

Shows the three pieces of the campaign subsystem end-to-end:

1. declare a custom :class:`Scenario` (registry-style, with parameter
   overrides) instead of hand-rolling simulation loops;
2. execute its (system x sequence x seed) cells over the multiprocessing
   backend with per-worker isolation;
3. persist per-run records as JSONL and re-aggregate them without
   re-simulating.

Run with:  python examples/campaign_quickstart.py [--jobs N]
"""

import argparse
import tempfile
from pathlib import Path

from repro.campaign import CampaignRunner, ResultsStore, Scenario, load_records
from repro.metrics import summarize_records
from repro.workloads import Condition, WorkloadSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default: 2)")
    args = parser.parse_args()

    # 1. A declarative scenario: three systems, two Stress sequences,
    #    two seeds, with a slower PCAP than the ZCU216 default.
    scenario = Scenario(
        name="quickstart-slow-pcap",
        workload=WorkloadSpec(Condition.STRESS, n_apps=10, sequence_count=2),
        systems=("Nimblock", "VersaSlot-OL", "VersaSlot-BL"),
        seeds=(1, 2),
        overrides={"pcap_bandwidth_mbps": 100.0},
        description="Stress sweep with a derated configuration port",
    )
    print(f"Scenario {scenario.name!r}: {scenario.cell_count()} cells "
          f"({len(scenario.system_names())} systems x "
          f"{scenario.workload.sequence_count} sequences x "
          f"{len(scenario.seeds)} seeds)\n")

    # 2. Run the cells over worker processes, persisting as JSONL.
    out = Path(tempfile.mkdtemp()) / "quickstart.jsonl"
    runner = CampaignRunner(jobs=args.jobs, store=ResultsStore(out))
    records = runner.run(scenario)

    # 3. Aggregate from the persisted records — no re-simulation.
    persisted, _ = load_records(out)
    print(summarize_records(persisted))
    print(f"\n{len(records)} records persisted to {out}")


if __name__ == "__main__":
    main()
