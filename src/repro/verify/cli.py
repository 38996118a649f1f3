"""The ``repro verify`` command: oracle sweeps and fuzz campaigns.

Two modes share the machinery:

* **scenario sweep** (default) — every (system × sequence × seed) cell of
  one registered scenario is run through the differential oracle;
* **fuzz** (``--fuzz N``) — N property-based cases sampled from the
  campaign registry under a root ``--seed``.

A failing case is shrunk and persisted under ``--repro-dir`` as a JSON
repro replayable with ``python -m repro replay <file>``; the
command exits non-zero if any case diverged or broke an invariant.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from ..campaign.scenario import SYSTEM_REGISTRY, get_scenario
from ..fleet import FLEET_SCENARIOS, get_fleet_scenario
from .fuzz import (
    FuzzCase,
    ScenarioFuzzer,
    cases_from_fleet_scenario,
    cases_from_scenario,
    save_repro,
    shrink_case,
)
from .oracle import DifferentialOracle, DivergenceReport
from .reference import KERNELS

#: Candidate kernels the default sweep compares against the reference:
#: the bucketed timing-wheel kernel (first: it is the production default,
#: so it is the candidate-of-record a report's headline numbers cite) and
#: the optimized heap kernel.
DEFAULT_KERNELS = ("wheel", "optimized")


def add_verify_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fuzz", type=int, default=None, metavar="N",
        help="fuzz N sampled cases instead of sweeping a scenario's cells",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="fault-aware fuzzing: sample only fleet deployments and "
             "inject a deterministic fault schedule (shard kills, drains, "
             "degradation, latency skew) into every case",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="root seed of the fuzz sampler (default: 0)",
    )
    parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="registered scenario to sweep (default: smoke), or to restrict "
             "fuzzing to",
    )
    parser.add_argument(
        "--system", action="append", default=None, metavar="NAME",
        help="restrict checking to this system (repeatable)",
    )
    parser.add_argument(
        "--repro-dir", default="results/repros", metavar="DIR",
        help="directory failing cases are persisted under "
             "(default: results/repros)",
    )
    parser.add_argument(
        "--max-shrink", type=int, default=48, metavar="N",
        help="oracle-run budget for shrinking one failing case (default: 48)",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="check every case even after a failure (default: stop at first)",
    )
    parser.add_argument(
        "--kernel", action="append", default=None, metavar="NAME",
        help="candidate kernel to diff against the reference (repeatable; "
             f"default: {' and '.join(DEFAULT_KERNELS)})",
    )
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="audit a durable SQLite store instead of sweeping: check "
             "notification-log shape, snapshot consistency, and that every "
             "persisted incremental projection equals a full rebuild",
    )


def _check_case(oracle: DifferentialOracle, case: FuzzCase) -> DivergenceReport:
    report = oracle.check(case.system, case.arrivals(), case.params())
    # Fleet cases additionally audit the serving plan: losing a request
    # is a failure even when every kernel agrees bit-for-bit.
    report.plan_violations = case.plan_violations()
    return report


def _handle_failure(
    oracle: DifferentialOracle,
    case: FuzzCase,
    report: DivergenceReport,
    repro_dir: str,
    max_shrink: int,
) -> Path:
    """Shrink a failing case, persist the repro, and narrate both."""
    print(report.summary(), file=sys.stderr)

    def still_fails(candidate: FuzzCase) -> bool:
        return not _check_case(oracle, candidate).ok

    shrunk, attempts = shrink_case(case, still_fails, budget=max_shrink)
    final_report = report if shrunk == case else _check_case(oracle, shrunk)
    path = Path(repro_dir) / f"repro-{shrunk.scenario}-{shrunk.case_id}.json"
    save_repro(path, shrunk, final_report)
    print(
        f"shrunk to: {shrunk.describe()} ({attempts} shrink runs)\n"
        f"repro persisted: {path}\n"
        f"replay with: python -m repro replay {path}",
        file=sys.stderr,
    )
    return path


def _run_store_audit(path: str) -> int:
    from .oracle import check_store

    if not Path(path).exists():
        print(f"error: store {path} does not exist", file=sys.stderr)
        return 2
    try:
        findings = check_store(path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if findings:
        print(f"verify: store {path}: {len(findings)} finding(s)")
        for finding in findings:
            print(f"  FAIL {finding}", file=sys.stderr)
        return 1
    print(
        f"verify: store {path}: notification log dense, snapshots "
        "consistent, all projections equal a full rebuild"
    )
    return 0


def run_verify_command(args: argparse.Namespace) -> int:
    if getattr(args, "store", None):
        return _run_store_audit(args.store)
    kernels = tuple(args.kernel) if getattr(args, "kernel", None) else DEFAULT_KERNELS
    bad_kernels = [
        name for name in kernels if name == "reference" or name not in KERNELS
    ]
    if bad_kernels:
        candidates = ", ".join(name for name in KERNELS if name != "reference")
        print(
            f"error: invalid candidate kernel(s) {', '.join(bad_kernels)}; "
            f"the reference is always the baseline — pick from: {candidates}",
            file=sys.stderr,
        )
        return 2
    oracle = DifferentialOracle(kernels=kernels)
    unknown_systems = [
        name for name in (args.system or ()) if name not in SYSTEM_REGISTRY
    ]
    if unknown_systems:
        print(
            f"error: unknown system(s) {', '.join(unknown_systems)}; "
            f"available: {', '.join(SYSTEM_REGISTRY)}",
            file=sys.stderr,
        )
        return 2
    chaos = bool(getattr(args, "chaos", False))
    if args.fuzz is not None:
        if args.fuzz < 1:
            print(f"error: --fuzz must be >= 1, got {args.fuzz}", file=sys.stderr)
            return 2
        try:
            fuzzer = ScenarioFuzzer(
                args.seed, scenario=args.scenario, systems=args.system,
                chaos=chaos,
            )
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        cases: List[FuzzCase] = list(fuzzer.cases(args.fuzz))
        banner = (
            f"{'chaos-' if chaos else ''}fuzzing {len(cases)} cases "
            f"(seed {args.seed})"
        )
    elif chaos:
        print("error: --chaos requires --fuzz N", file=sys.stderr)
        return 2
    else:
        name = args.scenario or "smoke"
        try:
            if name in FLEET_SCENARIOS:
                scenario = get_fleet_scenario(name)
                cases = cases_from_fleet_scenario(scenario)
            else:
                scenario = get_scenario(name)
                cases = cases_from_scenario(scenario)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        if args.system:
            chosen = set(args.system)
            cases = [case for case in cases if case.system in chosen]
            if not cases:
                # A green gate that checked nothing is worse than a red one.
                print(
                    f"error: scenario {scenario.name!r} has no cells for "
                    f"system(s) {', '.join(sorted(chosen))} "
                    f"(it evaluates: {', '.join(scenario.system_names())})",
                    file=sys.stderr,
                )
                return 2
        banner = f"sweeping scenario {scenario.name!r}: {len(cases)} cells"
    print(f"verify: {banner}; reference vs {' vs '.join(kernels)} kernel")

    failures = 0
    checked = 0
    for case in cases:
        report = _check_case(oracle, case)
        checked += 1
        if report.ok:
            print(
                f"  ok   {case.describe()} "
                f"({report.optimized.trace_len} trace records)"
            )
            continue
        failures += 1
        print(f"  FAIL {case.describe()}")
        _handle_failure(oracle, case, report, args.repro_dir, args.max_shrink)
        if not args.keep_going:
            break
    if failures:
        print(
            f"verify: {failures} failing case(s) out of {checked} checked",
            file=sys.stderr,
        )
        return 1
    print(f"verify: all {len(cases)} cases bit-identical across kernels")
    return 0
