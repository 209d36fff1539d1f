#!/usr/bin/env python3
"""Record the cost and answer digest of each workload for given seeds.

Usage (from the repository root)::

    python3 perfbench/record.py            # seed 0, the hold-out seed, 1..10

Writes ``perfbench/expected.json``.  A run of ``run.py`` at a recorded
seed counts every answer that differs from the recording as a failed
operation, so record only from a commit whose answers are known good;
the answers must not change afterwards.
"""

from __future__ import annotations

import json
import os
import sys

import run

SEEDS = [0, run.HOLDOUT_SEED] + list(range(1, 11))


def reference(work, seed: int) -> dict:
    import checks
    from workloads import CLIENTS, Outcome, check_pass, gate_solution, service_pass
    from workloads import stream_batches, stream_config

    outcome = Outcome()
    instance = work.generate(seed)
    if work.streamed:
        journal = os.path.join(run.RESULTS, "record.journal")
        batches = stream_batches(instance, seed, work.batch)
        result = service_pass(instance.cost, batches, stream_config(work, journal), CLIENTS)
        os.unlink(journal)
        check_pass(outcome, None, instance, result)
        state = result.after["workload"]
        cost, digest = float(state["total_cost"]), str(state["state_digest"])
    else:
        result = work.solver().solve(instance)
        cost = result.cost
        digest = checks.solution_digest(result.solution.classifiers)
        gate_solution(outcome, None, instance, result.solution.classifiers, cost)
    if outcome.failed:
        raise SystemExit(f"{work.name} seed {seed}: {outcome.problems}")
    return {"cost": cost, "digest": digest}


def main() -> int:
    run.pin_environment()
    import workloads

    os.makedirs(run.RESULTS, exist_ok=True)
    recorded = {"holdout_seed": run.HOLDOUT_SEED, "workloads": {}}
    for name, work in workloads.workloads().items():
        entries = recorded["workloads"].setdefault(name, {})
        for seed in SEEDS:
            entries[str(seed)] = reference(work, seed)
            print(name, seed, entries[str(seed)], flush=True)
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
