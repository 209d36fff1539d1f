#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny inputs (about a minute).

Usage (from the repository root)::

    python3 perfbench/selftest.py

For every workload it checks, through the real command line:

* the untraced pass prints every end-to-end metric of BENCHMARK.json,
  and the traced pass every per-layer metric, each with its unit, and
  a correct result with no failed operation;
* two passes under different hash seeds give identical solution or
  state digests, and identical exact work counts (preprocessing
  removals, WSC sets, pickle bytes, journal bytes, cache hits/misses);

and in process, that an answer with one classifier dropped is counted
as a failed operation.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import run

WORKLOADS = ("s-general", "s-k2", "p-10k", "p-stream")
SEED = 3
EXACT = (
    "preprocess.removed_step3",
    "preprocess.forced_step3",
    "preprocess.removed_step4",
    "preprocess.components",
    "preprocess.residual_frac",
    "core.component_pickle_bytes",
    "reductions.wsc_sets",
    "service.journal_bytes_per_request",
    "engine.cache_hits",
    "engine.cache_misses",
)


def expect(condition: bool, message) -> None:
    """Like ``assert``, but still checks under ``python -O``."""
    if not condition:
        raise AssertionError(message)


def declared(kind: str) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def cli_pass(workload: str, trace: int, hash_seed: int):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    command = [
        sys.executable, os.path.join(run.HERE, "run.py"),
        "--workload", workload, "--seed", str(SEED), "--seconds", "0",
        "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(
        command, cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(run.result_path(workload, SEED, bool(trace), True), encoding="utf-8") as handle:
        record = json.load(handle)
    return result, record


def check_result(workload: str, trace: int, result: dict, units: dict) -> None:
    where = f"{workload} trace {trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
    expect(result["correct"] is True and result["failed"] == 0, (where, result))
    expect(result["attempted"] >= 1, where)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(emitted == units, (where, emitted, units))
    for name, metric in result["metrics"].items():
        value = metric["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value), (where, name))


def drop_one(classifiers):
    """Tamper with an answer: drop its first classifier."""
    ordered = sorted(classifiers, key=lambda clf: (len(clf), sorted(clf)))
    return frozenset(ordered[1:])


def main() -> int:
    units = {0: declared("end_to_end"), 1: declared("per_layer")}
    expect(units[0] == run.END_TO_END and units[1] == run.PER_LAYER, "BENCHMARK.json drift")
    for workload in WORKLOADS:
        for trace in (0, 1):
            (first, first_record), (second, second_record) = (
                cli_pass(workload, trace, hash_seed) for hash_seed in (1, 2)
            )
            for result in (first, second):
                check_result(workload, trace, result, units[trace])
            expect(first_record["digests"] == second_record["digests"], (workload, trace))
            if trace:
                for name in EXACT:
                    a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                    expect(a == b, (workload, name, a, b))
            print(f"ok {workload} trace {trace}: metrics, units, digests, counts")

    run.pin_environment()
    import hostspeed

    try:
        for workload in WORKLOADS:
            outcome = run.measure(workload, SEED, 0.0, False, tiny=True, tamper=drop_one)[0]
            expect(outcome.failed > 0, f"{workload}: tampered answer was not counted as failed")
            print(
                f"ok {workload}: tampered answer counted "
                f"({outcome.failed}/{outcome.attempted} failed)"
            )
    finally:
        hostspeed.stop()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
