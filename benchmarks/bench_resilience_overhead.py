"""No-fault overhead of the engine's component executor.

Every engine run dispatches its components through one executor
(``repro.engine.resilience.run_components``), which walks each
component through a fallback-chain state machine.  Its contract is
that this costs (almost) nothing when nothing goes wrong: this bench
preprocesses the engine-parallel workload (the same shape as
``bench_engine_parallel.py``) once, then times

* a direct in-process loop of the solver strategy's
  ``solve_component`` calls (no executor at all), against
* the executor's no-fault run of the same tasks under the plain
  policy a run gets when it declares none,

and asserts

* bit-identical per-component answers, and
* executor overhead **< 2 %** on the median of paired per-round time
  ratios (variants interleave within each round so machine-load drift
  cancels inside each pair; the median discards scheduler hiccups).

The executor under ``ResiliencePolicy()`` (whose per-component cover
validation is real work) is also timed and reported, outside the 2 %
assertion.

Standalone usage (mirrors ``bench_bitspace.py`` / BENCH_core.json)::

    python benchmarks/bench_resilience_overhead.py --save BENCH_resilience.json
    python benchmarks/bench_resilience_overhead.py --smoke   # CI-sized
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
import time
from typing import Dict

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import MC3Instance, TableCost  # noqa: E402
from repro.core.kernels.registry import resolve_backend_name, use_backend  # noqa: E402
from repro.core.properties import iter_nonempty_subsets  # noqa: E402
from repro.engine import ResiliencePolicy, run_components  # noqa: E402
from repro.preprocess import preprocess  # noqa: E402
from repro.solvers import make_solver  # noqa: E402

BLOCKS = 24
QUERIES_PER_BLOCK = 8
REPEATS = 101
OVERHEAD_LIMIT = 0.02


def many_component_instance(
    blocks: int = BLOCKS,
    queries_per_block: int = QUERIES_PER_BLOCK,
    seed: int = 0,
) -> MC3Instance:
    """The bench_engine_parallel workload: ``blocks`` property-disjoint
    components, costs a pure function of the classifier."""
    rng = random.Random(f"bench-engine-{seed}")
    queries = []
    costs: Dict[object, float] = {}
    for block in range(blocks):
        props = [f"b{block}p{i}" for i in range(8)]
        block_queries = set()
        while len(block_queries) < queries_per_block:
            block_queries.add(frozenset(rng.sample(props, rng.randint(2, 3))))
        for q in sorted(block_queries, key=sorted):
            queries.append(q)
            for clf in iter_nonempty_subsets(q):
                key = repr(tuple(sorted(clf)))
                costs.setdefault(clf, float(random.Random(key).randint(1, 50)))
    return MC3Instance(queries, TableCost(costs), name="bench-resilience")


def timed_rounds(runs, repeats: int):
    """Per-variant (per-round seconds, last answer), measured round-robin.

    Interleaving the variants inside each round means load/thermal
    drift hits all of them equally, and rotating which variant opens
    each round (right after the collection) keeps position from
    biasing any one of them, which matters for a ±2 % assertion on
    ~60 ms runs.
    """
    rounds = [[] for _ in runs]
    answers = [None] * len(runs)
    for run in runs:  # warmup: caches, lazy imports, JIT-ish paths
        run()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_number in range(repeats):
            gc.collect()
            for step in range(len(runs)):
                i = (round_number + step) % len(runs)
                started = time.perf_counter()
                answers[i] = runs[i]()
                rounds[i].append(time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return list(zip(rounds, answers))


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def paired_overhead(base_rounds, variant_rounds) -> float:
    """Median of the per-round variant/base ratios, minus one.

    Each ratio pairs two solves adjacent in time, so machine-load drift
    cancels within the pair; the median then discards the occasional
    round a scheduler hiccup lands in.  Min-of-N is *not* robust enough
    here: one unusually fast base round flips the sign of a ±2 % bound.
    """
    return median(v / b for b, v in zip(base_rounds, variant_rounds)) - 1.0


def run_all(blocks: int = BLOCKS, repeats: int = REPEATS) -> Dict[str, object]:
    instance = many_component_instance(blocks=blocks)
    components = preprocess(instance).components
    strategy = make_solver("mc3-general").strategy()
    backend = resolve_backend_name(None)
    tasks = [
        (index, strategy, component, None, backend)
        for index, component in enumerate(components)
    ]

    def direct():
        with use_backend(backend):
            return [
                frozenset(strategy.solve_component(component)[0])
                for component in components
            ]

    def scheduled(policy=None):
        outcomes, report = run_components(tasks, jobs=1, policy=policy)
        # ...and a clean run must not be reported as failing.
        assert report.clean
        return [outcome.classifiers for outcome in outcomes]

    # Each executor variant is paired with its own direct-loop rounds,
    # so the two members of every pair always run back to back.
    (direct_r, direct_a), (plain_r, plain_a) = timed_rounds(
        [direct, scheduled], repeats
    )
    (base_r, _), (validated_r, validated_a) = timed_rounds(
        [direct, lambda: scheduled(ResiliencePolicy())], repeats
    )
    direct_s, plain_s, validated_s = min(direct_r), min(plain_r), min(validated_r)

    # The executor must not change any component's answer.
    assert plain_a == direct_a
    assert validated_a == direct_a

    overhead = paired_overhead(direct_r, plain_r)
    validated_overhead = paired_overhead(base_r, validated_r)
    print(f"components          : {len(components)}")
    print(f"direct loop         : {direct_s:.4f}s (min of {repeats})")
    print(f"executor, plain     : {plain_s:.4f}s ({overhead:+.2%} paired median)")
    print(
        f"executor, validated : {validated_s:.4f}s "
        f"({validated_overhead:+.2%} paired median)"
    )

    assert overhead < OVERHEAD_LIMIT, (
        f"no-fault executor overhead {overhead:+.2%} exceeds "
        f"{OVERHEAD_LIMIT:.0%} on the engine-parallel workload"
    )
    return {
        "benchmark": "resilience_overhead",
        "schema": 3,
        "python": sys.version.split()[0],
        "mode": "smoke" if blocks < BLOCKS else "full",
        "repeats": repeats,
        "default_backend": backend,
        "workload": {
            "blocks": blocks,
            "components": len(components),
            "queries_per_block": QUERIES_PER_BLOCK,
            "repeats": repeats,
        },
        "direct_seconds": direct_s,
        "executor_seconds": plain_s,
        "executor_validated_seconds": validated_s,
        "overhead_fraction": overhead,
        "validated_overhead_fraction": validated_overhead,
        "limit_fraction": OVERHEAD_LIMIT,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized subset (fewer repeats)"
    )
    options = parser.parse_args(argv)
    if options.smoke:
        results = run_all(blocks=12)
    else:
        results = run_all()
    if options.save:
        with open(options.save, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"wrote {options.save}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
