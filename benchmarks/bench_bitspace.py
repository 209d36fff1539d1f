"""Micro-benchmarks for the bitset property-space rewrite.

Times the three rewritten hot paths — dominated pruning, the
single-query min-cover DP, and greedy WSC (plain + bucketed) — against
the verbatim pre-change implementations kept in
:mod:`repro.core.reference`, asserting bit-identical outputs before any
timing is trusted.  Also re-checks that every registered solver returns
the identical solution with the reference kernels patched in.

Standalone usage (writes median timings + speedups as JSON)::

    python benchmarks/bench_bitspace.py --save BENCH_core.json
    python benchmarks/bench_bitspace.py --smoke   # CI-sized subset

The module is also importable (``run_all``) and exercised by the CI
smoke step; it is intentionally not a pytest-benchmark module — the
reference implementations are the baseline, not a previous run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import MC3Instance, OverlayCost, TableCost  # noqa: E402
from repro.core.kernels import (  # noqa: E402
    available_backends,
    resolve_backend_name,
    use_backend,
)
from repro.core.mincover import min_cover  # noqa: E402
from repro.core.properties import iter_nonempty_subsets  # noqa: E402
from repro.core.reference import (  # noqa: E402
    ReferenceDominatedPruner,
    patch_reference_kernels,
    reference_bucket_greedy_wsc,
    reference_greedy_wsc,
    reference_min_cover,
)
from repro.exceptions import ReductionError, SolverError  # noqa: E402
from repro.preprocess.dominated import DominatedPruner  # noqa: E402
from repro.setcover import bucket_greedy_wsc, greedy_wsc  # noqa: E402
from repro.setcover.instance import WSCInstance  # noqa: E402
from repro.solvers import available_solvers, make_solver  # noqa: E402


# ----------------------------------------------------------------------
# Workload builders (seeded, deterministic)
# ----------------------------------------------------------------------


def pruning_workload(
    num_properties: int,
    num_queries: int,
    seed: int = 7,
    lengths: Tuple[int, int] = (5, 7),
):
    """One property-connected component with long queries, all subsets
    priced — the regime where the O(3^len) decomposition loop dominates.
    ``lengths`` bounds the query lengths: 5–7 stays on the full two-cover
    family, 8–10 reaches the two-partition family above
    ``FULL_ENUMERATION_MAX_LENGTH``."""
    rng = random.Random(seed)
    names = [f"p{i:02d}" for i in range(num_properties)]
    queries = []
    for _ in range(num_queries):
        length = rng.randint(lengths[0], min(lengths[1], num_properties))
        queries.append(frozenset(rng.sample(names, length)))
    table = {}
    for q in queries:
        for clf in iter_nonempty_subsets(q):
            if clf not in table:
                table[clf] = float(rng.randint(1, 30))
    return [frozenset(q) for q in queries], TableCost(table)


def mincover_workload(length: int, seed: int = 11):
    """A single long query with a dense candidate pool."""
    rng = random.Random(seed)
    q = frozenset(f"p{i:02d}" for i in range(length))
    candidates = [
        (clf, float(rng.randint(1, 30))) for clf in iter_nonempty_subsets(q)
    ]
    return q, candidates


def wsc_workload(num_elements: int, num_sets: int, seed: int = 13) -> WSCInstance:
    rng = random.Random(seed)
    elements = [f"e{i}" for i in range(num_elements)]
    instance = WSCInstance()
    for index, element in enumerate(elements):
        instance.add_set(f"unit{index}", [element], float(rng.randint(1, 10)))
    for index in range(num_sets):
        size = rng.randint(2, max(2, num_elements // 4))
        members = rng.sample(elements, size)
        instance.add_set(f"s{index}", members, float(rng.randint(1, 10)))
    return instance


def solver_check_instance(seed: int = 17) -> MC3Instance:
    rng = random.Random(seed)
    names = [f"p{i}" for i in range(8)]
    queries = set()
    while len(queries) < 8:
        queries.add(frozenset(rng.sample(names, rng.randint(1, 3))))
    table = {}
    for q in queries:
        for clf in iter_nonempty_subsets(q):
            if clf not in table:
                table[clf] = float(rng.randint(0, 20))
    return MC3Instance(sorted(queries, key=sorted), TableCost(table))


# ----------------------------------------------------------------------
# Timing + equivalence harness
# ----------------------------------------------------------------------


def median_seconds(fn: Callable[[], object], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def timed_backends(
    run_new: Callable[[], object],
    repeats: int,
    identical: Callable[[object], bool],
) -> Dict[str, Dict]:
    """Run the kernel path under every *available* backend — equivalence
    check first, then timing — selected through ``use_backend`` so the
    benchmarked code is exactly what callers get.  An absent numpy simply
    drops the array entry from the report."""
    entries: Dict[str, Dict] = {}
    for name in available_backends():
        with use_backend(name):
            entries[name] = {
                "identical": identical(run_new()),
                "median_s": median_seconds(run_new, repeats),
            }
    return entries


def workload_entry(
    params: Dict,
    run_new: Callable[[], object],
    reference_median: float,
    repeats: int,
    identical: Callable[[object], bool],
    outputs: Dict,
) -> Dict:
    backends = timed_backends(run_new, repeats, identical)
    return {
        "params": params,
        "identical": all(entry["identical"] for entry in backends.values()),
        "reference_median_s": reference_median,
        "backends": backends,
        "outputs": outputs,
    }


def bench_pruning(
    repeats: int,
    num_properties: int,
    num_queries: int,
    lengths: Tuple[int, int] = (5, 7),
) -> Dict:
    queries, cost_model = pruning_workload(
        num_properties, num_queries, lengths=lengths
    )

    def run_new():
        pruner = DominatedPruner(queries, OverlayCost(cost_model))
        return pruner, pruner.run(queries)

    def run_ref():
        pruner = ReferenceDominatedPruner(queries, OverlayCost(cost_model))
        return pruner, pruner.run(queries)

    ref_pruner, ref_out = run_ref()

    def identical(new) -> bool:
        new_pruner, new_out = new
        return (
            new_out == ref_out
            and new_pruner.removed == ref_pruner.removed
            and new_pruner.forced == ref_pruner.forced
            and new_pruner.overlay.overrides == ref_pruner.overlay.overrides
        )

    return workload_entry(
        {
            "properties": num_properties,
            "queries": num_queries,
            "query_lengths": list(lengths),
        },
        run_new,
        median_seconds(run_ref, repeats),
        repeats,
        identical,
        {"removed": len(ref_pruner.removed), "forced": len(ref_pruner.forced)},
    )


def bench_mincover(repeats: int, length: int, calls: int = 10) -> Dict:
    q, candidates = mincover_workload(length)

    def run_new():
        for _ in range(calls):
            result = min_cover(q, candidates)
        return result

    def run_ref():
        for _ in range(calls):
            result = reference_min_cover(q, candidates)
        return result

    ref_cover = run_ref()

    def identical(new_cover) -> bool:
        return (
            new_cover.cost == ref_cover.cost
            and new_cover.classifiers == ref_cover.classifiers
        )

    return workload_entry(
        {"query_length": length, "calls": calls},
        run_new,
        median_seconds(run_ref, repeats),
        repeats,
        identical,
        {"cost": ref_cover.cost, "sets": len(ref_cover.classifiers)},
    )


def bench_greedy(repeats: int, num_elements: int, num_sets: int) -> Dict:
    instance = wsc_workload(num_elements, num_sets)
    ref = reference_greedy_wsc(instance)

    def identical(new) -> bool:
        return new.set_ids == ref.set_ids and new.cost == ref.cost

    return workload_entry(
        {"elements": num_elements, "sets": num_sets},
        lambda: greedy_wsc(instance),
        median_seconds(lambda: reference_greedy_wsc(instance), repeats),
        repeats,
        identical,
        {"cost": ref.cost, "sets": len(ref.set_ids)},
    )


def bench_bucket_greedy(repeats: int, num_elements: int, num_sets: int) -> Dict:
    instance = wsc_workload(num_elements, num_sets)
    ref = reference_bucket_greedy_wsc(instance, epsilon=0.1)

    def identical(new) -> bool:
        return new.set_ids == ref.set_ids and new.cost == ref.cost

    return workload_entry(
        {"elements": num_elements, "sets": num_sets, "epsilon": 0.1},
        lambda: bucket_greedy_wsc(instance, epsilon=0.1),
        median_seconds(
            lambda: reference_bucket_greedy_wsc(instance, epsilon=0.1), repeats
        ),
        repeats,
        identical,
        {"cost": ref.cost, "sets": len(ref.set_ids)},
    )


def check_solver_equivalence() -> Dict:
    """Every registered solver, under every available backend: identical
    solution on the bench instance whether it runs on the mask kernels
    or the patched-in references."""
    instance = solver_check_instance()
    kwargs = {"mc3-robust": {"redundancy": 1}}
    checked: List[str] = []
    with patch_reference_kernels():
        patched_results = {}
        for name in available_solvers():
            solver = make_solver(name, **kwargs.get(name, {}))
            try:
                patched_results[name] = solver.solve(instance)
            except (ReductionError, SolverError):
                # k <= 2 specialists reject the general bench instance
                # the same way on both code paths; nothing to compare.
                continue
    for backend_name in available_backends():
        for name, patched in patched_results.items():
            solver = make_solver(name, backend=backend_name, **kwargs.get(name, {}))
            current = solver.solve(instance)
            if (
                current.solution.classifiers != patched.solution.classifiers
                or current.cost != patched.cost
            ):
                raise AssertionError(
                    f"solver {name!r} on backend {backend_name!r} diverged "
                    "from reference kernels"
                )
        checked.extend(f"{name}@{backend_name}" for name in sorted(patched_results))
    return {"checked": checked, "identical": True}


def run_all(smoke: bool = False, repeats: int = 5) -> Dict:
    if smoke:
        repeats = 1
        sizes = {
            "pruning": (10, 6),
            "pruning_long": (10, 2),
            "mincover": 7,
            "greedy": (200, 400),
            "bucket_greedy": (200, 400),
        }
    else:
        sizes = {
            "pruning": (14, 12),
            "pruning_long": (14, 4),
            "mincover": 10,
            "greedy": (2000, 3000),
            "bucket_greedy": (2000, 3000),
        }
    workloads = {
        "dominated_pruning": bench_pruning(repeats, *sizes["pruning"]),
        "dominated_pruning_long": bench_pruning(
            repeats, *sizes["pruning_long"], lengths=(8, 10)
        ),
        "min_cover_dp": bench_mincover(repeats, sizes["mincover"]),
        "greedy_wsc": bench_greedy(repeats, *sizes["greedy"]),
        "bucket_greedy_wsc": bench_bucket_greedy(repeats, *sizes["bucket_greedy"]),
    }
    for name, entry in workloads.items():
        reference = entry["reference_median_s"]
        for backend_entry in entry["backends"].values():
            median = backend_entry["median_s"]
            backend_entry["speedup"] = (
                round(reference / median, 2) if median > 0 else math.inf
            )
        if not entry["identical"]:
            raise AssertionError(f"workload {name!r} outputs diverged")
    return {
        "benchmark": "bitspace",
        "schema": 2,
        "python": sys.version.split()[0],
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "default_backend": resolve_backend_name(None),
        "workloads": workloads,
        "solver_equivalence": check_solver_equivalence(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, one repeat (CI)"
    )
    parser.add_argument("--repeats", type=int, default=5)
    options = parser.parse_args(argv)
    results = run_all(smoke=options.smoke, repeats=options.repeats)
    for name, entry in results["workloads"].items():
        print(
            f"{name:20s} reference {entry['reference_median_s'] * 1e3:9.2f} ms"
            f"  identical={entry['identical']}"
        )
        for backend_name, backend_entry in sorted(entry["backends"].items()):
            print(
                f"  {backend_name:18s} {backend_entry['median_s'] * 1e3:9.2f} ms"
                f"  speedup {backend_entry['speedup']:6.2f}x"
                f"  identical={backend_entry['identical']}"
            )
    print(f"default backend: {results['default_backend']}")
    print(
        "solver equivalence: "
        f"{len(results['solver_equivalence']['checked'])} "
        "solver/backend pairs identical"
    )
    if options.save:
        with open(options.save, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"wrote {options.save}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
