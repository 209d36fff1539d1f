#!/usr/bin/env python3
"""Paper-workload benchmark for the MC³ reproduction.

Runs one workload through the public ``Solver.solve()`` or planner
daemon path, checks every answer, and prints the metrics; the last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root)::

    python3 perfbench/run.py --workload s-general --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds``
seconds; ``--trace 1`` makes one traced pass that times each layer
instead (it takes as long as that pass takes).  Workloads, metrics and
the layer each per-layer metric belongs to are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

#: A seed no change was tuned on; later changes must pass it too.
HOLDOUT_SEED = 104729

END_TO_END = {
    "solve_s": "s",
    "request_ms.p50": "ms",
    "request_ms.p95": "ms",
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cost": "cost",
}

PER_LAYER = {
    "datasets.generate_s": "s",
    "preprocess.step1_s": "s",
    "preprocess.step2_s": "s",
    "preprocess.step3_s": "s",
    "preprocess.step4_s": "s",
    "preprocess.total_s": "s",
    "preprocess.removed_step3": "count",
    "preprocess.forced_step3": "count",
    "preprocess.removed_step4": "count",
    "preprocess.components": "count",
    "preprocess.residual_frac": "ratio",
    "core.fingerprint_s": "s",
    "core.component_pickle_bytes": "bytes",
    "reductions.to_wsc_s": "s",
    "reductions.wsc_sets": "count",
    "setcover.greedy_s": "s",
    "setcover.f_approx_s": "s",
    "reductions.to_wvc_s": "s",
    "flow.wvc_s": "s",
    "solvers.component_s": "s",
    "solvers.verify_s": "s",
    "solvers.noprep_solve_s": "s",
    "solvers.prep_speedup": "x",
    "engine.solve_s": "s",
    "engine.overhead_s": "s",
    "engine.jobs1_solve_s": "s",
    "engine.cache_hits": "count",
    "engine.cache_misses": "count",
    "engine.cache_hit_frac": "ratio",
    "extensions.add_batch_ms.p50": "ms",
    "service.journal_append_ms.p50": "ms",
    "service.journal_bytes_per_request": "bytes",
    "service.overhead_ms.p50": "ms",
    "service.queue_wait_ms.p50": "ms",
    "trace.overhead_s": "s",
    "trace.total_s": "s",
}

#: Fig 3c / 3f: share of the runtime preprocessing saves in the paper.
PAPER_PREP_SAVING = {"s-k2": ("Fig 3c", 0.85), "s-general": ("Fig 3f", 0.50)}


def pin_environment() -> None:
    """Benchmark the checkout's own sources with no ``REPRO_*`` knobs."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {SRC}")


def host_record(seed: int) -> dict:
    import numpy

    from repro.core.kernels.registry import resolve_backend_name
    from workloads import BACKEND

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": resolve_backend_name(BACKEND),
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
    }


def load_expected(workload: str, seed: int):
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)["workloads"].get(workload, {}).get(str(seed))


def end_to_end(outcome) -> dict:
    from workloads import median, peak_rss_mb, percentile

    if not outcome.solve:
        return {name: 0.0 for name in END_TO_END}
    # Medians over the run, so that one pass caught in a slow spell of a
    # shared host moves no metric: on p-stream the p95 of each pass of
    # 200 requests (ten beyond it), then its median over the passes; a
    # one-shot run has one request per pass, so there the p95 is taken
    # over its solve() calls.
    p95 = median(outcome.pass_p95) if outcome.pass_p95 else percentile(outcome.requests, 0.95)
    requests_per_pass = len(outcome.requests) / len(outcome.solve)
    return {
        "solve_s": median(outcome.solve),
        "request_ms.p50": median(outcome.requests) * 1000.0,
        "request_ms.p95": p95 * 1000.0,
        "requests_per_s": requests_per_pass / median(outcome.solve),
        "setup_s": median(outcome.setup),
        "peak_rss_mb": peak_rss_mb(),
        "cost": outcome.costs[0],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny=False, tamper=None):
    """Run one workload; returns (outcome, metrics, units, tracer)."""
    import workloads
    from layers import traced_run

    work = workloads.workloads(workloads.TINY if tiny else workloads.FULL)[workload]
    expected = None if tiny else load_expected(workload, seed)
    os.makedirs(RESULTS, exist_ok=True)
    if trace:
        outcome, metrics, tracer = traced_run(work, seed, expected, RESULTS)
        return outcome, metrics, PER_LAYER, tracer
    if work.streamed:
        outcome = workloads.run_stream(work, seed, seconds, expected, RESULTS, tamper)
    else:
        outcome = workloads.run_oneshot(work, seed, seconds, expected, tamper)
    return outcome, end_to_end(outcome), END_TO_END, None


def result_path(workload: str, seed: int, trace: bool, tiny: bool) -> str:
    size = "-tiny" if tiny else ""
    return os.path.join(RESULTS, f"{workload}{size}-seed{seed}-trace{int(trace)}.json")


def report(workload, seed, trace, tiny, outcome, metrics, units, tracer) -> None:
    import hostspeed
    from workloads import median

    host = host_record(seed)
    print(f"workload {workload}  trace {int(trace)}  host {json.dumps(host, sort_keys=True)}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    failed_frac = outcome.failed / max(1, outcome.attempted)
    print(f"failed_frac {failed_frac:.6f} ({outcome.failed} of {outcome.attempted} operations)")
    if outcome.solve:
        print(f"samples: {len(outcome.solve)} planning passes, {len(outcome.requests)} requests")
        print(f"planning pass {median(outcome.measured):.4f} s as measured")
    if outcome.probes:
        print(
            f"host-speed probe median {median(outcome.probes):.5f} s over "
            f"{len(outcome.probes)} probes, reference {hostspeed.REFERENCE_S} s "
            f"(times below are scaled to it)"
        )
    for key, value in sorted(outcome.notes.items()):
        print(f"note {key} {value}")
    for name, unit in units.items():
        print(f"{name:<36} {metrics[name]:>16.6f} {unit}")
    if tracer is not None:
        print_trace(workload, metrics, outcome, tracer)
    record = {
        "host": host,
        "workload": workload,
        "trace": int(trace),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "notes": outcome.notes,
        "digests": outcome.digests,
        "samples": {
            "solve_s": outcome.solve,
            "setup_s": outcome.setup,
            "measured_solve_s": outcome.measured,
            "probe_s": outcome.probes,
        },
        "metrics": metrics,
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(result_path(workload, seed, trace, tiny), "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def print_trace(workload, metrics, outcome, tracer) -> None:
    total = metrics["trace.total_s"]
    print(f"self time by span (sums to the traced total {total:.3f} s):")
    for name, value in sorted(tracer.self_time_by_name().items(), key=lambda kv: -kv[1]):
        print(f"  {name:<28} {value:10.3f} s  {100.0 * value / total:5.1f}%")
    untraced = outcome.notes["untraced_solve_s"]
    traced = outcome.notes["traced_solve_s"]
    print(
        f"tracing overhead: traced solve {traced:.3f} s vs untraced {untraced:.3f} s "
        f"({traced - untraced:+.3f} s)"
    )
    if workload in PAPER_PREP_SAVING:
        figure, saving = PAPER_PREP_SAVING[workload]
        speedup = metrics["solvers.prep_speedup"]
        print(
            f"prep_speedup {speedup:.3f}x = no-prep solve {metrics['solvers.noprep_solve_s']:.3f} s"
            f" / prep solve {metrics['engine.solve_s']:.3f} s; paper {figure}: preprocessing"
            f" saves ~{saving:.0%} of the runtime ({1.0 / (1.0 - saving):.1f}x)"
        )


def result_line(outcome, metrics, units) -> str:
    return json.dumps(
        {
            "correct": outcome.failed == 0 and outcome.attempted > 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=["s-general", "s-k2", "p-10k", "p-stream"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="self-test input sizes (see selftest.py)"
    )
    args = parser.parse_args(argv)
    pin_environment()
    import hostspeed

    trace = bool(args.trace)
    try:
        outcome, metrics, units, tracer = measure(
            args.workload, args.seed, args.seconds, trace, args.tiny
        )
    finally:
        hostspeed.stop()
    report(args.workload, args.seed, trace, args.tiny, outcome, metrics, units, tracer)
    print(result_line(outcome, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
