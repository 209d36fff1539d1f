"""The traced run: per-layer numbers for one workload.

Spans are recorded from the benchmark's side, around calls into each
layer's public functions; nothing inside the program is instrumented.
Each workload is a list of *units* — the instances one ``solve()`` call
sees.  A one-shot workload has one unit (the whole instance); on
``p-stream`` every request is a unit: its fresh queries priced by an
overlay in which the classifiers built so far are free, exactly the
residual instance the incremental planner solves.

Per unit the run times ``solve()``, then ``preprocess`` for the growing
step prefixes (1), (1,2), (1,2,3), (1,2,3,4) — step k's time is the
difference of two prefix times, so a near-free step can read slightly
negative — and, on every residual component, the fingerprint, pickling,
the WSC reduction with both WSC algorithms, the WVC reduction with the
max-flow kernel on the component's length-2 queries, and the solver's
``solve_component``; last the program's own verifier.  The service
layers are timed by a direct journal + ``add_batch`` pass and a daemon
pass over the workload's requests (one request carrying the whole
instance on one-shot workloads).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import pickle
from typing import Dict, Optional

from repro import MC3Instance, preprocess
from repro.core.bitspace import component_fingerprint
from repro.core.costs import OverlayCost
from repro.core.kernels.registry import use_backend
from repro.extensions import IncrementalPlanner
from repro.preprocess import ALL_STEPS
from repro.reductions import mc3_to_bipartite_wvc, mc3_to_wsc, solve_bipartite_wvc
from repro.service.daemon import PlannerService
from repro.service.journal import WorkloadJournal
from repro.setcover import greedy_wsc, lp_rounding_wsc, primal_dual_wsc
from repro.setcover.lp import DEFAULT_SIZE_LIMIT, lp_nonzeros

import checks
from spans import Tracer
from workloads import (
    BACKEND,
    CLIENTS,
    Outcome,
    PassResult,
    Workload,
    check_pass,
    gate_solution,
    median,
    now,
    service_pass,
    stream_batches,
    stream_config,
)

COUNTS = (
    "preprocess.removed_step3",
    "preprocess.forced_step3",
    "preprocess.removed_step4",
    "preprocess.components",
    "core.component_pickle_bytes",
    "reductions.wsc_sets",
)


def settle(work: Workload) -> None:
    """Collect garbage before a large timed call, so one call's garbage
    is not collected inside the next one's span.  Skipped for the small
    per-request units of p-stream, where a full collection would cost
    more than the call it protects."""
    if not work.streamed:
        gc.collect()


def layer_pass(
    tracer: Tracer, work: Workload, solver, unit: MC3Instance, solution, counts: Dict[str, float]
) -> None:
    """Time one unit's preprocessing, component layers and verification."""
    for k in range(1, len(ALL_STEPS) + 1):
        prep = None  # free the previous prefix's result before collecting
        settle(work)
        with tracer.span(f"preprocess.prefix{k}"):
            prep = preprocess(unit, steps=ALL_STEPS[:k])
    report = prep.report
    counts["preprocess.removed_step3"] += report.classifiers_removed_step3
    counts["preprocess.forced_step3"] += report.forced_covers_step3
    counts["preprocess.removed_step4"] += report.singletons_removed_step4
    counts["preprocess.components"] += len(prep.components)
    counts["queries"] += unit.n
    counts["residual_queries"] += sum(component.n for component in prep.components)

    routes = solver.routes()
    token = solver.cache_token()
    for component in prep.components:
        with tracer.span("core.fingerprint"):
            component_fingerprint(component, solver_token=token, backend=BACKEND)
        with tracer.span("core.pickle"):
            counts["core.component_pickle_bytes"] += len(pickle.dumps(component))
        with tracer.span("reductions.to_wsc"):
            wsc = mc3_to_wsc(component)
        counts["reductions.wsc_sets"] += wsc.num_sets
        with tracer.span("setcover.greedy"):
            greedy_wsc(wsc)
        with tracer.span("setcover.f_approx"):
            if lp_nonzeros(wsc) > DEFAULT_SIZE_LIMIT:
                primal_dual_wsc(wsc)
            else:
                lp_rounding_wsc(wsc)
        pairs = [q for q in component.queries if len(q) == 2]
        if pairs:
            with tracer.span("reductions.to_wvc"):
                graph = mc3_to_bipartite_wvc(pairs, component.cost)
            with tracer.span("flow.wvc"):
                solve_bipartite_wvc(graph)
        target = next((r for r in routes if r.matches(component)), solver)
        with tracer.span("solvers.component"):
            target.solve_component(component)
    with tracer.span("solvers.verify"):
        solution.verify(unit)


def reference_solves(
    tracer: Tracer, work: Workload, unit: MC3Instance, outcome: Outcome, prep_cost: float
) -> None:
    """The Fig 3c/3f no-preprocessing reference, and a jobs=1 solve
    when the workload runs more jobs."""
    settle(work)
    with tracer.span("solvers.noprep_solve"):
        reference = work.solver(preprocess_steps=()).solve(unit)
    if work.exact:
        outcome.attempted += 1
        if not checks.same_cost(reference.cost, prep_cost):
            outcome.fail(1, f"no-preprocessing cost {reference.cost} != preprocessed {prep_cost}")
    if work.jobs > 1:
        settle(work)
        with tracer.span("engine.jobs1_solve"):
            work.solver(jobs=1).solve(unit)


def residual_unit(cost, batch, built, index: int) -> MC3Instance:
    """The instance IncrementalPlanner.add_batch solves for a batch."""
    overlay = OverlayCost(cost)
    for clf in built:
        overlay.select(clf)
    return MC3Instance(batch, overlay, name=f"batch{index}")


def journal_bytes(path: str) -> int:
    """Journal record bytes, less the text of each record's wall-clock
    ``ts`` field (forensic metadata whose digits vary run to run)."""
    total = 0
    with open(path, "rb") as handle:
        for line in handle:
            payload = json.loads(line.split(b"\t", 1)[0])
            total += len(line) - len(json.dumps(payload["ts"]))
    return total


def untraced_reference(work: Workload, seed: int, expected, config, outcome: Outcome) -> float:
    """Time one planning pass with no span around it — the baseline for
    the tracing overhead.  On p-stream a first pass warms the daemon's
    cache, as in the untraced run."""
    instance = work.generate(seed)
    gc.collect()
    if work.streamed:
        batches = stream_batches(instance, seed, work.batch)
        check_pass(outcome, expected, instance, service_pass(instance.cost, batches, config, CLIENTS))
        gc.collect()
        reference = service_pass(instance.cost, batches, config, CLIENTS)
        check_pass(outcome, expected, instance, reference)
        return reference.makespan
    started = now()
    result = work.solver().solve(instance)
    elapsed = now() - started
    outcome.attempted += 1
    gate_solution(outcome, expected, instance, result.solution.classifiers, result.cost)
    return elapsed


def traced_run(
    work: Workload,
    seed: int,
    expected: Optional[Dict[str, object]],
    workdir: str,
) -> tuple:
    """Returns (outcome, per-layer metrics, tracer)."""
    outcome = Outcome()
    tracer = Tracer(work.name)
    counts: Dict[str, float] = {name: 0 for name in COUNTS}
    counts.update(queries=0, residual_queries=0)
    journal = os.path.join(workdir, f"{work.name}.journal")
    config = stream_config(work, journal)
    untraced = untraced_reference(work, seed, expected, config, outcome)
    gc.collect()
    solver = work.solver()

    with tracer.span("run"), use_backend(BACKEND):
        with tracer.span("datasets.generate"):
            instance = work.generate(seed)
        if work.streamed:
            batches = stream_batches(instance, seed, work.batch)
            with tracer.span("service.pass"):
                daemon = service_pass(instance.cost, batches, config, CLIENTS)
                for sent, done in daemon.sent_done:
                    tracer.add("service.request", sent, done)
            traced = daemon.makespan
            with tracer.span("bench.check"):
                check_pass(outcome, expected, instance, daemon)
        else:
            batches = [list(instance.queries)]
            settle(work)
            with tracer.span("solve"):
                result = solver.solve(instance)
            traced = tracer.durations("solve")[-1]
            with tracer.span("bench.check"):
                outcome.attempted += 1
                gate_solution(outcome, expected, instance, result.solution.classifiers, result.cost)
            layer_pass(tracer, work, solver, instance, result.solution, counts)
            reference_solves(tracer, work, instance, outcome, result.cost)
            result = None

        direct = direct_pass(tracer, work, instance, batches, config, outcome, solver, counts)
        if not work.streamed:
            settle(work)
            with tracer.span("service.pass"):
                daemon = service_pass(instance.cost, batches, config, 1)
                for sent, done in daemon.sent_done:
                    tracer.add("service.request", sent, done)
            with tracer.span("bench.check"):
                check_pass(outcome, expected, instance, daemon)
        outcome.attempted += 1
        if direct != daemon.after["workload"]["state_digest"]:
            outcome.fail(1, "direct add_batch pass and daemon pass reached different states")
        counts["service.journal_bytes"] = journal_bytes(journal)
    os.unlink(journal)

    metrics = layer_metrics(tracer, work, counts, daemon, len(batches))
    metrics["trace.overhead_s"] = traced - untraced
    outcome.notes.update(untraced_solve_s=untraced, traced_solve_s=traced)
    check_self_times(tracer)
    return outcome, metrics, tracer


def direct_pass(
    tracer: Tracer,
    work: Workload,
    instance: MC3Instance,
    batches,
    config,
    outcome: Outcome,
    solver,
    counts: Dict[str, float],
) -> str:
    """Journal append + IncrementalPlanner.add_batch per request, with
    the daemon's own resilience policy; on p-stream each request's
    residual unit also gets the full layer pass first."""
    template = PlannerService(instance.cost, config=dataclasses.replace(config, journal_path=None))
    policy = template.policy_for(None)
    planner = IncrementalPlanner(
        instance.cost,
        solver_name=work.solver_name,
        solver_kwargs=dict(config.solver_kwargs),
        cache=config.cache,
    )
    path = config.journal_path + ".direct"
    with WorkloadJournal(path, fsync=False) as journal:
        for index, batch in enumerate(batches):
            if work.streamed:
                unit = residual_unit(instance.cost, batch, planner.built_classifiers, index)
                with tracer.span("solve"):
                    result = solver.solve(unit)
                with tracer.span("bench.check"):
                    outcome.attempted += 1
                    missing = checks.uncovered_queries(unit.queries, result.solution.classifiers)
                    if missing:
                        outcome.fail(1, f"batch {index}: {missing} queries uncovered")
                layer_pass(tracer, work, solver, unit, result.solution, counts)
                reference_solves(tracer, work, unit, outcome, result.cost)
                unit = result = None
            settle(work)
            with tracer.span("service.journal_append"):
                journal.append_batch(batch)
            with tracer.span("extensions.add_batch"):
                planner.add_batch(batch, solver_overrides={"resilience": policy})
    os.unlink(path)
    return planner.state_digest()


def layer_metrics(
    tracer: Tracer, work: Workload, counts: Dict[str, float], daemon: PassResult, requests: int
) -> Dict[str, float]:
    total = tracer.total
    prefix = [total(f"preprocess.prefix{k}") for k in range(1, len(ALL_STEPS) + 1)]
    solve = total("solve")
    noprep = total("solvers.noprep_solve")
    metrics: Dict[str, float] = {
        "datasets.generate_s": total("datasets.generate"),
        "preprocess.step1_s": prefix[0],
        "preprocess.step2_s": prefix[1] - prefix[0],
        "preprocess.step3_s": prefix[2] - prefix[1],
        "preprocess.step4_s": prefix[3] - prefix[2],
        "preprocess.total_s": prefix[3],
        "preprocess.residual_frac": counts["residual_queries"] / counts["queries"],
        "core.fingerprint_s": total("core.fingerprint"),
        "reductions.to_wsc_s": total("reductions.to_wsc"),
        "setcover.greedy_s": total("setcover.greedy"),
        "setcover.f_approx_s": total("setcover.f_approx"),
        "reductions.to_wvc_s": total("reductions.to_wvc"),
        "flow.wvc_s": total("flow.wvc"),
        "solvers.component_s": total("solvers.component"),
        "solvers.verify_s": total("solvers.verify"),
        "solvers.noprep_solve_s": noprep,
        "solvers.prep_speedup": noprep / solve,
        "engine.solve_s": solve,
        "engine.overhead_s": solve
        - prefix[3]
        - total("solvers.component")
        - total("solvers.verify"),
        "engine.jobs1_solve_s": total("engine.jobs1_solve") if work.jobs > 1 else solve,
    }
    for name in COUNTS:
        metrics[name] = counts[name]

    appends = tracer.durations("service.journal_append")
    adds = tracer.durations("extensions.add_batch")
    direct = [a + b for a, b in zip(appends, adds)]
    metrics["extensions.add_batch_ms.p50"] = median(adds) * 1000.0
    metrics["service.journal_append_ms.p50"] = median(appends) * 1000.0
    metrics["service.journal_bytes_per_request"] = counts["service.journal_bytes"] / requests
    metrics["service.overhead_ms.p50"] = (
        median(tracer.durations("service.request")) - median(direct)
    ) * 1000.0
    latency = daemon.after["requests"]["latency"]["queue_wait"]
    metrics["service.queue_wait_ms.p50"] = float(latency["p50_ms"])

    def cache_count(stats, key: str) -> int:
        return int((stats.get("cache") or {}).get(key, 0))

    hits = cache_count(daemon.after, "hits") - cache_count(daemon.before, "hits")
    misses = cache_count(daemon.after, "misses") - cache_count(daemon.before, "misses")
    metrics["engine.cache_hits"] = hits
    metrics["engine.cache_misses"] = misses
    metrics["engine.cache_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["trace.total_s"] = total("run")
    return metrics


def check_self_times(tracer: Tracer) -> None:
    """The self times of the sequential span tree must add up to the
    traced total; anything else is a bug in the recorder."""
    root = tracer.root()
    total = root["end"] - root["start"]
    summed = sum(tracer.self_times().values())
    if abs(summed - total) > 1e-6 * max(1.0, total):
        raise RuntimeError(f"span self times sum to {summed}, traced total is {total}")
