"""The shared component-solving engine.

Every MC³ solver pipeline has the same shape (the paper's Algorithms 2
and 3 both open with "Run preprocessing procedure" and close by
composing per-component answers):

1. **preprocess** — Algorithm 1 forces/removes classifiers and splits
   the residual load into property-disjoint components;
2. **schedule** — assign each component the solver's strategy or the
   strategy of the first matching :class:`~repro.engine.routing.Route`;
3. **dispatch** — solve components through the one executor,
   :func:`~repro.engine.resilience.run_components`, in process or across
   a process pool (``jobs``), Observation 3.2 guaranteeing independence;
4. **merge** — union the per-component selections in deterministic
   component order, so ``jobs=N`` output is bit-identical to ``jobs=1``;
5. **finalize** — combine with the forced classifiers and price against
   the original instance;
6. **telemetry** — per-stage timings, per-component solve times, and a
   component-size histogram under ``details["engine"]``.

Solvers plug in through a picklable component strategy (see
:mod:`repro.engine.strategies`) — or any object satisfying the narrow
:class:`~repro.engine.component.SolvesComponents` contract — plus an
optional ``aggregate_details(outcomes)`` hook for solver-specific
details (WSC arm wins, total flow value, …).  Verification stays where
it always was — :meth:`repro.solvers.base.Solver.solve` runs the
independent coverage checker on the engine's output.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.bitspace import component_fingerprint
from repro.core.instance import MC3Instance
from repro.core.kernels.registry import resolve_backend_name
from repro.core.solution import Solution
from repro.engine.cache import (
    CacheRunStats,
    SolutionCache,
    cache_token_of,
    decode_entry,
    encode_entry,
    resolve_cache,
)
from repro.engine.component import ComponentOutcome, SolvesComponents
from repro.engine.resilience import (
    PLAIN_POLICY,
    ComponentTask,
    PartialSolution,
    ResiliencePolicy,
    run_components,
)
from repro.engine.routing import Route
from repro.engine.telemetry import EngineTelemetry
from repro.preprocess import ALL_STEPS, preprocess


def _covers(queries, classifiers) -> bool:
    """Exact coverage check, sized for one component: every query must
    contain at least one selected classifier.  Semantically the check
    :func:`repro.core.coverage.verify_cover` performs, without building
    its per-query mutable-set machinery — this runs once per cache
    insert inside the < 3 % cold-path overhead budget
    (``BENCH_cache.json``)."""
    selected = list(classifiers)
    return all(any(clf <= q for clf in selected) for q in queries)


class SolveEngine:
    """Owns the preprocess → dispatch → merge → finalize pipeline.

    Parameters
    ----------
    preprocess_steps:
        Algorithm 1 steps to run; the empty tuple disables preprocessing
        (the Figure 3c/3e/3f ablations measure exactly this difference).
    jobs:
        Worker processes for per-component dispatch.  ``1`` solves
        in-process; higher values fan components out over a process
        pool.  Output is identical either way, only wall-clock differs.
    routes:
        Engine-level routing rules tried in order before the default
        component solver (see :func:`repro.engine.routing.exact_k2_route`).
    resilience:
        Optional :class:`~repro.engine.resilience.ResiliencePolicy`.
        ``None`` (the default) is
        :data:`~repro.engine.resilience.PLAIN_POLICY`: a failing
        component raises its original exception.  A policy activates
        per-component budgets, fallback chains, and the ``on_error``
        behavior — runs that degraded or skipped components return a
        :class:`~repro.engine.resilience.PartialSolution`.
    backend:
        Kernel-backend choice for the mask kernels (a
        :mod:`repro.core.kernels.registry` choice string: a backend
        name or ``"auto"``).  ``None`` (the default) uses the active
        registry default; per-route ``backend`` overrides win for their
        components.  Resolved once per run, so telemetry and worker
        tasks always carry a concrete name.
    cache:
        Component-solution cache spec (see :mod:`repro.engine.cache`):
        a choice string (``"off"``/``"memory"``/``"disk"``), a
        :class:`~repro.engine.cache.CacheConfig`, a live
        :class:`~repro.engine.cache.SolutionCache`, or ``None`` for the
        process default (``REPRO_SOLUTION_CACHE``).  Lookups happen
        after preprocessing and routing, keyed by the canonical
        :func:`~repro.core.bitspace.component_fingerprint`; only
        fully-verified, non-degraded outcomes are inserted, and runs
        with an active chaos injector bypass the cache entirely so
        injected faults always exercise the fallback machinery.
    """

    def __init__(
        self,
        preprocess_steps: Sequence[int] = ALL_STEPS,
        jobs: int = 1,
        routes: Sequence[Route] = (),
        resilience: Optional[ResiliencePolicy] = None,
        backend: Optional[str] = None,
        cache: Optional[object] = None,
    ):
        self.preprocess_steps = tuple(preprocess_steps)
        self.jobs = max(1, int(jobs))
        self.routes = tuple(routes)
        self.resilience = PLAIN_POLICY if resilience is None else resilience
        self.backend = backend
        self.cache = cache

    # ------------------------------------------------------------------

    def run(
        self, instance: MC3Instance, component_solver: SolvesComponents
    ) -> Tuple[Solution, Dict[str, object]]:
        """Execute the full pipeline; returns (solution, details)."""
        backend_name = resolve_backend_name(self.backend)
        cache = resolve_cache(self.cache)
        prep = preprocess(instance, steps=self.preprocess_steps)
        tasks, tokens = self._schedule(
            prep.components, component_solver, backend_name
        )

        mode = "process-pool" if self.jobs > 1 and len(tasks) >= 2 else "sequential"
        telemetry = EngineTelemetry(jobs=self.jobs, mode=mode, backend=backend_name)
        telemetry.preprocess_seconds = prep.report.elapsed_seconds

        # An active chaos injector bypasses the cache entirely: a hit
        # would skip the solve a planned fault was scheduled into, and
        # the injector's per-(rung, index, attempt) schedule must stay
        # exercised for the determinism tests to mean anything.
        chaos_active = self.resilience.chaos is not None
        cache_stats: Optional[CacheRunStats] = None
        hits: List[ComponentOutcome] = []
        pending = tasks
        fingerprints: Dict[int, str] = {}
        cached_components: Dict[int, MC3Instance] = {}
        if cache is not None and not chaos_active:
            cache_stats = CacheRunStats(cache.kind)
            hits, pending = self._cache_lookup(
                tasks, tokens, cache, cache_stats, fingerprints, cached_components
            )

        dispatch_started = time.perf_counter()
        solved, resilience_report = run_components(
            pending, jobs=self.jobs, policy=self.resilience
        )
        telemetry.resilience = resilience_report.as_dict()
        telemetry.solve_seconds = time.perf_counter() - dispatch_started

        if cache is not None and cache_stats is not None and fingerprints:
            self._cache_insert(
                cache,
                cache_stats,
                solved,
                fingerprints,
                cached_components,
                resilience_report,
            )

        outcomes = sorted(hits + list(solved), key=lambda outcome: outcome.index)
        if cache_stats is not None:
            telemetry.cache = cache_stats.as_dict(cache.stats())

        merge_started = time.perf_counter()
        selected = set()
        for outcome in outcomes:  # already in component index order
            # ComponentOutcome rows carry wall-clock telemetry next to
            # the classifiers; the classifier sets themselves come from
            # the deterministic kernels and set-union merging commutes.
            selected |= outcome.classifiers  # reprolint: sanitize
            bitspace = outcome.details.get("bitspace")
            gap = outcome.details.get("gap")
            telemetry.record_component(
                outcome.size,
                outcome.seconds,
                outcome.route,
                bitspace if isinstance(bitspace, dict) else None,
                rung=outcome.rung,
                backend=outcome.backend,
                gap=gap if isinstance(gap, dict) else None,
            )
        solution = prep.finalize(selected)
        if not resilience_report.clean:
            solution = PartialSolution(
                solution.classifiers,
                solution.cost,
                failures=resilience_report.failures,
                uncovered_queries=resilience_report.uncovered_queries,
                degraded_components=sorted(resilience_report.degraded),
                skipped_components=sorted(resilience_report.skipped),
            )
        telemetry.merge_seconds = time.perf_counter() - merge_started

        details: Dict[str, object] = {
            "preprocess": prep.report.as_dict(),
            "components": len(prep.components),
        }
        details.update(self._aggregate(component_solver, outcomes))
        details["engine"] = telemetry.as_dict()
        return solution, details

    # ------------------------------------------------------------------

    def _schedule(
        self,
        components: Iterable[MC3Instance],
        component_solver: SolvesComponents,
        backend_name: str,
    ) -> Tuple[List[ComponentTask], List[Optional[Tuple[object, ...]]]]:
        """Assign each component the strategy of the first matching
        route, else the solver's own; returns the tasks and each task's
        cache token (``None``: uncacheable).  Every task carries its
        resolved kernel backend (the route's override when present,
        else the engine's)."""
        strategy = getattr(component_solver, "strategy", None)
        primary = component_solver if strategy is None else strategy()
        primary_token = cache_token_of(component_solver)
        tasks: List[ComponentTask] = []
        tokens: List[Optional[Tuple[object, ...]]] = []
        for index, component in enumerate(components):
            task = (index, primary, component, None, backend_name)
            token = primary_token
            for route in self.routes:
                if route.matches(component):
                    task_backend = backend_name
                    if route.backend is not None:
                        task_backend = resolve_backend_name(route.backend)
                    task = (index, route.strategy, component, route.name, task_backend)
                    token = route.cache_token
                    break
            tasks.append(task)
            tokens.append(token)
        return tasks, tokens

    # ------------------------------------------------------------------
    # Content-addressed component-solution cache (see repro.engine.cache)
    # ------------------------------------------------------------------

    def _cache_lookup(
        self,
        tasks: List[ComponentTask],
        tokens: List[Optional[Tuple[object, ...]]],
        cache: SolutionCache,
        stats: CacheRunStats,
        fingerprints: Dict[int, str],
        cached_components: Dict[int, MC3Instance],
    ) -> Tuple[List[ComponentOutcome], List[ComponentTask]]:
        """Split tasks into cache-hit outcomes and still-pending tasks.

        A task is cacheable only when it has a cache token (every
        in-repo solver and route does; custom ``SolvesComponents``
        objects do not and are never cached).  The fingerprint pins the
        *primary* rung slot: a hit stands in for the primary strategy's
        clean answer, so it carries that strategy's rung name exactly as
        an uncached clean run would.
        """
        hit_outcomes: List[ComponentOutcome] = []
        pending: List[ComponentTask] = []
        for task, token in zip(tasks, tokens):
            index, target, component, route_name, task_backend = task
            if token is None:
                stats.uncacheable += 1
                pending.append(task)
                continue
            started = time.perf_counter()
            fingerprint = component_fingerprint(
                component,
                solver_token=token,
                route=route_name,
                backend=task_backend,
            )
            blob = cache.get(fingerprint)
            decoded = decode_entry(blob, fingerprint) if blob is not None else None
            if blob is not None and decoded is None:
                # The stored bytes are corrupt (damaged file, foreign
                # entry version): evict them so the store stops
                # re-reading and re-failing the same entry — and stops
                # charging it against the byte budget — on every lookup.
                invalidate = getattr(cache, "invalidate", None)
                if invalidate is not None:
                    invalidate(fingerprint)
            elapsed = time.perf_counter() - started
            stats.lookup_seconds += elapsed
            if decoded is None:
                stats.misses += 1
                fingerprints[index] = fingerprint
                cached_components[index] = component
                pending.append(task)
                continue
            stats.hits += 1
            classifiers, details = decoded
            # The gap probe's result is fixed by the token, but whether
            # a run probes is not part of it: only a probing strategy
            # reports a stored probe.
            if not getattr(target, "gap_probe", False):
                details.pop("gap", None)
            hit_outcomes.append(
                ComponentOutcome(
                    index,
                    classifiers,
                    details,
                    elapsed,
                    component.n,
                    route_name,
                    rung=target.name,
                    backend=task_backend,
                )
            )
        return hit_outcomes, pending

    def _cache_insert(
        self,
        cache: SolutionCache,
        stats: CacheRunStats,
        solved: List[ComponentOutcome],
        fingerprints: Dict[int, str],
        cached_components: Dict[int, MC3Instance],
        resilience_report,
    ) -> None:
        """Insert fully-verified, non-degraded outcomes only.

        Components with any recorded failure, degraded/skipped status,
        or retried attempts are never inserted — a cached entry must be
        indistinguishable from a clean first-attempt primary solve.
        Every candidate is re-checked for exact coverage before it is
        written, and outcomes whose details do not serialize are
        skipped rather than cached lossily.
        """
        failed = {f.index for f in resilience_report.failures}
        failed.update(resilience_report.degraded)
        failed.update(resilience_report.skipped)
        for outcome in solved:
            fingerprint = fingerprints.get(outcome.index)
            if fingerprint is None or outcome.index in failed:
                continue
            if outcome.attempts > 1:
                continue
            started = time.perf_counter()
            component = cached_components[outcome.index]
            if not _covers(component.queries, outcome.classifiers):
                stats.insert_skips += 1
                stats.insert_seconds += time.perf_counter() - started
                continue
            blob = encode_entry(fingerprint, outcome.classifiers, outcome.details)
            if blob is not None and cache.put(fingerprint, blob):
                stats.inserts += 1
            else:
                stats.insert_skips += 1
            stats.insert_seconds += time.perf_counter() - started

    @staticmethod
    def _aggregate(
        component_solver: SolvesComponents, outcomes: List[ComponentOutcome]
    ) -> Dict[str, object]:
        aggregate = getattr(component_solver, "aggregate_details", None)
        if aggregate is None:
            return {}
        return aggregate(outcomes)
