"""The benchmark's four workloads and their untraced measurement loops.

Every input is made from the ``--seed`` argument; the program only ever
sees the generated instance.  Kernel backend, solution cache and
``jobs`` are pinned here, never read from ``REPRO_*`` variables.

* ``s-general`` — S queries (n=2000, lengths ≤ 10), ``mc3-general``.
* ``s-k2`` — S queries of length 2 (n=100k), ``mc3-k2``.
* ``p-10k`` — P stand-in (n=10k), ``mc3-general`` with ``jobs=2``.
* ``p-stream`` — the P queries in seeded batches of 50 sent to an
  in-process planner daemon by two closed-loop clients.

On the S workloads the seed draws the classifier prices and the query
log is the generator's seed-0 draw.  The S recipe draws its property
pool size per seed (t ~ U[2, sqrt(n)]), which moves cost by up to 1.7x
and solve time by up to 2x from one seed to the next; holding the query
draw keeps runs of different seeds comparable.  At seed 0 both S inputs
are exactly ``synthetic(n, seed=0)`` and ``synthetic_k2(n, seed=0)``.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import HashCost, MC3Instance, make_solver
from repro.datasets import private_like, synthetic_query_stream
from repro.datasets.synthetic import COST_HIGH, COST_LOW
from repro.service.daemon import PlannerClient, PlannerService, ServiceConfig
from repro.service.protocol import PlannerServiceError

import checks
import hostspeed

BACKEND = "pyjit"
MIN_OPS = 3
SETUP_SAMPLE_S = 0.2
CLIENTS = 2

#: Input sizes: the paper-scale run and the self-test's tiny pass.
FULL = {"s": 2000, "k2": 100_000, "p": 10_000, "batch": 50}
TINY = {"s": 150, "k2": 3000, "p": 600, "batch": 50}


def now() -> float:
    return time.perf_counter()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Workload:
    name: str
    solver_name: str
    jobs: int
    generate: Callable[[int], MC3Instance]
    batch: Optional[int] = None  # p-stream only: queries per request
    #: The solver is exact, so the solve without preprocessing must
    #: reach the same cost (Theorem 4.1, Obs. 3.1-3.4).
    exact: bool = False

    def solver(self, **overrides):
        kwargs = {"jobs": self.jobs, "cache": "off", "backend": BACKEND}
        kwargs.update(overrides)
        return make_solver(self.solver_name, **kwargs)

    @property
    def streamed(self) -> bool:
        return self.batch is not None


def s_instance(n: int, max_length: int, seed: int) -> MC3Instance:
    return MC3Instance(
        synthetic_query_stream(n, seed=0, max_length=max_length),
        HashCost(COST_LOW, COST_HIGH, seed=seed),
        name=f"S(n={n},maxlen={max_length},cost-seed={seed})",
    )


def workloads(sizes: Dict[str, int] = FULL) -> Dict[str, Workload]:
    return {
        "s-general": Workload(
            "s-general", "mc3-general", 1, lambda seed: s_instance(sizes["s"], 10, seed)
        ),
        "s-k2": Workload(
            "s-k2", "mc3-k2", 1, lambda seed: s_instance(sizes["k2"], 2, seed), exact=True
        ),
        "p-10k": Workload(
            "p-10k", "mc3-general", 2, lambda seed: private_like(n=sizes["p"], seed=seed)
        ),
        "p-stream": Workload(
            "p-stream",
            "mc3-general",
            1,
            lambda seed: private_like(n=sizes["p"], seed=seed),
            batch=sizes["batch"],
        ),
    }


def stream_batches(instance: MC3Instance, seed: int, size: int) -> List[List[frozenset]]:
    """The instance's queries in a seeded order, cut into requests."""
    queries = sorted(instance.queries, key=sorted)
    random.Random(f"p-stream-{seed}").shuffle(queries)
    return [queries[i : i + size] for i in range(0, len(queries), size)]


# ----------------------------------------------------------------------
# Operation records and the correctness gate
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one run observed; turned into the result line by run.py."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)  # first digest per kind
    costs: List[float] = field(default_factory=list)
    # Times, scaled to the reference host speed (hostspeed.py) if `scaled`.
    setup: List[float] = field(default_factory=list)
    solve: List[float] = field(default_factory=list)  # one per planning pass
    requests: List[float] = field(default_factory=list)  # one per request
    pass_p95: List[float] = field(default_factory=list)  # p-stream: one per pass
    # Planning-pass times as measured, and every host-speed probe time.
    measured: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)
    #: The probe is one interpreter on one core; a solve with jobs > 1
    #: also runs on the other, so its times are reported as measured.
    scaled: bool = True

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.problems.append(reason)

    def probe(self) -> float:
        if not self.scaled:
            return hostspeed.REFERENCE_S
        seconds = hostspeed.probe()
        self.probes.append(seconds)
        return seconds


def gate(
    outcome: Outcome,
    expected: Optional[Dict[str, object]],
    queries,
    classifiers,
    cost: float,
    digest: str,
    price,
    weight: int = 1,
    kind: str = "solution",
) -> None:
    """Independent coverage + pricing check, then digest agreement with
    earlier repeats and with the digest recorded for this seed.

    ``kind`` names the digest: ``solution`` for a classifier set,
    ``state`` for the planner daemon's ``state_digest``."""
    missing = checks.uncovered_queries(queries, classifiers)
    if missing:
        outcome.fail(weight, f"{missing} queries uncovered")
    elif not checks.same_cost(checks.priced(price, classifiers), cost):
        outcome.fail(weight, f"reported cost {cost} does not match the classifiers' prices")
    elif digest != outcome.digests.setdefault(kind, digest):
        outcome.fail(weight, f"digest {digest} differs from the run's first {outcome.digests[kind]}")
    elif expected is not None and (
        digest != expected["digest"] or not checks.same_cost(cost, expected["cost"])
    ):
        outcome.fail(
            weight,
            f"cost/digest {cost}/{digest} differ from recorded "
            f"{expected['cost']}/{expected['digest']}",
        )
    outcome.costs.append(cost)


def gate_solution(outcome: Outcome, expected, instance: MC3Instance, classifiers, cost: float) -> None:
    """:func:`gate` for one classifier set answering ``instance``."""
    gate(
        outcome,
        expected,
        instance.queries,
        classifiers,
        cost,
        checks.solution_digest(classifiers),
        instance.weight,
    )


def budget_left(started: float, seconds: float, ops: int, last: float) -> bool:
    """Run another operation while at least MIN_OPS are missing or the
    next one (as long as the last) still ends inside the budget."""
    return ops < MIN_OPS or (now() - started) + last <= seconds


# ----------------------------------------------------------------------
# One-shot workloads: solve() calls on freshly generated inputs
# ----------------------------------------------------------------------


def run_oneshot(
    work: Workload,
    seed: int,
    seconds: float,
    expected: Optional[Dict[str, object]],
    tamper: Optional[Callable[[frozenset], frozenset]] = None,
) -> Outcome:
    outcome = Outcome(scaled=work.jobs == 1)
    started = now()
    last = 0.0
    ops = 0
    instance = None
    before = outcome.probe()
    while budget_left(started, seconds, ops, last):
        ops += 1
        instance = None
        gc.collect()
        op_started = now()
        instance, solver, before = timed_setup(work, seed, outcome, before)
        outcome.attempted += 1
        solve_started = now()
        try:
            result = solver.solve(instance)
        except Exception as exc:  # a failed solve is a measured outcome
            outcome.fail(1, f"solve raised {type(exc).__name__}: {exc}")
            before = outcome.probe()
            last = now() - op_started
            continue
        elapsed = now() - solve_started
        after = outcome.probe()
        scaled = elapsed * hostspeed.scale(before, after)
        before = after
        outcome.measured.append(elapsed)
        outcome.solve.append(scaled)
        outcome.requests.append(scaled)
        classifiers = result.solution.classifiers
        if tamper is not None:
            classifiers = tamper(classifiers)
        gate_solution(outcome, expected, instance, classifiers, result.cost)
        last = now() - op_started
    if work.exact and instance is not None:
        exact_reference(work, instance, outcome)
    return outcome


def timed_setup(work: Workload, seed: int, outcome: Outcome, before: float):
    """Generate the input and build the solver, recording each set-up
    as a sample; repeated up to SETUP_SAMPLE_S so that millisecond
    set-ups still get a steady median.  ``before`` is the probe time
    taken before; returns (instance, solver, probe time after)."""
    samples: List[float] = []
    while sum(samples) < SETUP_SAMPLE_S:
        instance = None
        started = now()
        instance = work.generate(seed)
        solver = work.solver()
        samples.append(now() - started)
    gc.collect()
    after = outcome.probe()
    factor = hostspeed.scale(before, after)
    outcome.setup.extend(sample * factor for sample in samples)
    return instance, solver, after


def exact_reference(work: Workload, instance: MC3Instance, outcome: Outcome) -> None:
    """The solve without preprocessing must cost what the run's
    preprocessed solves cost."""
    outcome.attempted += 1
    reference = work.solver(preprocess_steps=()).solve(instance)
    if outcome.costs and not checks.same_cost(reference.cost, outcome.costs[0]):
        outcome.fail(
            1, f"no-preprocessing cost {reference.cost} != preprocessed {outcome.costs[0]}"
        )
    outcome.notes["noprep_cost"] = reference.cost


# ----------------------------------------------------------------------
# p-stream: closed-loop clients against an in-process planner daemon
# ----------------------------------------------------------------------


def stream_config(work: Workload, journal_path: str) -> ServiceConfig:
    """The daemon as deployed: default memory cache, journal on with
    fsync off, no deadlines, ``jobs`` at its default of 1; only the
    kernel backend is pinned.  A one-shot workload sent as one request
    keeps its cache off, so the request is solved, not looked up."""
    return ServiceConfig(
        solver_name=work.solver_name,
        solver_kwargs={"backend": BACKEND},
        cache="memory" if work.streamed else "off",
        journal_path=journal_path,
        journal_fsync=False,
    )


@dataclass
class PassResult:
    setup: float
    makespan: float
    sent_done: List[Tuple[float, float]]  # per request, by batch index
    replies: List[Optional[Dict[str, object]]]
    errors: List[str]
    before: Dict[str, object]  # ``stats`` replies around the pass
    after: Dict[str, object]

    @property
    def latencies(self) -> List[float]:
        return [done - sent for sent, done in self.sent_done]


def service_pass(
    cost,
    batches: List[List[frozenset]],
    config: ServiceConfig,
    clients: int,
) -> PassResult:
    """Start a daemon, drive every batch through PlannerClient with
    ``clients`` closed-loop clients, read ``stats``, stop the daemon."""
    if os.path.exists(config.journal_path):
        os.unlink(config.journal_path)

    async def main() -> PassResult:
        started = now()
        service = PlannerService(cost, config=config)
        await service.start()
        setup = now() - started
        sent_done: List[Tuple[float, float]] = [(0.0, 0.0)] * len(batches)
        replies: List[Optional[Dict[str, object]]] = [None] * len(batches)
        errors: List[str] = []
        try:
            stats_client = PlannerClient(service)
            before = await stats_client.stats()

            async def client(first: int) -> None:
                handle = PlannerClient(service)
                for index in range(first, len(batches), clients):
                    sent = now()
                    try:
                        replies[index] = await handle.plan(
                            [sorted(q) for q in batches[index]]
                        )
                    except PlannerServiceError as exc:
                        errors.append(f"request {index}: {exc}")
                    sent_done[index] = (sent, now())

            pass_started = now()
            await asyncio.gather(*(client(c) for c in range(clients)))
            makespan = now() - pass_started
            after = await stats_client.stats()
        finally:
            await service.stop()
        return PassResult(setup, makespan, sent_done, replies, errors, before, after)

    return asyncio.run(main())


def check_pass(
    outcome: Outcome,
    expected: Optional[Dict[str, object]],
    instance: MC3Instance,
    result: PassResult,
    tamper: Optional[Callable[[frozenset], frozenset]] = None,
) -> None:
    """Gate one pass: every reply clean, the union of the replies'
    classifiers covers every query, the planner's total cost prices
    that union, and its state digest repeats.  A one-shot workload's
    single request must return exactly the classifiers ``solve()`` does,
    so there the union's solution digest is gated instead."""
    requests = len(result.replies)
    outcome.attempted += requests
    for error in result.errors:
        outcome.fail(1, error)
    built = set()
    for reply in result.replies:
        if reply is None:
            continue
        if reply.get("degraded") or reply.get("uncovered_queries"):
            outcome.fail(1, f"request {reply.get('batch_index')} degraded")
        built.update(frozenset(clf) for clf in reply["new_classifiers"])
    if result.errors:
        return
    workload_state = result.after["workload"]
    classifiers = frozenset(built)
    if tamper is not None:
        classifiers = tamper(classifiers)
    if requests == 1:
        kind, digest = "solution", checks.solution_digest(classifiers)
    else:
        kind, digest = "state", str(workload_state["state_digest"])
    # A wrong final plan makes every reply of the pass suspect.
    gate(
        outcome,
        expected,
        instance.queries,
        classifiers,
        float(workload_state["total_cost"]),
        digest,
        instance.weight,
        weight=requests,
        kind=kind,
    )


def run_stream(
    work: Workload,
    seed: int,
    seconds: float,
    expected: Optional[Dict[str, object]],
    workdir: str,
    tamper: Optional[Callable[[frozenset], frozenset]] = None,
) -> Outcome:
    outcome = Outcome()
    journal = os.path.join(workdir, f"{work.name}.journal")

    def one_pass() -> Tuple[PassResult, float]:
        """One pass, and the factor that scales its times."""
        gc.collect()
        before = outcome.probe()
        started = now()
        instance = work.generate(seed)
        batches = stream_batches(instance, seed, work.batch)
        generated = now() - started
        result = service_pass(instance.cost, batches, stream_config(work, journal), CLIENTS)
        factor = hostspeed.scale(before, outcome.probe())
        outcome.setup.append((generated + result.setup) * factor)
        check_pass(outcome, expected, instance, result, tamper)
        return result, factor

    # The first pass fills the daemon's content-addressed cache; the
    # measured passes run against the warm cache, as a long-lived
    # daemon does.
    warm, _ = one_pass()
    outcome.notes["warmup_pass_s"] = warm.makespan
    started = now()
    last = 0.0
    while budget_left(started, seconds, len(outcome.solve), last):
        op_started = now()
        result, factor = one_pass()
        latencies = [latency * factor for latency in result.latencies]
        outcome.measured.append(result.makespan)
        outcome.solve.append(result.makespan * factor)
        outcome.requests.extend(latencies)
        outcome.pass_p95.append(percentile(latencies, 0.95))
        last = now() - op_started
    os.unlink(journal)
    return outcome
