"""Exact MC³ solver (test oracle and small-instance tool).

Preprocessing (optimality-preserving) → per-component reduction to WSC →
exact branch-and-bound.  Exponential worst case — the general problem is
NP-hard (Theorem 5.1) — so a node limit guards against runaway searches.
The preprocess/dispatch/merge pipeline is the shared engine's; only the
per-component exact WSC solve lives here.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.instance import MC3Instance
from repro.engine.resilience import ResiliencePolicy
from repro.engine.strategies import WSCStrategy
from repro.exceptions import SolverError
from repro.preprocess import ALL_STEPS
from repro.setcover import (
    DEFAULT_NODE_LIMIT,
    WSCInstance,
    WSCSolution,
    exact_wsc,
    exact_wsc_lp,
)
from repro.solvers.base import ComponentSolver


class ExactWSC(WSCStrategy):
    """Exact WSC branch-and-bound on one component: the combinatorial
    search (bounded by ``node_limit``) or the LP-bounded one."""

    def __init__(self, engine: str, node_limit: int, name: str):
        super().__init__(name)
        self.engine = engine
        self.node_limit = node_limit

    def params(self) -> Tuple[object, ...]:
        # ``node_limit`` matters: a search that hits the limit raises,
        # so a cached entry proves the limit was generous enough — but a
        # *smaller* limit must not be served a bigger limit's answer, or
        # the limit stops being reproducible.
        return (self.engine, self.node_limit)

    def cover(
        self, wsc: WSCInstance, component: MC3Instance
    ) -> Tuple[WSCSolution, Dict[str, object]]:
        if self.engine == "lp":
            return exact_wsc_lp(wsc), {}
        return exact_wsc(wsc, node_limit=self.node_limit), {}


class ExactSolver(ComponentSolver):
    """Optimal MC³ solutions via exact WSC branch-and-bound.

    ``engine="combinatorial"`` (default) uses the pure-Python search;
    ``engine="lp"`` uses the LP-bounded search, which proves optimality
    far faster on near-integral instances (hundreds of sets).  (The
    ``engine`` knob predates, and is unrelated to, the shared solving
    engine — it names the branch-and-bound variant.)
    """

    name = "exact"

    def __init__(
        self,
        preprocess_steps: Sequence[int] = ALL_STEPS,
        node_limit: int = DEFAULT_NODE_LIMIT,
        engine: str = "combinatorial",
        jobs: int = 1,
        verify: bool = True,
        resilience: Optional[ResiliencePolicy] = None,
        backend: Optional[str] = None,
        cache: Optional[object] = None,
    ):
        super().__init__(
            preprocess_steps=preprocess_steps,
            jobs=jobs,
            verify=verify,
            resilience=resilience,
            backend=backend,
            cache=cache,
        )
        if engine not in ("combinatorial", "lp"):
            raise SolverError(f"unknown exact engine {engine!r}")
        self.node_limit = node_limit
        self.engine = engine

    def strategy(self) -> ExactWSC:
        return ExactWSC(self.engine, self.node_limit, name=self.name)
