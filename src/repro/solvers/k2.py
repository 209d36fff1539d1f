"""Algorithm 2: the exact polynomial solver for k ≤ 2.

Pipeline per the paper: preprocessing (Algorithm 1) → reduction to
bipartite Weighted Vertex Cover (Theorem 4.1) → reduction to Max-Flow
(Theorem 2.3) → a max-flow kernel (Dinic by default, the paper's choice)
→ translation back to classifiers.

The solution is *optimal*: preprocessing preserves an optimal solution
and the two reductions are exact.  The pipeline itself (preprocess →
per-component dispatch → merge) is owned by the shared engine; this
module names the configuration of the per-component algorithm,
:class:`repro.engine.strategies.K2Exact`, which the engine also routes
short components to from approximate solvers (``dispatch_k2``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.instance import MC3Instance
from repro.engine.component import ComponentOutcome
from repro.engine.resilience import ResiliencePolicy
from repro.engine.strategies import K2Exact
from repro.exceptions import ReductionError
from repro.preprocess import ALL_STEPS
from repro.solvers.base import ComponentSolver


class K2Solver(ComponentSolver):
    """Exact MC³ solver for instances with maximal query length ≤ 2.

    Parameters
    ----------
    flow_algorithm:
        Max-flow kernel name (see :data:`repro.flow.ALGORITHMS`).
    preprocess_steps:
        Which Algorithm 1 steps to run first; the empty tuple disables
        preprocessing entirely (used by the Figure 3c ablation) — the
        result is still optimal, just slower.
    jobs:
        Worker processes for solving components in parallel (the
        decomposition of Algorithm 1 step 2 makes them independent).
    """

    name = "mc3-k2"

    def __init__(
        self,
        flow_algorithm: str = "dinic",
        preprocess_steps: Sequence[int] = ALL_STEPS,
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
        self.flow_algorithm = flow_algorithm

    def strategy(self) -> K2Exact:
        return K2Exact(self.flow_algorithm, name=self.name)

    def validate_instance(self, instance: MC3Instance) -> None:
        if instance.max_query_length > 2:
            raise ReductionError(
                f"K2Solver requires k <= 2, instance has k = {instance.max_query_length}"
            )

    def aggregate_details(
        self, outcomes: List[ComponentOutcome]
    ) -> Dict[str, object]:
        return {
            "flow_algorithm": self.flow_algorithm,
            "flow_value": sum(
                float(outcome.details.get("flow_value", 0.0)) for outcome in outcomes
            ),
        }
