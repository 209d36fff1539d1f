"""Named component strategies: each per-component algorithm, wired in once.

A *strategy* is a small picklable object with a ``name``, a flat tuple
of output-affecting ``params()``, and ``solve_component(component)``.
It is the only thing the engine ships to a pool worker, so a solver's
resilience policy, breaker board and cache never cross a process
boundary.  Every configuration of an algorithm is an instance of one
class here:

* a solver's primary strategy is named after the solver (``GeneralSolver``
  runs ``ApproxWSC(..., name="mc3-general")``);
* an engine route's strategy is named after the route
  (:func:`~repro.engine.routing.exact_k2_route` runs
  ``K2Exact(flow_algorithm, name="exact-k2")``);
* the fallback rungs are the entries of :data:`STRATEGIES`.

A strategy's cache token is ``(name, *params())``, which reproduces
every solver's token, and routes prefix it with ``"route"``.

Every strategy that reduces to Weighted Set Cover (Section 5.2) derives
from :class:`WSCStrategy`, which owns the reduce → cover → map-back
step and the ``bitspace`` details, and overrides only ``cover``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.bitspace import PropertySpace
from repro.core.costs import OverlayCost
from repro.core.instance import MC3Instance
from repro.core.mincover import min_cover_from_model
from repro.core.properties import Classifier, Query
from repro.engine.component import SolvesComponents
from repro.exceptions import SolverError, UncoverableQueryError
from repro.reductions import mc3_to_bipartite_wvc, mc3_to_wsc, solve_bipartite_wvc
from repro.setcover import (
    DEFAULT_EXACT_THRESHOLD,
    DEFAULT_SAMPLE_RATES,
    DEFAULT_SIZE_LIMIT,
    WSCInstance,
    WSCSolution,
    best_of_wsc,
    bucket_greedy_wsc,
    derive_seed,
    exact_wsc,
    f_approx_wsc,
    greedy_wsc,
    primal_dual_wsc,
    sampled_greedy_wsc,
)

ComponentAnswer = Tuple[Set[Classifier], Dict[str, object]]

#: Components with at most this many WSC elements run the sampled
#: strategy's gap probe (greedy costs O(elements·sets) there).
GAP_PROBE_MAX_ELEMENTS = 2000

#: Exact-optimum probe bound: branch-and-bound is exponential in the
#: number of sets, so only tiny set systems compare against OPT.
GAP_PROBE_MAX_EXACT_SETS = 16


class ComponentStrategy:
    """One named configuration of a per-component algorithm."""

    def __init__(self, name: str):
        self.name = name

    def params(self) -> Tuple[object, ...]:
        """Every output-affecting parameter, as a flat tuple of scalars."""
        return ()

    def cache_token(self) -> Tuple[object, ...]:
        return (self.name, *self.params())

    def solve_component(self, component: MC3Instance) -> ComponentAnswer:
        raise NotImplementedError


class WSCStrategy(ComponentStrategy):
    """Reduce a component to WSC, ``cover`` it, map set ids back."""

    def cover(
        self, wsc: WSCInstance, component: MC3Instance
    ) -> Tuple[WSCSolution, Dict[str, object]]:
        raise NotImplementedError

    def solve_component(self, component: MC3Instance) -> ComponentAnswer:
        # One interning per component, shared by the reduction and every
        # cover pass: masks stay as narrow as the component's properties.
        space = PropertySpace.from_queries(component.queries)
        wsc = mc3_to_wsc(component, space=space)
        wsc_solution, details = self.cover(wsc, component)
        details["bitspace"] = {
            "properties": space.size,
            "elements": wsc.universe_size,
            "sets": wsc.num_sets,
        }
        return {wsc.set_label(set_id) for set_id in wsc_solution.set_ids}, details


class ApproxWSC(WSCStrategy):
    """Algorithm 3 lines 3–5: greedy and an f-approximation, keep the cheaper.

    ``method="best_of"`` runs both; ``"greedy"``, ``"bucket_greedy"``,
    ``"lp"`` and ``"primal_dual"`` run one arm alone.  The
    f-approximation is LP rounding while the constraint matrix has at
    most ``lp_size_limit`` nonzeros (``None``: no cap), primal–dual
    beyond.  ``prune`` applies the redundancy post-pass to it.
    """

    def __init__(
        self,
        method: str,
        lp_size_limit: Optional[int] = DEFAULT_SIZE_LIMIT,
        prune: bool = False,
        *,
        name: str,
    ):
        super().__init__(name)
        self.method = method
        self.lp_size_limit = lp_size_limit
        self.prune = prune

    def params(self) -> Tuple[object, ...]:
        return (self.method, self.lp_size_limit, self.prune)

    def cover(
        self, wsc: WSCInstance, component: MC3Instance
    ) -> Tuple[WSCSolution, Dict[str, object]]:
        winner: Optional[str] = None
        f_mode: Optional[str] = None
        if self.method == "greedy":
            wsc_solution = greedy_wsc(wsc)
        elif self.method == "bucket_greedy":
            wsc_solution = bucket_greedy_wsc(wsc)
        elif self.method == "lp":
            wsc_solution, f_mode = f_approx_wsc(wsc, self.lp_size_limit, self.prune)
        elif self.method == "primal_dual":
            wsc_solution = primal_dual_wsc(wsc, prune=self.prune)
            f_mode = "primal_dual"
        else:  # "best_of"
            wsc_solution, winner, f_mode = best_of_wsc(
                wsc, self.lp_size_limit, self.prune
            )
        return wsc_solution, {"winner": winner, "f_mode": f_mode}


class SampledWSC(WSCStrategy):
    """The sub-linear sampled greedy of Indyk et al. on one component.

    The component's seed is ``derive_seed(seed, queries)``, a content
    digest, so answers are bit-identical across ``jobs``, scheduling
    order and ``PYTHONHASHSEED``.  ``gap_probe`` also measures the
    sampled answer against exact greedy (and branch-and-bound OPT on
    tiny set systems) on small components.  The probe only adds
    telemetry, so it is not a parameter of the cache token.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Sequence[float] = DEFAULT_SAMPLE_RATES,
        exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
        gap_probe: bool = False,
        name: str = "sampled",
    ):
        super().__init__(name)
        self.seed = int(seed)
        self.rates = tuple(rates)
        self.exact_threshold = int(exact_threshold)
        self.gap_probe = gap_probe

    def params(self) -> Tuple[object, ...]:
        return (self.seed, *self.rates, self.exact_threshold)

    def cover(
        self, wsc: WSCInstance, component: MC3Instance
    ) -> Tuple[WSCSolution, Dict[str, object]]:
        component_seed = derive_seed(self.seed, component.queries)
        stats: Dict[str, object] = {}
        wsc_solution = sampled_greedy_wsc(
            wsc,
            seed=component_seed,
            rates=self.rates,
            exact_threshold=self.exact_threshold,
            stats=stats,
        )
        details: Dict[str, object] = {"sampled": stats}
        if self.gap_probe and wsc.universe_size <= GAP_PROBE_MAX_ELEMENTS:
            details["gap"] = self._probe_gap(wsc, component_seed)
        return wsc_solution, details

    def _probe_gap(self, wsc: WSCInstance, component_seed: int) -> Dict[str, float]:
        """Force the sampling path (``exact_threshold=0``) so the probe
        measures the estimator rather than the fallback."""
        forced = sampled_greedy_wsc(
            wsc, seed=component_seed, rates=self.rates, exact_threshold=0
        )
        reference = greedy_wsc(wsc)
        probe: Dict[str, float] = {
            "sampled_cost": forced.cost,
            "greedy_cost": reference.cost,
            "ratio_vs_greedy": forced.cost / reference.cost if reference.cost else 1.0,
        }
        if wsc.num_sets <= GAP_PROBE_MAX_EXACT_SETS:
            optimum = exact_wsc(wsc)
            probe["exact_cost"] = optimum.cost
            probe["ratio_vs_exact"] = (
                forced.cost / optimum.cost if optimum.cost else 1.0
            )
        return probe


def solve_component_k2(
    component: MC3Instance, flow_algorithm: str = "dinic"
) -> ComponentAnswer:
    """Solve one property-disjoint component with k ≤ 2 exactly.

    The Theorem 4.1 chain: bipartite Weighted Vertex Cover → max-flow →
    translation back to classifiers.  Singleton queries may be present
    when preprocessing step 1 was disabled; their classifiers are forced
    here so the WVC reduction receives only length-2 queries, keeping
    the no-preprocessing mode correct.  On longer queries the reduction
    raises :class:`~repro.exceptions.ReductionError`.
    """
    forced: Set[Classifier] = set()
    length_two: List[Query] = []
    for q in component.queries:
        if len(q) == 1:
            if not math.isfinite(component.weight(q)):
                raise UncoverableQueryError(q)
            forced.add(q)
        else:
            length_two.append(q)
    if not length_two:
        return forced, {"flow_value": 0.0}
    cost = component.cost
    if forced:
        # Forced singletons are already paid for; the WVC must see them
        # as free or it may buy a pair classifier redundantly.
        overlay = OverlayCost(cost)
        # RPL101 suppressed below: overlay.select is commutative — zeroing
        # weights in any order yields the same overlay.
        for clf in forced:  # reprolint: ignore[RPL101]
            overlay.select(clf)
        cost = overlay
    graph = mc3_to_bipartite_wvc(length_two, cost)
    cover, flow_value = solve_bipartite_wvc(graph, algorithm=flow_algorithm)
    return forced | cover, {"flow_value": flow_value}


class K2Exact(ComponentStrategy):
    """Algorithm 2 on one component: exact, for queries of length ≤ 2."""

    def __init__(self, flow_algorithm: str = "dinic", name: str = "k2-exact"):
        super().__init__(name)
        self.flow_algorithm = flow_algorithm

    def params(self) -> Tuple[object, ...]:
        return (self.flow_algorithm,)

    def solve_component(self, component: MC3Instance) -> ComponentAnswer:
        return solve_component_k2(component, flow_algorithm=self.flow_algorithm)


class QueryOriented(ComponentStrategy):
    """Cover every query independently — always feasible, never optimal.

    The rung of last resort and the ``degrade`` target: each query gets
    its own minimum-cost cover (the full-query classifier when it is the
    cheapest, per the paper's query-oriented baseline; a cheapest
    combination otherwise, since residual components often price the
    full-query classifier at infinity).
    """

    def solve_component(self, component: MC3Instance) -> ComponentAnswer:
        selected: Set[Classifier] = set()
        for q in component.queries:
            cover = min_cover_from_model(q, component)
            if cover is None:
                raise UncoverableQueryError(q)
            selected.update(cover.classifiers)
        return selected, {}


#: The named component strategies a fallback chain (``--fallback``) can
#: declare.  Strategies are stateless, so the entries are shared.
STRATEGIES: Dict[str, ComponentStrategy] = {
    "greedy": ApproxWSC("greedy", name="greedy"),
    "sampled": SampledWSC(),
    "primal-dual": ApproxWSC("primal_dual", name="primal-dual"),
    "k2-exact": K2Exact(),
    "query-oriented": QueryOriented("query-oriented"),
}


def resolve_rung(spec) -> SolvesComponents:
    """A fallback rung from a :data:`STRATEGIES` name or a
    SolvesComponents object."""
    if isinstance(spec, str):
        try:
            return STRATEGIES[spec]
        except KeyError:
            known = ", ".join(sorted(STRATEGIES))
            raise SolverError(
                f"unknown fallback rung {spec!r} (known: {known})"
            ) from None
    if callable(getattr(spec, "solve_component", None)):
        return spec
    raise SolverError(
        f"fallback rung {spec!r} is neither a registry name nor a "
        "SolvesComponents object"
    )
