"""Engine-level component routing.

A :class:`Route` pairs a predicate over components with a component
strategy (see :mod:`repro.engine.strategies`): when the predicate
matches, the engine dispatches the component to the route's strategy
instead of the solver's own.  Routing happens *after* preprocessing, so
rules see the residual sub-instances — the level at which specialisation
is lossless (components share no properties, so composing per-component
optima is exact, Observation 3.2).

The flagship rule is :func:`exact_k2_route`: components whose queries
all have length ≤ 2 are solved *exactly* through the Theorem 4.1
reduction chain (bipartite WVC → max-flow) instead of the WSC
approximation, which makes the exact path available to every
approximate solver.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.core.instance import MC3Instance
from repro.engine.component import SolvesComponents
from repro.engine.strategies import ComponentAnswer, K2Exact, SampledWSC
from repro.setcover import DEFAULT_EXACT_THRESHOLD, DEFAULT_SAMPLE_RATES


class Route:
    """A (predicate, strategy) routing rule; the route is named after its
    strategy, so routed components report the route as their rung.

    ``backend`` optionally pins routed components to a specific kernel
    backend (a :func:`repro.core.kernels.registry` choice string,
    including ``"auto"``); ``None`` inherits the engine-level backend.

    ``cache_token`` is ``("route", *strategy.cache_token())``, or
    ``None`` (uncacheable) for a strategy without a token.  Predicates
    and strategies must be picklable for process-pool dispatch.
    """

    __slots__ = ("_predicate", "strategy", "backend")

    def __init__(
        self,
        predicate: Callable[[MC3Instance], bool],
        strategy: SolvesComponents,
        backend: Optional[str] = None,
    ):
        self._predicate = predicate
        self.strategy = strategy
        self.backend = backend

    @property
    def name(self) -> str:
        return self.strategy.name

    @property
    def cache_token(self) -> Optional[Tuple[object, ...]]:
        token = getattr(self.strategy, "cache_token", None)
        return None if token is None else ("route", *token())

    def matches(self, component: MC3Instance) -> bool:
        return self._predicate(component)

    def solve_component(self, component: MC3Instance) -> ComponentAnswer:
        return self.strategy.solve_component(component)


class _IsK2Component:
    """Picklable predicate: every query in the component has length ≤ 2."""

    def __call__(self, component: MC3Instance) -> bool:
        return component.max_query_length <= 2


class _IsLargeComponent:
    """Picklable predicate: the component has at least ``min_queries``
    residual queries (the size tier where sub-linear gain estimation
    starts beating exact greedy's full-universe scans)."""

    def __init__(self, min_queries: int):
        self.min_queries = min_queries

    def __call__(self, component: MC3Instance) -> bool:
        return component.n >= self.min_queries


#: Route name used in telemetry and details aggregation.
EXACT_K2_ROUTE = "exact-k2"

#: Route name of the sampled sub-linear greedy size-tier rule.
SAMPLED_WSC_ROUTE = "sampled-wsc"

#: Components below this many residual queries stay on the default
#: solver: sampling only pays once universes are large enough that the
#: sample is much smaller than the universe.
SAMPLED_ROUTE_MIN_QUERIES = 20_000


def sampled_wsc_route(
    min_queries: int = SAMPLED_ROUTE_MIN_QUERIES,
    seed: int = 0,
    rates: Optional[Tuple[float, ...]] = None,
    exact_threshold: Optional[int] = None,
    backend: Optional[str] = None,
) -> Route:
    """Size-tier rule: very large components go to the sampling-based
    sub-linear greedy (Indyk et al.) instead of the exact-gain greedy.
    The cache token names the seed, the sample-rate schedule and the
    exactness threshold."""
    return Route(
        _IsLargeComponent(min_queries),
        SampledWSC(
            seed,
            DEFAULT_SAMPLE_RATES if rates is None else rates,
            DEFAULT_EXACT_THRESHOLD if exact_threshold is None else exact_threshold,
            name=SAMPLED_WSC_ROUTE,
        ),
        backend=backend,
    )


def exact_k2_route(
    flow_algorithm: str = "dinic", backend: Optional[str] = None
) -> Route:
    """The k ≤ 2 exact-dispatch rule.

    Because the routed components are solved optimally and components
    interact with nothing outside themselves, enabling this route can
    only improve an approximate solver's output — it subsumes
    Short-First's idea at the component level without its
    cross-interaction loss.
    """
    return Route(
        _IsK2Component(),
        K2Exact(flow_algorithm, name=EXACT_K2_ROUTE),
        backend=backend,
    )
