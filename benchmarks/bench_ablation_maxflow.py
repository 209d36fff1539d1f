"""Ablation: max-flow kernel choice inside MC3[S] (Section 6.1 reports
testing the bipartite-optimised algorithms and settling on Dinic).

Benchmarks each kernel on the same bipartite WVC network produced by the
k = 2 reduction; all kernels must return the same optimal value.
"""

import pytest

from repro.core.costs import CallableCost
from repro.datasets import synthetic_k2
from repro.flow import ALGORITHMS, max_flow
from repro.preprocess import preprocess
from repro.reductions import mc3_to_bipartite_wvc, wvc_to_flow_network
from repro.reductions.wvc_to_flow import SINK, SOURCE

N = 4000
SEED = 0


@pytest.fixture(scope="module")
def wvc_graph():
    instance = synthetic_k2(N, seed=SEED)
    prep = preprocess(instance)
    queries = [q for component in prep.components for q in component.queries]
    if not queries:  # pragma: no cover - depends on the draw
        pytest.skip("preprocessing covered the whole load")
    # Each residual component carries its own prices; a classifier is
    # priced by the component that holds its properties.
    component_of = {
        prop: component for component in prep.components for prop in component.properties
    }
    cost = CallableCost(lambda clf: component_of[next(iter(clf))].weight(clf))
    return mc3_to_bipartite_wvc(queries, cost)


@pytest.fixture(scope="module")
def reference_value(wvc_graph):
    network = wvc_to_flow_network(wvc_graph)
    return max_flow(network, SOURCE, SINK, algorithm="dinic").value


@pytest.mark.parametrize("kernel", sorted(ALGORITHMS))
def test_maxflow_kernel(benchmark, kernel, wvc_graph, reference_value):
    def run():
        network = wvc_to_flow_network(wvc_graph)
        return max_flow(network, SOURCE, SINK, algorithm=kernel).value

    value = benchmark(run)
    assert value == pytest.approx(reference_value)
