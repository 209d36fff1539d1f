"""Tests for Algorithm 1 (preprocessing): each step in isolation, the
full pipeline, and the key invariant — preprocessing preserves at least
one optimal solution."""

import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HashCost, MC3Instance, OverlayCost, TableCost, UniformCost
from repro.core.properties import iter_nonempty_subsets
from repro.exceptions import UncoverableQueryError
from repro.preprocess import (
    ALL_STEPS,
    DominatedPruner,
    partition_queries,
    preprocess,
    prune_k2_singletons,
)
from repro.solvers import ExactSolver, K2Solver
from tests.conftest import random_instance


class TestStep1:
    def test_singleton_query_forces_classifier(self):
        instance = MC3Instance(["a", "a b"], {"a": 3, "b": 1, "a b": 5})
        prep = preprocess(instance, steps=(1,))
        assert frozenset("a") in prep.forced
        assert prep.report.singleton_queries_selected == 1
        assert prep.base_cost == 3

    def test_zero_weight_classifiers_selected(self):
        instance = MC3Instance(["a b"], {"a": 0, "b": 2, "a b": 9})
        prep = preprocess(instance, steps=(1,))
        assert frozenset("a") in prep.forced
        assert prep.report.zero_weight_selected == 1

    def test_covered_queries_removed(self):
        instance = MC3Instance(["a", "b", "a b"], {"a": 1, "b": 1, "a b": 9})
        prep = preprocess(instance, steps=(1,))
        # Selecting A and B covers the query ab as well.
        assert prep.fully_covered
        assert prep.report.queries_covered_step1 == 3

    def test_uncoverable_singleton_raises(self):
        instance = MC3Instance(["a"], {"b": 1})
        with pytest.raises(UncoverableQueryError):
            preprocess(instance, steps=(1,))

    def test_unknown_step_rejected(self):
        instance = MC3Instance(["a"], {"a": 1})
        with pytest.raises(ValueError):
            preprocess(instance, steps=(9,))


class TestStep2:
    def test_partition_by_components(self):
        groups = partition_queries(
            [frozenset("ab"), frozenset("bc"), frozenset("xy")]
        )
        assert [sorted(sorted(q) for q in g) for g in groups] == [
            [["a", "b"], ["b", "c"]],
            [["x", "y"]],
        ]

    def test_single_component(self):
        groups = partition_queries([frozenset("ab"), frozenset("ac")])
        assert len(groups) == 1

    def test_pipeline_produces_components(self):
        instance = MC3Instance(
            ["a b", "x y"], {"a": 1, "b": 1, "a b": 1, "x": 1, "y": 1, "x y": 1}
        )
        prep = preprocess(instance, steps=(1, 2))
        assert len(prep.components) == 2
        assert prep.report.num_components == 2

    def test_components_share_no_properties(self):
        instance = random_instance(21, num_properties=10, num_queries=8)
        prep = preprocess(instance)
        seen = set()
        for component in prep.components:
            assert not (component.properties & seen)
            seen |= component.properties


class TestStep3:
    def test_dominated_pair_removed(self):
        """Observation 3.3's example: W(X)=W(Y)=1, W(XY)=3 ⇒ drop XY."""
        overlay = OverlayCost(TableCost({"x": 1, "y": 1, "x y": 3}))
        pruner = DominatedPruner([frozenset("xy")], overlay)
        removed, _forced = pruner.run([frozenset("xy")])
        assert overlay.is_removed(frozenset(("x", "y")))
        assert removed == 1

    def test_cheaper_pair_kept(self):
        overlay = OverlayCost(TableCost({"x": 2, "y": 2, "x y": 3}))
        pruner = DominatedPruner([frozenset("xy")], overlay)
        pruner.run([frozenset("xy")])
        assert not overlay.is_removed(frozenset(("x", "y")))

    def test_equal_cost_decomposition_removes(self):
        overlay = OverlayCost(TableCost({"x": 1, "y": 2, "x y": 3}))
        pruner = DominatedPruner([frozenset("xy")], overlay)
        pruner.run([frozenset("xy")])
        assert overlay.is_removed(frozenset(("x", "y")))

    def test_chained_decomposition(self):
        """XYZ decomposes through the removed XY's own decomposition."""
        table = {"x": 1, "y": 1, "z": 1, "x y": 2, "x z": 9, "y z": 9, "x y z": 4}
        overlay = OverlayCost(TableCost(table))
        q = frozenset("xyz")
        pruner = DominatedPruner([q], overlay)
        pruner.run([q])
        # XY removed (decomposes to 2 = its weight); XYZ costs 4 > X+Y+Z=3.
        assert overlay.is_removed(frozenset(("x", "y")))
        assert overlay.is_removed(frozenset(("x", "y", "z")))

    def test_forced_unique_cover_selected(self):
        """Only the pair classifier is available: it must be selected."""
        overlay = OverlayCost(TableCost({"x y": 5}))
        q = frozenset("xy")
        pruner = DominatedPruner([q], overlay)
        _removed, forced = pruner.run([q])
        assert forced == [frozenset(("x", "y"))]
        assert overlay.cost(frozenset(("x", "y"))) == 0


class TestStep4:
    def test_observation_34_removal(self):
        """W(X) >= sum of pairs around x ⇒ drop X, select the pairs."""
        table = {"x": 10, "a": 1, "b": 1, "x a": 4, "x b": 4}
        overlay = OverlayCost(TableCost(table))
        queries = [frozenset(("x", "a")), frozenset(("x", "b"))]
        removed, forced = prune_k2_singletons(queries, overlay)
        assert frozenset("x") in removed
        assert set(forced) == {frozenset(("x", "a")), frozenset(("x", "b"))}

    def test_cheap_singleton_survives(self):
        table = {"x": 3, "a": 1, "b": 1, "x a": 4, "x b": 4}
        overlay = OverlayCost(TableCost(table))
        queries = [frozenset(("x", "a")), frozenset(("x", "b"))]
        removed, _forced = prune_k2_singletons(queries, overlay)
        assert removed == set()

    def test_chain_reaction(self):
        """Selecting XY zeroes it, which can flip Y's condition too."""
        table = {"x": 5, "y": 5, "x y": 4}
        overlay = OverlayCost(TableCost(table))
        queries = [frozenset(("x", "y"))]
        removed, forced = prune_k2_singletons(queries, overlay)
        assert frozenset("x") in removed or frozenset("y") in removed
        assert frozenset(("x", "y")) in forced

    def test_requires_length_two(self):
        overlay = OverlayCost(UniformCost(1.0))
        with pytest.raises(ValueError):
            prune_k2_singletons([frozenset("abc")], overlay)

    def test_missing_pair_blocks_removal(self):
        """If some query around x has no pair classifier, X must stay."""
        table = {"x": 10, "a": 1, "b": 1, "x a": 2}  # no "x b"
        overlay = OverlayCost(TableCost(table))
        queries = [frozenset(("x", "a")), frozenset(("x", "b"))]
        removed, _forced = prune_k2_singletons(queries, overlay)
        assert frozenset("x") not in removed


class TestResidualComponents:
    """Each residual component carries its own prices and nothing else."""

    @staticmethod
    def _block(tag):
        p = [f"{tag}{i}" for i in range(5)]
        return [" ".join(p[i:i + 3]) for i in range(3)] + [f"{p[0]} {p[4]} {p[2]}"]

    def _component_bytes(self, unrelated_blocks):
        queries = self._block("a")
        for index in range(unrelated_blocks):
            queries += self._block(f"z{index}_")
        prep = preprocess(MC3Instance(queries, HashCost(seed=7), name="load"))
        (component,) = [c for c in prep.components if "a0" in c.properties]
        component.name = ""
        return len(pickle.dumps(component))

    def test_pickle_size_is_independent_of_the_rest_of_the_instance(self):
        assert self._component_bytes(0) == self._component_bytes(39)

    @pytest.mark.parametrize("steps", [(), (2,), (1, 2, 4), ALL_STEPS])
    def test_component_prices_honour_the_length_cap(self, steps):
        # The pair is cheaper than both singletons but over the cap; the
        # k = 2 reduction reads ``component.cost`` directly, so it buys
        # the pair unless the component's model prices it at ``∞``.
        instance = MC3Instance(
            ["a b"], {"a": 3, "b": 2, "a b": 4}, max_classifier_length=1
        )
        for component in preprocess(instance, steps=steps).components:
            assert component.cost.cost(frozenset("ab")) == math.inf
        result = K2Solver(preprocess_steps=steps).solve(instance)
        assert result.solution.classifiers == {frozenset("a"), frozenset("b")}
        assert result.cost == 5.0

    def test_component_holds_the_prices_of_its_candidates_only(self):
        queries = self._block("a") + self._block("b")
        instance = MC3Instance(queries, HashCost(seed=7))
        for component in preprocess(instance).components:
            candidates = {
                clf for q in component.queries for clf in iter_nonempty_subsets(q)
            }
            # Step 3 priced every candidate; nothing else is carried.
            assert set(component.cost.overrides) == candidates
            assert component.cost.base is instance.cost
        # Decomposition alone prices nothing, so nothing is copied.
        for component in preprocess(instance, steps=(2,)).components:
            assert component.cost.overrides == {}


class TestPipelineInvariant:
    """The headline guarantee: pruning preserves at least one optimum."""

    @given(st.integers(min_value=0, max_value=120))
    @settings(max_examples=25, deadline=None)
    def test_preprocessing_preserves_optimal_cost(self, seed):
        instance = random_instance(
            seed, num_properties=6, num_queries=5, max_length=3
        )
        with_prep = ExactSolver(preprocess_steps=ALL_STEPS).solve(instance)
        without = ExactSolver(preprocess_steps=()).solve(instance)
        assert with_prep.cost == pytest.approx(without.cost)

    @given(st.integers(min_value=200, max_value=280))
    @settings(max_examples=15, deadline=None)
    def test_preserves_optimum_with_missing_classifiers(self, seed):
        instance = random_instance(
            seed, num_properties=6, num_queries=5, max_length=3, missing_fraction=0.4
        )
        with_prep = ExactSolver(preprocess_steps=ALL_STEPS).solve(instance)
        without = ExactSolver(preprocess_steps=()).solve(instance)
        assert with_prep.cost == pytest.approx(without.cost)

    @given(st.integers(min_value=0, max_value=80))
    @settings(max_examples=15, deadline=None)
    def test_k2_preserves_optimum(self, seed):
        instance = random_instance(
            seed, num_properties=7, num_queries=6, max_length=2
        )
        with_prep = ExactSolver(preprocess_steps=ALL_STEPS).solve(instance)
        without = ExactSolver(preprocess_steps=()).solve(instance)
        assert with_prep.cost == pytest.approx(without.cost)

    def test_finalize_prices_against_original(self, example11):
        prep = preprocess(example11)
        solution = prep.finalize(
            clf for component in prep.components for clf in component.queries
        )
        # Whatever we add, pricing is against the original weights.
        assert solution.cost == example11.total_weight(solution.classifiers)

    def test_report_fields_populated(self):
        instance = MC3Instance(
            ["a", "a b", "x y"],
            {"a": 1, "b": 2, "a b": 9, "x": 4, "y": 4, "x y": 1},
        )
        prep = preprocess(instance)
        report = prep.report.as_dict()
        assert report["steps_run"] == [1, 2, 3, 4]
        assert report["elapsed_seconds"] >= 0
        assert prep.report.singleton_queries_selected == 1
