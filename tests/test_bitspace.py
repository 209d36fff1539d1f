"""Equivalence suite for the bitset property-space rewrite.

Every hot path that moved onto interned integer masks —
:mod:`repro.core.bitspace` helpers, the min-cover DP, dominated
pruning, the MC³ → WSC reduction, and both greedy set-cover variants —
is checked here against the verbatim pre-change implementations kept in
:mod:`repro.core.reference`.  The promise under test is *bit-identical*
output: same orders, same tie-breaks, same costs, same solutions, for
every registered solver.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance, OverlayCost, TableCost
from repro.core.bitspace import (
    MaskCost,
    PropertySpace,
    compress_masks,
    iter_bits,
    mask_union,
    popcount,
)
from repro.core.kernels.api import FULL_ENUMERATION_MAX_LENGTH
from repro.core.kernels.pyjit import _pair_table
from repro.core.mincover import enumerate_covers, min_cover
from repro.core.properties import (
    iter_nonempty_subsets,
    iter_two_covers,
    iter_two_partitions,
)
from repro.core.reference import (
    ReferenceDominatedPruner,
    patch_reference_kernels,
    reference_bucket_greedy_wsc,
    reference_enumerate_covers,
    reference_greedy_wsc,
    reference_mc3_to_wsc,
    reference_min_cover,
)
from repro.exceptions import ReductionError, SolverError, UncoverableQueryError
from repro.preprocess.dominated import DominatedPruner
from repro.reductions import mc3_to_wsc
from repro.setcover import bucket_greedy_wsc, greedy_wsc
from repro.solvers import available_solvers, make_solver
from tests.strategies import PROPERTY_NAMES, mc3_instances
from tests.test_setcover import random_wsc

properties = st.sampled_from(PROPERTY_NAMES)
small_sets = st.frozensets(properties, min_size=1, max_size=6)


class TestMaskPrimitives:
    @given(small_sets)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_and_popcount(self, props):
        space = PropertySpace.from_queries([props])
        mask = space.mask_of(props)
        assert space.set_of(mask) == props
        assert popcount(mask) == len(props)
        assert [space.properties[b] for b in iter_bits(mask)] == sorted(props)

    def test_mask_union(self):
        assert mask_union([]) == 0
        assert mask_union([0b001, 0b100, 0b010]) == 0b111

    @given(small_sets, st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_subset_masks_match_frozenset_order(self, props, max_length):
        """Order-exact: subsets come out in the historical order."""
        space = PropertySpace.from_queries([props])
        mask = space.mask_of(props)
        via_masks = [
            space.set_of(sub) for sub in space.iter_subset_masks(mask, max_length)
        ]
        assert via_masks == list(iter_nonempty_subsets(props, max_length))

    @given(st.frozensets(properties, min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_two_partition_masks_match_family(self, props):
        """Same family of unordered partitions (order may differ)."""
        space = PropertySpace.from_queries([props])
        mask = space.mask_of(props)
        via_masks = Counter(
            frozenset((space.set_of(a), space.set_of(b)))
            for a, b in space.iter_two_partition_masks(mask)
        )
        via_sets = Counter(
            frozenset((a, b)) for a, b in iter_two_partitions(props)
        )
        assert via_masks == via_sets

    @given(st.frozensets(properties, min_size=2, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_two_cover_masks_match_family(self, props):
        space = PropertySpace.from_queries([props])
        mask = space.mask_of(props)
        via_masks = Counter(
            frozenset((space.set_of(a), space.set_of(b)))
            for a, b in space.iter_two_cover_masks(mask)
        )
        via_sets = Counter(frozenset((a, b)) for a, b in iter_two_covers(props))
        assert via_masks == via_sets

    def test_compress_masks_filters_to_submasks(self):
        full, local = compress_masks(0b0110, [0b0010, 0b1000, 0b0110, 0b0111])
        assert full == 0b11
        assert local == [0b01, 0b11]  # non-submasks dropped


class TestMaskCostDecisions:
    def test_select_and_remove_stay_in_the_memo(self):
        instance = MC3Instance(
            ["a b"], TableCost({frozenset("a"): 1, frozenset("b"): 2,
                                frozenset("ab"): 4})
        )
        overlay = OverlayCost(instance.cost)
        space = PropertySpace.from_queries(instance.queries)
        cost = MaskCost(space, overlay)
        a = space.mask_of(frozenset("a"))
        assert cost.cost(a) == 1
        cost.select(a)
        assert cost.cost(a) == 0.0
        b = space.mask_of(frozenset("b"))
        cost.remove(b)
        assert math.isinf(cost.cost(b))
        # The base model is read, never written.
        assert overlay.overrides == {}
        assert overlay.cost(frozenset("a")) == 1

    def test_pruner_hands_its_decisions_to_the_overlay(self):
        """The pruner keeps decisions in its memo while it runs and
        writes them into its overlay when ``run`` returns."""
        overlay = OverlayCost(TableCost({"x": 1, "y": 1, "x y": 3, "z w": 5}))
        queries = [frozenset("xy"), frozenset("zw")]
        pruner = DominatedPruner(queries, overlay)
        pruner.run(queries)
        assert overlay.overrides == {
            frozenset("xy"): math.inf,  # x + y = 2 < 3
            frozenset("x"): 0.0,  # with XY gone, {X, Y} is the only cover
            frozenset("y"): 0.0,
            frozenset("zw"): 0.0,  # the only cover of its query
        }


def _candidates(instance, q):
    return [
        (clf, instance.cost.cost(clf)) for clf in iter_nonempty_subsets(q)
    ]


class TestMinCoverEquivalence:
    @given(mc3_instances(price_all=False))
    @settings(max_examples=40, deadline=None)
    def test_min_cover_matches_reference(self, instance):
        for q in instance.queries:
            candidates = _candidates(instance, q)
            new = min_cover(q, candidates, required=False)
            ref = reference_min_cover(q, candidates, required=False)
            if ref is None:
                assert new is None
                continue
            assert new is not None
            assert new.cost == ref.cost
            assert new.classifiers == ref.classifiers

    @given(mc3_instances(price_all=False), st.sampled_from([None, 1, 2]))
    @settings(max_examples=30, deadline=None)
    def test_enumerate_covers_matches_reference(self, instance, limit):
        for q in instance.queries:
            candidates = _candidates(instance, q)
            new = enumerate_covers(q, candidates, limit=limit, node_budget=200)
            ref = reference_enumerate_covers(
                q, candidates, limit=limit, node_budget=200
            )
            assert [(c.classifiers, c.cost) for c in new] == [
                (c.classifiers, c.cost) for c in ref
            ]


class TestDominatedPrunerEquivalence:
    @given(mc3_instances())
    @settings(max_examples=25, deadline=None)
    def test_run_matches_reference(self, instance):
        overlay_new = OverlayCost(instance.cost)
        overlay_ref = OverlayCost(instance.cost)
        pruner = DominatedPruner(instance.queries, overlay_new)
        reference = ReferenceDominatedPruner(instance.queries, overlay_ref)
        assert pruner.run(instance.queries) == reference.run(instance.queries)
        assert pruner.forced == reference.forced
        assert pruner.removed == reference.removed
        assert overlay_new.overrides == overlay_ref.overrides
        for q in instance.queries:
            for clf in iter_nonempty_subsets(q):
                assert pruner.effective_weight(clf) == reference.effective_weight(
                    clf
                )


def _long_query_instance(seed):
    """Queries of length 5–10 over a 12-property pool.

    Prices mix random integers, exact sums of the singleton prices
    (decomposition ties, which remove on ``<=``), zeros and infinite
    (missing) entries, so every branch of the pruner's comparison sees
    both outcomes.  Odd seeds add a length-3 query that only its
    singletons cover: forcing them re-prices the long classifiers that
    share a property with it.
    """
    rng = random.Random(seed)
    pool = [f"p{i:02d}" for i in range(12)]
    queries = [
        frozenset(rng.sample(pool, rng.randint(5, 10)))
        for _ in range(rng.randint(1, 3))
    ]
    unit = {prop: float(rng.randint(0, 6)) for prop in pool}
    table = {}
    if seed % 2:
        short = frozenset(rng.sample(sorted(queries[0]), 3))
        queries.append(short)
        for prop in short:
            table[frozenset((prop,))] = unit[prop] + 1.0
        for clf in iter_nonempty_subsets(short):
            table.setdefault(clf, math.inf)
    for q in queries:
        for clf in iter_nonempty_subsets(q):
            if clf in table:
                continue
            draw = rng.random()
            if draw < 0.2 and len(clf) > 1:
                continue  # infinite: no classifier offered
            if draw < 0.55:
                table[clf] = sum(unit[prop] for prop in clf)
            else:
                table[clf] = float(rng.randint(0, 4 * len(clf)))
    return MC3Instance(sorted(queries, key=sorted), TableCost(table))


class TestLongClassifierPruning:
    """Lengths 5–7 take the full two-cover family and lengths 8–10 the
    two-partition family; both run against the frozenset reference."""

    @pytest.mark.parametrize("seed", range(12))
    def test_run_matches_reference(self, seed):
        instance = _long_query_instance(seed)
        max_length = None if seed % 3 else 8
        overlay_new = OverlayCost(instance.cost)
        overlay_ref = OverlayCost(instance.cost)
        pruner = DominatedPruner(instance.queries, overlay_new, max_length)
        reference = ReferenceDominatedPruner(
            instance.queries, overlay_ref, max_length
        )
        assert pruner.run(instance.queries) == reference.run(instance.queries)
        assert pruner.forced == reference.forced
        assert pruner.removed == reference.removed
        assert overlay_new.overrides == overlay_ref.overrides
        for q in instance.queries:
            for clf in iter_nonempty_subsets(q, max_length):
                assert pruner.effective_weight(clf) == reference.effective_weight(
                    clf
                )

    @pytest.mark.parametrize("length", range(3, 11))
    def test_pair_table_maps_onto_any_mask(self, length):
        rng = random.Random(length)
        mask = 0
        for bit in rng.sample(range(16), length):
            mask |= 1 << bit
        subs = [0]
        for bit in iter_bits(mask):
            subs += [sub | (1 << bit) for sub in subs]
        del subs[0]
        get_a, get_b = _pair_table(length)
        mapped = list(zip(get_a(subs), get_b(subs)))
        if length <= FULL_ENUMERATION_MAX_LENGTH:
            expected = list(PropertySpace.iter_two_cover_masks(mask))
        else:
            expected = list(PropertySpace.iter_two_partition_masks(mask))
        assert mapped == expected

    def test_no_pair_table_below_length_three(self):
        # A one-pair family would make itemgetter return a scalar.
        with pytest.raises(ValueError):
            _pair_table(2)


class TestReductionEquivalence:
    @given(mc3_instances())
    @settings(max_examples=30, deadline=None)
    def test_mc3_to_wsc_matches_reference(self, instance):
        new = mc3_to_wsc(instance)
        ref = reference_mc3_to_wsc(instance)
        assert new.universe_size == ref.universe_size
        assert new.num_sets == ref.num_sets
        for element_id in range(new.universe_size):
            assert new.element_label(element_id) == ref.element_label(element_id)
        for set_id in range(new.num_sets):
            assert new.set_label(set_id) == ref.set_label(set_id)
            assert new.set_cost(set_id) == ref.set_cost(set_id)
            assert new.set_members(set_id) == ref.set_members(set_id)


class TestGreedyEquivalence:
    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_greedy_matches_reference(self, seed):
        instance = random_wsc(seed)
        new = greedy_wsc(instance)
        ref = reference_greedy_wsc(instance)
        assert new.set_ids == ref.set_ids
        assert new.cost == ref.cost

    @given(
        st.integers(min_value=0, max_value=400),
        st.sampled_from([1e-6, 0.1, 0.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bucket_greedy_matches_reference(self, seed, epsilon):
        instance = random_wsc(seed)
        new = bucket_greedy_wsc(instance, epsilon=epsilon)
        ref = reference_bucket_greedy_wsc(instance, epsilon=epsilon)
        assert new.set_ids == ref.set_ids
        assert new.cost == ref.cost


def _solve_or_exception(solver, instance):
    try:
        result = solver.solve(instance)
    except (ReductionError, SolverError, UncoverableQueryError) as error:
        return type(error).__name__
    return (frozenset(result.solution.classifiers), result.cost)


class TestSolversBitIdentical:
    """Every registered solver returns the identical solution whether it
    runs on the mask kernels or the patched-in frozenset references."""

    @given(mc3_instances(max_queries=4))
    @settings(max_examples=10, deadline=None)
    def test_all_registered_solvers(self, instance):
        kwargs = {"mc3-robust": {"redundancy": 1}}
        for name in available_solvers():
            solver = make_solver(name, **kwargs.get(name, {}))
            current = _solve_or_exception(solver, instance)
            with patch_reference_kernels():
                patched = _solve_or_exception(solver, instance)
            assert current == patched, name
