"""Tests for repro.core.costs and the dataset cost models."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import (
    CallableCost,
    HashCost,
    LengthCappedCost,
    OverlayCost,
    TableCost,
    UniformCost,
    ZeroedCost,
    parse_classifier_key,
    validate_weight,
)
from repro.datasets.costmodels import SubAdditiveHashCost
from repro.exceptions import InvalidInstanceError

CLF = st.frozensets(st.sampled_from([f"p{i}" for i in range(6)]), min_size=1, max_size=4)


class TestValidateWeight:
    def test_accepts_zero(self):
        assert validate_weight(0) == 0.0

    def test_accepts_inf(self):
        assert validate_weight(math.inf) == math.inf

    def test_rejects_negative(self):
        with pytest.raises(InvalidInstanceError):
            validate_weight(-1)

    def test_rejects_nan(self):
        with pytest.raises(InvalidInstanceError):
            validate_weight(float("nan"))

    def test_rejects_bool(self):
        with pytest.raises(InvalidInstanceError):
            validate_weight(True)

    def test_rejects_string(self):
        with pytest.raises(InvalidInstanceError):
            validate_weight("3")


class TestParseClassifierKey:
    def test_single_word(self):
        assert parse_classifier_key("adidas") == frozenset({"adidas"})

    def test_whitespace_split(self):
        assert parse_classifier_key("a b") == frozenset({"a", "b"})

    def test_plus_split(self):
        assert parse_classifier_key("a+b") == frozenset({"a", "b"})

    def test_tuple(self):
        assert parse_classifier_key(("a", "b")) == frozenset({"a", "b"})

    def test_frozenset_passthrough(self):
        key = frozenset({"x", "y"})
        assert parse_classifier_key(key) == key

    def test_empty_rejected(self):
        with pytest.raises(InvalidInstanceError):
            parse_classifier_key(())


class TestTableCost:
    def test_lookup_and_default(self):
        cost = TableCost({"a": 2.0})
        assert cost.cost(frozenset("a")) == 2.0
        assert cost.cost(frozenset("b")) == math.inf

    def test_finite_default(self):
        cost = TableCost({"a": 2.0}, default=5.0)
        assert cost.cost(frozenset("b")) == 5.0

    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidInstanceError):
            TableCost({"a": -1})

    @pytest.mark.parametrize("default", [math.nan, -math.inf])
    def test_rejects_nan_and_negative_infinite_default(self, default):
        # Dominated pruning's min over pair sums assumes no NaN price.
        with pytest.raises(InvalidInstanceError):
            TableCost({"a": 1.0}, default=default)

    def test_contains_and_len(self):
        cost = TableCost({"a": 1, "a b": 2})
        assert frozenset("a") in cost
        assert frozenset("c") not in cost
        assert len(cost) == 2

    def test_total(self):
        cost = TableCost({"a": 1, "b": 2})
        assert cost.total([frozenset("a"), frozenset("b")]) == 3.0

    def test_total_with_missing_is_inf(self):
        cost = TableCost({"a": 1})
        assert cost.total([frozenset("a"), frozenset("z")]) == math.inf

    def test_copy_is_independent(self):
        cost = TableCost({"a": 1})
        clone = cost.copy()
        assert clone.cost(frozenset("a")) == 1.0
        assert clone is not cost

    def test_is_finite(self):
        cost = TableCost({"a": 1})
        assert cost.is_finite(frozenset("a"))
        assert not cost.is_finite(frozenset("b"))


class TestUniformCost:
    def test_constant(self):
        cost = UniformCost(3.0)
        assert cost.cost(frozenset("abc")) == 3.0

    def test_length_cap(self):
        cost = UniformCost(1.0, max_length=2)
        assert cost.cost(frozenset("ab")) == 1.0
        assert cost.cost(frozenset("abc")) == math.inf

    def test_invalid_cap(self):
        with pytest.raises(InvalidInstanceError):
            UniformCost(1.0, max_length=0)


class TestCallableCost:
    def test_wraps_function(self):
        cost = CallableCost(lambda clf: float(len(clf)))
        assert cost.cost(frozenset("ab")) == 2.0

    def test_propagates_inf(self):
        cost = CallableCost(lambda clf: math.inf)
        assert cost.cost(frozenset("a")) == math.inf

    def test_validates_output(self):
        cost = CallableCost(lambda clf: -1.0)
        with pytest.raises(InvalidInstanceError):
            cost.cost(frozenset("a"))


class TestHashCost:
    @given(CLF)
    @settings(max_examples=50)
    def test_in_range(self, clf):
        cost = HashCost(1, 50, seed=3)
        assert 1 <= cost.cost(clf) <= 50

    @given(CLF)
    @settings(max_examples=30)
    def test_deterministic(self, clf):
        assert HashCost(1, 50, seed=3).cost(clf) == HashCost(1, 50, seed=3).cost(clf)

    def test_seed_changes_draws(self):
        clfs = [frozenset((f"p{i}",)) for i in range(40)]
        a = [HashCost(1, 50, seed=0).cost(c) for c in clfs]
        b = [HashCost(1, 50, seed=1).cost(c) for c in clfs]
        assert a != b

    def test_length_cap(self):
        cost = HashCost(1, 50, seed=0, max_length=2)
        assert cost.cost(frozenset("abc")) == math.inf

    def test_invalid_range(self):
        with pytest.raises(InvalidInstanceError):
            HashCost(5, 2)


class TestZeroedCost:
    def test_free_subset_costs_zero(self):
        base = UniformCost(9.0)
        cost = ZeroedCost(base, ["known1", "known2"])
        assert cost.cost(frozenset({"known1"})) == 0.0
        assert cost.cost(frozenset({"known1", "known2"})) == 0.0

    def test_mixed_classifier_keeps_base_cost(self):
        base = UniformCost(9.0)
        cost = ZeroedCost(base, ["known"])
        assert cost.cost(frozenset({"known", "unknown"})) == 9.0


class TestLengthCappedCost:
    def test_caps(self):
        cost = LengthCappedCost(UniformCost(1.0), max_length=2)
        assert cost.cost(frozenset("ab")) == 1.0
        assert cost.cost(frozenset("abc")) == math.inf

    def test_invalid(self):
        with pytest.raises(InvalidInstanceError):
            LengthCappedCost(UniformCost(1.0), max_length=0)


class TestOverlayCost:
    def test_select_zeroes(self):
        overlay = OverlayCost(UniformCost(4.0))
        clf = frozenset("ab")
        overlay.select(clf)
        assert overlay.cost(clf) == 0.0

    def test_remove_prices_infinite(self):
        overlay = OverlayCost(UniformCost(4.0))
        clf = frozenset("ab")
        overlay.remove(clf)
        assert overlay.cost(clf) == math.inf
        assert overlay.is_removed(clf)

    def test_untouched_passthrough(self):
        overlay = OverlayCost(UniformCost(4.0))
        assert overlay.cost(frozenset("z")) == 4.0

    def test_initial_overrides(self):
        overlay = OverlayCost(UniformCost(4.0), {frozenset("a"): 1.0})
        assert overlay.cost(frozenset("a")) == 1.0


class TestSubAdditiveHashCost:
    def make(self, **kwargs):
        bases = {"a": 10, "b": 20, "c": 40}
        return SubAdditiveHashCost(bases, low=1, high=63, seed=5, **kwargs)

    def test_singleton_pays_base(self):
        assert self.make().cost(frozenset("a")) == 10.0

    def test_unknown_property_unavailable(self):
        assert self.make().cost(frozenset("z")) == math.inf

    @given(st.frozensets(st.sampled_from("abc"), min_size=2, max_size=3))
    def test_in_range(self, clf):
        value = self.make().cost(clf)
        assert 1 <= value <= 63

    def test_deterministic(self):
        assert self.make().cost(frozenset("ab")) == self.make().cost(frozenset("ab"))

    def test_length_cap(self):
        assert self.make(max_length=1).cost(frozenset("ab")) == math.inf

    def test_conjunction_anchors_on_min_base(self):
        """With u_high <= 1 and no spill the conjunction never costs more
        than its cheapest part."""
        bases = {"a": 10, "b": 60}
        model = SubAdditiveHashCost(
            bases, low=1, high=63, u_low=0.5, u_high=1.0, spill=0.0, seed=1
        )
        assert model.cost(frozenset("ab")) <= 10

    def test_invalid_ranges(self):
        with pytest.raises(InvalidInstanceError):
            SubAdditiveHashCost({"a": 1}, low=5, high=1)
        with pytest.raises(InvalidInstanceError):
            SubAdditiveHashCost({"a": 1}, u_low=0, u_high=1)
        with pytest.raises(InvalidInstanceError):
            SubAdditiveHashCost({"a": 1}, spill=-0.1)
