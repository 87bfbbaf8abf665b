import math

import pytest

from mcrank import (
    ConfusionCounts,
    EvaluationError,
    GroundTruth,
    confusion,
    dcg,
    f1,
    ndcg,
    relevance,
)


def truth_for(ratings, threshold=3.0, universe=()):
    return GroundTruth(user_id="u", ratings=ratings, threshold=threshold,
                       universe=frozenset(universe))


class TestRelevance:
    def test_threshold_is_inclusive(self):
        assert relevance(3.0, 3.0)
        assert not relevance(2.99, 3.0)

    def test_scale_min_threshold_accepts_everything(self):
        assert all(relevance(r, 1.0) for r in (1.0, 2.0, 5.0))


class TestGroundTruth:
    def test_relevant_set(self):
        t = truth_for({"a": 4.0, "b": 2.0, "c": 3.0})
        assert t.relevant == {"a", "c"}

    def test_universe_items_without_rating_are_nonrelevant(self):
        t = truth_for({"a": 4.0}, universe={"a", "b"})
        assert t.rating("b") == 0.0
        assert not t.is_relevant("b")

    def test_unknown_item_is_an_error(self):
        t = truth_for({"a": 4.0})
        with pytest.raises(EvaluationError):
            t.rating("zz")


class TestConfusion:
    def test_partial_overlap(self):
        t = truth_for({"a": 5.0, "c": 4.0, "b": 1.0})
        assert confusion(["a", "b"], t) == (1, 1, 1)

    def test_perfect_list(self):
        t = truth_for({"a": 5.0, "b": 4.0})
        assert confusion(["a", "b"], t) == (2, 0, 0)

    def test_nothing_relevant(self):
        t = truth_for({"a": 1.0, "b": 2.0})
        assert confusion(["a", "b"], t) == (0, 2, 0)

    def test_item_outside_truth_rejected(self):
        t = truth_for({"a": 5.0})
        with pytest.raises(EvaluationError):
            confusion(["a", "other"], t)


class TestF1:
    def test_harmonic_mean_of_equals(self):
        assert f1(ConfusionCounts(tp=1, fp=1, fn=1)) == 0.5

    def test_golden_value(self):
        assert f1(ConfusionCounts(tp=2, fp=3, fn=2)) == pytest.approx(4 / 9, abs=1e-12)

    def test_zero_tp_gives_zero(self):
        assert f1(ConfusionCounts(tp=0, fp=5, fn=3)) == 0.0
        assert f1(ConfusionCounts(tp=0, fp=0, fn=0)) == 0.0

    def test_bounds_and_zero_iff_no_hits(self):
        for tp in range(4):
            for fp in range(4):
                for fn in range(4):
                    v = f1(ConfusionCounts(tp, fp, fn))
                    assert 0.0 <= v <= 1.0
                    assert (v == 0.0) == (tp == 0)
                    if tp:
                        precision = tp / (tp + fp)
                        recall = tp / (tp + fn)
                        assert v <= 2.0 * min(precision, recall) + 1e-12


class TestDcg:
    def test_single_item_undiscounted(self):
        t = truth_for({"a": 3.0})
        assert dcg(["a"], t) == 7.0

    def test_second_position_also_undiscounted(self):
        # discount max(1, log2 2) = 1, so a gain at position 2 is kept whole
        t = truth_for({"z": 0.0, "a": 3.0}, universe={"z", "a"})
        assert dcg(["z", "a"], t) == 7.0

    def test_three_item_golden_value(self):
        t = truth_for({"a": 1.0, "b": 3.0, "c": 5.0})
        expected = 1.0 + 7.0 + 31.0 / math.log2(3)
        assert dcg(["a", "b", "c"], t) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(27.5588, abs=5e-4)

    def test_empty_list_rejected(self):
        with pytest.raises(EvaluationError):
            dcg([], truth_for({"a": 1.0}))

    def test_moving_gain_earlier_never_decreases(self):
        t = truth_for({"lo": 1.0, "hi": 5.0, "z": 0.0}, universe={"lo", "hi", "z"})
        worse = dcg(["lo", "z", "hi"], t)
        better = dcg(["hi", "z", "lo"], t)
        assert better >= worse


class TestNdcg:
    def test_sorted_list_is_one(self):
        t = truth_for({"a": 5.0, "b": 3.0, "c": 1.0})
        assert ndcg(["a", "b", "c"], t) == 1.0

    def test_worst_first_golden_value(self):
        t = truth_for({"a": 1.0, "b": 3.0, "c": 5.0})
        got = ndcg(["a", "b", "c"], t)
        ideal = 31.0 + 7.0 + 1.0 / math.log2(3)
        assert ideal == pytest.approx(38.6309, abs=5e-4)
        assert got == pytest.approx((1 + 7 + 31 / math.log2(3)) / ideal, abs=1e-12)
        assert got == pytest.approx(0.7134, abs=5e-4)

    def test_all_zero_gains_is_one(self):
        # unrated universe items carry rating 0, so every gain is zero
        t = truth_for({}, universe={"a", "b"})
        assert ndcg(["a", "b"], t) == 1.0
        assert ndcg(["b", "a"], t) == 1.0

    def test_bounded_by_one(self):
        t = truth_for({"a": 1.0, "b": 4.0, "c": 2.0, "d": 5.0})
        for order in (["a", "b"], ["d", "a", "b"], ["c", "d", "a", "b"]):
            assert 0.0 <= ndcg(order, t) <= 1.0

    def test_ideal_uses_same_items_as_the_list(self):
        # the truncated list is normalized against its own items, so a
        # list that is sorted within itself scores 1 even if better
        # items exist elsewhere
        t = truth_for({"a": 5.0, "b": 3.0, "c": 1.0})
        assert ndcg(["b", "c"], t) == 1.0

    def test_ideal_pool_option_normalizes_against_the_pool(self):
        t = truth_for({"a": 5.0, "b": 3.0, "c": 1.0})
        assert ndcg(["b", "c"], t, ideal_pool=["a", "b", "c"]) < 1.0

    def test_empty_list_rejected(self):
        with pytest.raises(EvaluationError):
            ndcg([], truth_for({"a": 1.0}))
