import math

import numpy as np
import pytest

from mcrank import (
    ConfusionCounts,
    EvaluationError,
    GroundTruth,
    ScoredList,
    confusion,
    dcg,
    f1,
    ndcg,
    top_n,
)
from mcrank.metrics import dcg_gain, prefix_means
from naive import ordered_sum


def truth_for(ratings, threshold=3.0, universe=()):
    return GroundTruth(user_id="u", ratings=ratings, threshold=threshold,
                       universe=frozenset(universe))


class TestRelevance:
    def test_threshold_is_inclusive(self):
        assert truth_for({"a": 3.0, "b": 2.99}).relevant == {"a"}
        assert GroundTruth(user_id="u", ratings={"a": 3.0, "b": 2.99}).relevant == {"a"}

    def test_scale_min_threshold_accepts_everything(self):
        assert truth_for({"a": 1.0, "b": 2.0, "c": 5.0}, threshold=1.0).relevant == \
            {"a", "b", "c"}


class TestGroundTruth:
    def test_relevant_set(self):
        t = truth_for({"a": 4.0, "b": 2.0, "c": 3.0})
        assert t.relevant == {"a", "c"}

    def test_universe_items_without_rating_are_nonrelevant(self):
        t = truth_for({"a": 4.0}, universe={"a", "b"})
        assert t.rating("b") == 0.0
        assert "b" not in t.relevant

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


def random_user(rng, u):
    """A ranked list with tied scores and its ground truth.

    Items are rated or left unrated (rating 0 from the universe), some
    ratings are non-integer or negative, and the threshold is sometimes 0,
    where an unrated item still is not relevant.
    """
    n = int(rng.integers(1, 16))
    items = [f"u{u}i{j:02d}" for j in range(n)]
    kind = int(rng.integers(4))
    if kind == 0:  # nothing rated: every gain is 0
        ratings = {}
    else:
        rated = [i for i in items if rng.random() < 0.6]
        values = {1: rng.integers(0, 6, len(rated)).astype(float),
                  2: np.round(rng.uniform(0.0, 5.0, len(rated)), 2),
                  3: rng.uniform(-1.0, 5.0, len(rated))}[kind]
        ratings = dict(zip(rated, values.tolist()))
    threshold = [0.0, 2.5, 3.0, 4.5][int(rng.integers(4))]
    truth = GroundTruth(user_id=f"u{u}", ratings=ratings, threshold=threshold,
                        universe=frozenset(items))
    scores = rng.integers(0, 4, n).astype(float)
    return ScoredList.from_pairs(zip(items, scores.tolist())), truth


def per_list_means(ranked, truths, n_values):
    """Mean f1(confusion(...)) and ndcg(...) of every top-N list."""
    out = []
    for n in n_values:
        tops = [top_n(r, n).item_ids for r in ranked]
        f1s = [f1(confusion(t, truth)) for t, truth in zip(tops, truths)]
        nds = [ndcg(t, truth) for t, truth in zip(tops, truths)]
        out.append((ordered_sum(f1s) / len(tops), ordered_sum(nds) / len(tops)))
    return out


def kernel_means(ranked, truths, n_values):
    """prefix_means over the zero-padded top-max(N) rows of the lists."""
    lists = [top_n(r, max(n_values)).item_ids for r in ranked]
    lengths = np.array([len(ids) for ids in lists])
    gains = np.zeros((len(lists), lengths.max()))
    hits = np.zeros(gains.shape, dtype=bool)
    for u, (ids, truth) in enumerate(zip(lists, truths)):
        gains[u, :len(ids)] = [dcg_gain(truth.rating(i)) for i in ids]
        hits[u, :len(ids)] = [i in truth.relevant for i in ids]
    n_relevant = np.array([len(t.relevant) for t in truths])
    return prefix_means(gains, hits, lengths, n_relevant, n_values)


class TestPrefixMeans:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_per_list_metrics(self, seed):
        rng = np.random.default_rng(seed)
        ranked, truths = zip(*(random_user(rng, u)
                               for u in range(int(rng.integers(1, 30)))))
        n_values = sorted(rng.choice(np.arange(1, 21), size=int(rng.integers(1, 9)),
                                     replace=False).tolist())
        assert kernel_means(ranked, truths, n_values) == \
            per_list_means(ranked, truths, n_values)

    def test_cases_the_random_users_cover(self):
        # the seeds above reach every edge case the kernel must match on
        kinds = {"short": 0, "no relevant": 0, "all-zero gains": 0,
                 "non-integer": 0, "negative gain": 0,
                 "unrated at threshold 0": 0, "tie": 0}
        for seed in range(40):
            rng = np.random.default_rng(seed)
            users = [random_user(rng, u) for u in range(int(rng.integers(1, 30)))]
            for r, t in users:
                ratings = [t.rating(i) for i in r.item_ids]
                kinds["short"] += len(r) < 20
                kinds["no relevant"] += not t.relevant
                kinds["all-zero gains"] += all(x == 0.0 for x in ratings)
                kinds["non-integer"] += any(x != int(x) for x in ratings)
                kinds["negative gain"] += any(x < 0.0 for x in ratings)
                kinds["unrated at threshold 0"] += (
                    t.threshold == 0.0 and len(t.ratings) < len(r))
                kinds["tie"] += len(set(r.scores)) < len(r)
        assert all(kinds.values()), kinds

    def test_long_list(self):
        # the one gain sits at position 1621, where np.log2 and math.log2
        # first differ
        items = [f"i{j:04d}" for j in range(1700)]
        truth = truth_for({items[1620]: 5.0}, universe=items)
        ranked = [ScoredList.from_pairs((i, 0.0) for i in items)]
        n_values = [1620, 1621, 1700, 10**23]  # N past any C long is the whole list
        assert kernel_means(ranked, [truth], n_values) == \
            per_list_means(ranked, [truth], n_values)

    def test_no_users(self):
        empty = np.zeros((0, 0))
        out = prefix_means(empty, empty.astype(bool), np.zeros(0, dtype=int),
                           np.zeros(0, dtype=int), [1, 5])
        assert out == [(0.0, 0.0), (0.0, 0.0)]

    def test_golden_rows(self):
        # row 0: gains 1, 7, 31 worst first; row 1: one item, nothing relevant
        t0 = truth_for({"a": 1.0, "b": 3.0, "c": 5.0})
        t1 = truth_for({"z": 2.0})
        gains = np.array([[1.0, 7.0, 31.0], [3.0, 0.0, 0.0]])
        hits = np.array([[False, True, True], [False, False, False]])
        (f1_1, nd_1), (f1_3, nd_3) = prefix_means(
            gains, hits, np.array([3, 1]), np.array([2, 0]), [1, 3])
        assert (f1_1, nd_1) == (0.0, 1.0)
        assert f1_3 == f1(confusion(["a", "b", "c"], t0)) / 2
        assert f1_3 == pytest.approx(0.4, abs=1e-12)
        assert nd_3 == (ndcg(["a", "b", "c"], t0) + ndcg(["z"], t1)) / 2
