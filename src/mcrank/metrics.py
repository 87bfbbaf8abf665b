"""Relevance and ranking-quality metrics for top-N recommendation lists.

DCG follows Järvelin and Kekäläinen (2002): the gain of an item is
2^rating - 1 and the discount at 1-based position j is max(1, log2(j)),
so the first two positions are undiscounted. That is the only convention;
the common log2(j + 1) discount is not offered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EvaluationError

DEFAULT_RELEVANCE_THRESHOLD = 3.0


def relevance(rating: float, threshold: float = DEFAULT_RELEVANCE_THRESHOLD) -> bool:
    """An item is relevant when its rating is no less than the threshold."""
    return rating >= threshold


@dataclass(frozen=True)
class GroundTruth:
    """One user's true overall ratings for evaluation.

    ``ratings`` maps rated items to their true overall rating. ``universe``
    is the full candidate pool the recommender was allowed to pick from;
    items in the universe but not in ``ratings`` are treated as rating 0
    (non-relevant) rather than as errors. Asking about an item outside
    the universe is an evaluation error.
    """

    user_id: str
    ratings: Mapping[str, float]
    threshold: float = DEFAULT_RELEVANCE_THRESHOLD
    universe: frozenset[str] = field(default=frozenset())

    def __post_init__(self):
        object.__setattr__(self, "ratings", dict(self.ratings))
        universe = frozenset(self.universe) | frozenset(self.ratings)
        object.__setattr__(self, "universe", universe)

    def rating(self, item_id: str) -> float:
        if item_id not in self.universe:
            raise EvaluationError(
                f"item {item_id!r} is not in user {self.user_id!r}'s ground truth"
            )
        return self.ratings.get(item_id, 0.0)

    def is_relevant(self, item_id: str) -> bool:
        return relevance(self.rating(item_id), self.threshold)

    @property
    def relevant(self) -> frozenset[str]:
        return frozenset(i for i, r in self.ratings.items()
                         if relevance(r, self.threshold))


class ConfusionCounts(NamedTuple):
    tp: int
    fp: int
    fn: int


def confusion(recommended: Sequence[str], truth: GroundTruth) -> ConfusionCounts:
    """Set arithmetic between a recommendation list and the relevant items."""
    rec = list(recommended)
    for item in rec:
        if item not in truth.universe:
            raise EvaluationError(
                f"recommended item {item!r} is not in user {truth.user_id!r}'s ground truth"
            )
    rec_set = set(rec)
    relevant = truth.relevant
    tp = len(rec_set & relevant)
    return ConfusionCounts(tp=tp, fp=len(rec_set) - tp, fn=len(relevant - rec_set))


def f1(counts: ConfusionCounts) -> float:
    """Harmonic mean of precision and recall; 0 whenever a denominator is 0."""
    tp, fp, fn = counts
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def dcg_gain(rating: float) -> float:
    """DCG gain of an item with the given true rating."""
    return 2.0 ** rating - 1.0


def dcg_discounts(n: int) -> list[float]:
    """DCG discounts of positions 1..n."""
    return [max(1.0, math.log2(j)) for j in range(1, n + 1)]


def dcg(ranked: Sequence[str], truth: GroundTruth) -> float:
    """Discounted cumulative gain of one user's ranked list.

    Per-user value only; averaging across users happens in the pipeline.
    """
    items = list(ranked)
    if not items:
        raise EvaluationError("cannot compute dcg of an empty list")
    return sum(dcg_gain(truth.rating(item)) / d
               for item, d in zip(items, dcg_discounts(len(items))))


def ndcg(ranked: Sequence[str], truth: GroundTruth, *,
         ideal_pool: Iterable[str] | None = None) -> float:
    """DCG normalized by the ideal ordering's DCG.

    The ideal list defaults to the evaluated items reordered by
    descending true rating, which keeps the value in [0, 1] for
    truncated lists. Passing ``ideal_pool`` normalizes against the best
    same-length list drawn from that pool instead. When the ideal DCG is
    0 (no gains anywhere) the list cannot be improved, so the value is 1.
    """
    items = list(ranked)
    if not items:
        raise EvaluationError("cannot compute ndcg of an empty list")
    pool = list(ideal_pool) if ideal_pool is not None else items
    ideal = sorted(pool, key=lambda i: (-truth.rating(i), i))[:len(items)]
    ideal_value = dcg(ideal, truth)
    if ideal_value == 0.0:
        return 1.0
    return dcg(items, truth) / ideal_value


def prefix_means(gains: np.ndarray, hits: np.ndarray, lengths: np.ndarray,
                 n_relevant: np.ndarray,
                 n_values: Sequence[int]) -> list[tuple[float, float]]:
    """Mean F1 and NDCG over users of the top-N prefix, for each N in order.

    Row u is user u's ranked list, best first: ``gains[u, j]`` is the
    ``dcg_gain`` of the item at position j + 1 and ``hits[u, j]`` says
    whether it is one of the user's ``n_relevant[u]`` relevant items;
    both are zero from column ``lengths[u]`` on. Every mean equals, bit
    for bit, the mean over rows of ``f1(confusion(top, truth))`` and
    ``ndcg(top, truth)``: sums run in order (``np.cumsum``, like ``sum``;
    never the pairwise ``np.sum``), and the padding only adds +0.0.
    """
    users, width = gains.shape
    if users == 0:
        return [(0.0, 0.0)] * len(n_values)
    disc = np.array(dcg_discounts(width))
    dcg_at = np.cumsum(gains / disc, axis=1)
    tp_at = np.cumsum(hits, axis=1)
    padding = np.arange(width) >= lengths[:, None]
    # padding sorts after every real gain, negative ones included
    ideal_key = np.where(padding, -np.inf, gains)
    out = []
    for n in n_values:
        w = min(n, width)
        tp = tp_at[:, w - 1]
        precision = tp / np.minimum(lengths, n)
        recall = tp / np.maximum(n_relevant, 1)
        f1s = np.divide(2.0 * precision * recall, precision + recall,
                        out=np.zeros(users), where=tp > 0)
        ideal_gains = np.where(padding[:, :w], 0.0,
                               np.sort(ideal_key[:, :w], axis=1)[:, ::-1])
        ideal = np.cumsum(ideal_gains / disc[:w], axis=1)[:, -1]
        ndcgs = np.divide(dcg_at[:, w - 1], ideal, out=np.ones(users),
                          where=ideal != 0.0)
        out.append((sum(f1s.tolist()) / users, sum(ndcgs.tolist()) / users))
    return out
