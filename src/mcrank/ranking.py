"""Scoring a candidate set under any ranking method.

Dominance counting methods (pr, kd) and degree-of-dominance methods
(gd, pg) produce higher-is-better scores; rank aggregation methods
(ar, mr) produce lower-is-better rank values where position one is the
top of the list. ``rank_candidates`` hides the orientation difference
and always returns a descending-is-better ScoredList.

All pairwise scoring is vectorized and processed in row chunks so peak
memory stays bounded for large candidate sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import CandidateSet, MethodSpec, ScoredList
from .errors import DimensionError, DomainError

# Rows per chunk are sized so one criterion pass over a chunk touches at
# most this many (row, candidate) cells, keeping temporaries cache-sized.
_CHUNK_CELLS = 1 << 24


class Orientation(enum.Enum):
    HIGHER_BETTER = "higher_better"
    LOWER_BETTER = "lower_better"


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Raw method scores aligned with the candidate order."""

    scores: np.ndarray = field(repr=False)
    orientation: Orientation

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "scores", arr)

    def __len__(self) -> int:
        return len(self.scores)

    def tolist(self) -> list[float]:
        return self.scores.tolist()


def _chunk_rows(n: int, m: int) -> int:
    return max(1, _CHUNK_CELLS // max(1, n * m))


def _pairwise_gains(x: np.ndarray, start: int, rows: int) -> np.ndarray:
    """Gain of each chunk row over every candidate, shape (rows, n)."""
    n, m = x.shape
    gains = np.zeros((rows, n), dtype=np.float64)
    for j in range(m):
        diff = x[start:start + rows, j][:, None] - x[:, j][None, :]
        np.maximum(diff, 0.0, out=diff)
        gains += diff
    return gains


def average_ranks(values: np.ndarray, *, descending: bool) -> np.ndarray:
    """Fractional 1-based positions; tied values share the average position."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    order = (-values if descending else values).argsort(kind="stable")
    sorted_vals = values[order]
    # tie groups are runs in sorted order; run [s, e) spans positions
    # s+1 .. e, whose average (s + e + 1) / 2 is exact in float64. Array
    # methods, not np.* wrappers: most candidate sets are a few items long,
    # so per-call overhead is the cost here.
    run_start = np.ones(n + 1, dtype=bool)
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=run_start[1:n])
    bounds = run_start.nonzero()[0]
    starts, ends = bounds[:-1], bounds[1:]
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = ((starts + ends + 1) / 2.0).repeat(ends - starts)
    return ranks


def pr_scores(c: CandidateSet) -> ScoreVector:
    """Pareto ranking: each item's score is how many others it dominates."""
    x = c.matrix
    n, m = x.shape
    out = np.zeros(n, dtype=np.float64)
    chunk = _chunk_rows(n, m)
    for s in range(0, n, chunk):
        rows = min(chunk, n - s)
        worse_any = np.zeros((rows, n), dtype=bool)
        better_any = np.zeros((rows, n), dtype=bool)
        # accumulate per criterion: 2-D temporaries stay cache-friendly
        for j in range(m):
            a = x[s:s + rows, j][:, None]
            b = x[:, j][None, :]
            worse_any |= a < b
            better_any |= a > b
        dom = ~worse_any & better_any
        # an identical other item is never dominated, so only true self
        # pairs need masking and they are already false (better_any is
        # false on the diagonal); no explicit diagonal fix needed
        out[s:s + rows] = dom.sum(axis=1)
    return ScoreVector(out, Orientation.HIGHER_BETTER)


def kd_scores(c: CandidateSet, k: float) -> ScoreVector:
    """k-dominance counting: how many others each item k-dominates.

    The relation can hold in both directions for one pair when k > 0;
    the score is the raw count either way.
    """
    kf = float(k)
    if not 0.0 <= kf <= 1.0:
        raise DomainError(f"relaxation factor k must lie in [0, 1], got {k}")
    x = c.matrix
    n, m = x.shape
    out = np.zeros(n, dtype=np.float64)
    chunk = _chunk_rows(n, m)
    for s in range(0, n, chunk):
        rows = min(chunk, n - s)
        n_b = np.zeros((rows, n), dtype=np.int32)
        n_e = np.zeros((rows, n), dtype=np.int32)
        for j in range(m):
            a = x[s:s + rows, j][:, None]
            b = x[:, j][None, :]
            n_b += a > b
            n_e += a == b
        # cross-multiplied threshold; n_e == m covers the self pairs
        dom = (n_e < m) & (n_b * (kf + 1.0) >= m - n_e)
        out[s:s + rows] = dom.sum(axis=1)
    return ScoreVector(out, Orientation.HIGHER_BETTER)


def per_criterion_ranks(c: CandidateSet, m: int) -> np.ndarray:
    """Positions of the candidates on criterion ``m``, best rating first.

    Ties get the average of the positions they span, which keeps ar/mr
    invariant under candidate permutation.
    """
    if not 0 <= m < c.n_criteria:
        raise IndexError(f"criterion index {m} out of range for M={c.n_criteria}")
    return average_ranks(c.matrix[:, m], descending=True)


def ar_scores(c: CandidateSet) -> ScoreVector:
    """Average ranking: sum of per-criterion positions (plain summation)."""
    total = np.zeros(c.n, dtype=np.float64)
    for m in range(c.n_criteria):
        total += per_criterion_ranks(c, m)
    return ScoreVector(total, Orientation.LOWER_BETTER)


def mr_scores(c: CandidateSet) -> ScoreVector:
    """Maximum ranking: best (smallest) per-criterion position."""
    stacked = np.stack([per_criterion_ranks(c, m) for m in range(c.n_criteria)])
    return ScoreVector(stacked.min(axis=0), Orientation.LOWER_BETTER)


def gain(a, b) -> float:
    """Sum of positive rating margins of ``a`` over ``b``."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape or va.ndim != 1:
        raise DimensionError(f"criteria length mismatch: {va.shape} vs {vb.shape}")
    return float(np.maximum(va - vb, 0.0).sum())


def gd_scores(c: CandidateSet) -> ScoreVector:
    """Global detriment: accumulated gains over every other candidate."""
    x = c.matrix
    n, m = x.shape
    out = np.zeros(n, dtype=np.float64)
    chunk = _chunk_rows(n, m)
    for s in range(0, n, chunk):
        rows = min(chunk, n - s)
        gains = _pairwise_gains(x, s, rows)
        # gain against self is zero, so the self pair contributes nothing
        out[s:s + rows] = gains.sum(axis=1)
    return ScoreVector(out, Orientation.HIGHER_BETTER)


def pg_scores(c: CandidateSet) -> ScoreVector:
    """Profit gain: best outgoing gain minus best incoming gain.

    Defined as 0 for a single candidate (no other items to compare).
    """
    x = c.matrix
    n, m = x.shape
    if n == 1:
        return ScoreVector(np.zeros(1), Orientation.HIGHER_BETTER)
    best_out = np.full(n, -np.inf)
    best_in = np.full(n, -np.inf)
    chunk = _chunk_rows(n, m)
    for s in range(0, n, chunk):
        rows = min(chunk, n - s)
        gains = _pairwise_gains(x, s, rows)
        # mask the self pairs out of both maxima
        local = np.arange(s, s + rows)
        gains[local - s, local] = -np.inf
        best_out[s:s + rows] = np.maximum(best_out[s:s + rows], gains.max(axis=1))
        best_in = np.maximum(best_in, gains.max(axis=0))
    return ScoreVector(best_out - best_in, Orientation.HIGHER_BETTER)


def normalize_sub(s: ScoreVector) -> np.ndarray:
    """Map subsort scores into [0, 1), higher is better, ties preserved.

    Positions are fractional average ranks under the vector's own
    orientation (best item at position 1); the result is (n - rho) / n,
    which is scale-free and stays inside [0, (n-1)/n] even when all
    scores coincide.
    """
    n = len(s)
    descending = s.orientation is Orientation.HIGHER_BETTER
    rho = average_ranks(s.scores, descending=descending)
    return (n - rho) / n


def hybrid_scores(c: CandidateSet, major: MethodSpec, sub: MethodSpec) -> ScoreVector:
    """Major integer score plus a [0, 1) subsort refinement.

    Because major scores are non-negative integers and the sub term is
    below one, strict major orderings are always preserved; the subsort
    only separates items the major left tied.
    """
    MethodSpec.hybrid(major, sub)  # rejects a wrong major or sub kind
    major_vec = method_scores(c, major)
    sub_vec = method_scores(c, sub)
    return ScoreVector(major_vec.scores + normalize_sub(sub_vec),
                       Orientation.HIGHER_BETTER)


def method_scores(c: CandidateSet, spec: MethodSpec) -> ScoreVector:
    """Dispatch a MethodSpec to its scoring function."""
    if spec.kind == "pr":
        return pr_scores(c)
    if spec.kind == "kd":
        return kd_scores(c, spec.k)
    if spec.kind == "ar":
        return ar_scores(c)
    if spec.kind == "mr":
        return mr_scores(c)
    if spec.kind == "gd":
        return gd_scores(c)
    if spec.kind == "pg":
        return pg_scores(c)
    if spec.kind == "hybrid":
        return hybrid_scores(c, spec.major, spec.sub)
    raise DomainError(f"unknown ranking method {spec.kind!r}")


def rank_candidates(c: CandidateSet, spec: MethodSpec) -> ScoredList:
    """Score and materialize the descending-is-better list.

    Lower-is-better scores are negated first so the list is uniformly
    ordered; remaining ties break by ascending item id.
    """
    vec = method_scores(c, spec)
    scores = vec.scores
    if vec.orientation is Orientation.LOWER_BETTER:
        scores = -scores
    return ScoredList.from_pairs(zip(c.item_ids, scores.tolist()))


def top_n(scored: ScoredList, n: int) -> ScoredList:
    """First min(n, length) entries; a prefix of a valid list is valid."""
    if n < 1:
        raise DomainError(f"top-n length must be positive, got {n}")
    return ScoredList(scored.entries[:n])
