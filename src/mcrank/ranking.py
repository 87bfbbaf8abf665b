"""Scoring a candidate set under any ranking method.

Every scorer returns a fresh float64 array aligned with the candidate
order. Dominance counting methods (pr, kd), degree-of-dominance methods
(gd, pg) and hybrids produce higher-is-better scores; rank aggregation
methods (ar, mr) produce positions, where position one is the top of the
list and lower wins. ``rank_candidates`` negates those once and always
returns a descending-is-better ScoredList.

All pairwise scoring is one vectorized pass over cache-sized row chunks,
so peak memory stays bounded for large candidate sets, and a hybrid with
a gd/pg subsort gets its major and its gains from the same pass.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import CandidateSet, MethodSpec, ScoredList
from .errors import DomainError

# Rows per chunk are sized so that one chunk's (rows, n) differences, taken
# over all M criteria, number at most this many cells: 16 rows at n = 2,000,
# M = 4, which keeps each (rows, n) temporary (256 KB as float64) in cache.
_CHUNK_CELLS = 1 << 17

# From here up the spacing of float64 values is at least 2^-1022, the
# smallest normal, so a difference of two such distinct values is normal.
_EXACT_DIFF = 2.0 ** -970

# Method kinds whose scores are positions, where lower wins.
_LOWER_BETTER = ("ar", "mr")


def _chunk_rows(n: int, m: int) -> int:
    return max(1, _CHUNK_CELLS // max(1, n * m))


@functools.lru_cache(maxsize=64)
def _least_better(m: int, k: float) -> np.ndarray:
    """Per count n_e of equal criteria, the least count n_b of better ones
    with which one candidate k-dominates another.

    The test is the threshold ``n_b * (k + 1) >= m - n_e`` with n_e < m,
    which reads only (n_b, n_e) (Chan et al. 2006); identical vectors
    (n_e = m, n_b = 0) get 1, so they never dominate. int8 counters hold
    every count up to M = 127.
    """
    table = np.ones(m + 1, dtype=np.int8 if m <= 127 else np.int32)
    for n_e in range(m):
        table[n_e] = min(n_b for n_b in range(m - n_e + 1)
                         if n_b * (k + 1.0) >= m - n_e)
    table.flags.writeable = False
    return table


def _pairwise(c: CandidateSet, k: float | None = None,
              sub: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Dominance counts and gd/pg scores of every candidate, in one pass.

    ``k`` asks for how many others each candidate k-dominates (k = 0 is
    Pareto dominance), ``sub`` for its ``"gd"`` or ``"pg"`` score; what is
    not asked for comes back as zeros. Per row chunk and criterion a - b is
    formed once, max(a - b, 0) is the gain, summed in criterion order, and
    a > b, a == b are read as a - b > 0, a - b == 0. That reading is exact
    whatever the floating-point mode when no nonzero value lies below
    2^-970: then two distinct values are at least 2^-1022 apart, so their
    difference is never subnormal and never flushed to zero (an overflowed
    difference keeps its sign). A set with such a value compares a with b
    directly for dominance.
    """
    pareto = k == 0.0
    kdom = k is not None and not pareto
    x = c.matrix
    n, m = x.shape
    mag = np.abs(x)
    direct = bool(((mag > 0.0) & (mag < _EXACT_DIFF)).any())
    cols = np.ascontiguousarray(x.T)
    chunk = _chunk_rows(n, m)
    count, out, best_in = np.zeros(n), np.zeros(n), np.full(n, -np.inf)
    diff = np.empty((min(chunk, n), n))
    flag = np.empty(diff.shape, dtype=bool)
    if kdom:
        least = _least_better(m, k)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n, chunk):
            rows = min(chunk, n - s)
            d, f = diff[:rows], flag[:rows]
            if pareto:  # no criterion worse and one better
                worse, better = np.zeros((2, rows, n), dtype=bool)
            elif kdom:
                n_b, n_e = np.zeros((2, rows, n), dtype=least.dtype)
            if sub is not None:
                gains = np.zeros((rows, n))
            for j in range(m):
                a, b = cols[j, s:s + rows, None], cols[j]
                np.subtract(a, b, out=d)
                lhs, rhs = (a, b) if direct else (d, 0.0)
                if pareto:
                    worse |= np.less(lhs, rhs, out=f)
                    better |= np.greater(lhs, rhs, out=f)
                elif kdom:
                    n_b += np.greater(lhs, rhs, out=f).view(np.int8)
                    n_e += np.equal(lhs, rhs, out=f).view(np.int8)
                if sub is not None:
                    gains += np.maximum(d, 0.0, out=d)
            # self pairs are equal on every criterion, so never dominated;
            # int32 row counts are exact below 2^31 candidates
            if pareto or kdom:
                dom = better > worse if pareto else n_b >= least.take(n_e)
                count[s:s + rows] = dom.sum(axis=1, dtype=np.int32)
            # a self pair's gain is +0.0 and no gain is below it, so self
            # pairs change no maximum; a lone candidate's pg is 0 - 0
            if sub == "gd":
                out[s:s + rows] = gains.sum(axis=1)
            elif sub == "pg":
                out[s:s + rows] = gains.max(axis=1)
                np.maximum(best_in, gains.max(axis=0), out=best_in)
        if sub == "pg":
            out -= best_in
    if sub is not None and not np.isfinite(out).all():
        raise DomainError(
            f"{sub} gains overflow for user {c.user_id!r}: n * M * (largest "
            f"per-criterion spread) of its candidates must be finite")
    return count, out


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


def pr_scores(c: CandidateSet) -> np.ndarray:
    """Pareto ranking: each item's score is how many others it dominates."""
    return _pairwise(c, k=0.0)[0]


def kd_scores(c: CandidateSet, k: float) -> np.ndarray:
    """k-dominance counting: how many others each item k-dominates.

    The relation can hold in both directions for one pair when k > 0;
    the score is the raw count either way.
    """
    kf = float(k)
    if not 0.0 <= kf <= 1.0:
        raise DomainError(f"relaxation factor k must lie in [0, 1], got {k}")
    return _pairwise(c, k=kf)[0]


def per_criterion_ranks(c: CandidateSet, m: int) -> np.ndarray:
    """Positions of the candidates on criterion ``m``, best rating first.

    Ties get the average of the positions they span, which keeps ar/mr
    invariant under candidate permutation.
    """
    if not 0 <= m < c.n_criteria:
        raise IndexError(f"criterion index {m} out of range for M={c.n_criteria}")
    return average_ranks(c.matrix[:, m], descending=True)


def ar_scores(c: CandidateSet) -> np.ndarray:
    """Average ranking: sum of per-criterion positions (plain summation)."""
    total = np.zeros(c.n, dtype=np.float64)
    for m in range(c.n_criteria):
        total += per_criterion_ranks(c, m)
    return total


def mr_scores(c: CandidateSet) -> np.ndarray:
    """Maximum ranking: best (smallest) per-criterion position."""
    stacked = np.stack([per_criterion_ranks(c, m) for m in range(c.n_criteria)])
    return stacked.min(axis=0)


def gd_scores(c: CandidateSet) -> np.ndarray:
    """Global detriment: accumulated gains over every other candidate."""
    return _pairwise(c, sub="gd")[1]


def pg_scores(c: CandidateSet) -> np.ndarray:
    """Profit gain: best outgoing gain minus best incoming gain.

    Defined as 0 for a single candidate (no other items to compare).
    """
    return _pairwise(c, sub="pg")[1]


def normalize_sub(scores: np.ndarray, kind: str) -> np.ndarray:
    """Map ``kind`` subsort scores into [0, 1), higher is better, ties kept.

    Positions are fractional average ranks in the kind's own direction
    (best item at position 1); the result is (n - rho) / n, which is
    scale-free and stays inside [0, (n-1)/n] even when all scores
    coincide.
    """
    n = len(scores)
    rho = average_ranks(scores, descending=kind not in _LOWER_BETTER)
    return (n - rho) / n


def hybrid_scores(c: CandidateSet, major: MethodSpec, sub: MethodSpec) -> np.ndarray:
    """Major integer score plus a [0, 1) subsort refinement.

    Because major scores are non-negative integers and the sub term is
    below one, strict major orderings are always preserved; the subsort
    only separates items the major left tied.
    """
    MethodSpec.hybrid(major, sub)  # rejects a wrong major or sub kind
    if sub.kind in ("gd", "pg"):  # both parts from one pairwise pass
        counts, sub_scores = _pairwise(
            c, 0.0 if major.kind == "pr" else major.k, sub.kind)
    else:
        counts = method_scores(c, major)
        sub_scores = method_scores(c, sub)
    return counts + normalize_sub(sub_scores, sub.kind)


def method_scores(c: CandidateSet, spec: MethodSpec) -> np.ndarray:
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

    Lower-is-better positions are negated first so the list is uniformly
    ordered; remaining ties break by ascending item id.
    """
    scores = method_scores(c, spec)
    if spec.kind in _LOWER_BETTER:
        scores = -scores
    return ScoredList.from_pairs(zip(c.item_ids, scores.tolist()))


def top_n(scored: ScoredList, n: int) -> ScoredList:
    """First min(n, length) entries; a prefix of a valid list is valid."""
    if n < 1:
        raise DomainError(f"top-n length must be positive, got {n}")
    return ScoredList(scored.entries[:n])
