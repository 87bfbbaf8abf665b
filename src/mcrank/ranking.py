"""Scoring a candidate set under any ranking method.

``method_scores`` and ``score_methods`` return fresh float64 arrays
aligned with ``c.item_ids``. Dominance counting methods (pr, kd),
degree-of-dominance methods (gd, pg) and hybrids produce higher-is-better
scores; rank aggregation methods (ar, mr) produce positions, where
position one is the top of the list and lower wins. ``rank_candidates``
negates those once and always returns a descending-is-better ScoredList.

All pairwise scoring is one vectorized pass over cache-sized row chunks,
so peak memory stays bounded for large candidate sets.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .core import MAJOR_KINDS, CandidateSet, MethodSpec, ScoredList
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


def _counter_dtype(m: int) -> type:
    return np.int8 if m <= 127 else np.int32


@functools.lru_cache(maxsize=64)
def _least_better(m: int, k: float) -> np.ndarray:
    """Per count n_e of equal criteria, the least count n_b of better ones
    with which one candidate k-dominates another.

    The test is the threshold ``n_b * (k + 1) >= m - n_e`` with n_e < m,
    which reads only (n_b, n_e) (Chan et al. 2006); identical vectors
    (n_e = m, n_b = 0) get 1, so they never dominate. int8 counters hold
    every count up to M = 127.
    """
    table = np.ones(m + 1, dtype=_counter_dtype(m))
    for n_e in range(m):
        table[n_e] = min(n_b for n_b in range(m - n_e + 1)
                         if n_b * (k + 1.0) >= m - n_e)
    table.flags.writeable = False
    return table


def _pairwise(c: CandidateSet, ks: set[float],
              gains: set[str]) -> tuple[dict[float, np.ndarray], dict[str, np.ndarray]]:
    """Dominance counts for every k in ``ks`` and the gd/pg scores named in
    ``gains``, all from one pass over the pairs.

    Returns ({k: how many others each candidate k-dominates}, {kind:
    scores}); k = 0 is Pareto dominance. Per row chunk and criterion a - b
    is formed once, max(a - b, 0) is the gain, summed in criterion order,
    and a > b, a == b are read as a - b > 0, a - b == 0. That reading is
    exact whatever the floating-point mode when no nonzero value lies below
    2^-970: then two distinct values are at least 2^-1022 apart, so their
    difference is never subnormal and never flushed to zero (an overflowed
    difference keeps its sign). A set with such a value compares a with b
    directly for dominance. Every k reads the same per-pair counts (n_b, n_e)
    of better and equal criteria; Pareto dominance alone is cheaper as two
    boolean planes, any worse and any better.
    """
    x = c.matrix
    n, m = x.shape
    pareto = ks == {0.0}
    tables = {} if pareto else {k: _least_better(m, k) for k in ks}
    mag = np.abs(x)
    direct = bool(((mag > 0.0) & (mag < _EXACT_DIFF)).any())
    cols = np.ascontiguousarray(x.T)
    chunk = _chunk_rows(n, m)
    counts = {k: np.zeros(n) for k in ks}
    scored = {kind: np.zeros(n) for kind in gains}
    best_in = np.full(n, -np.inf)
    diff = np.empty((min(chunk, n), n))
    flag = np.empty(diff.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n, chunk):
            rows = min(chunk, n - s)
            d, f = diff[:rows], flag[:rows]
            if pareto:  # no criterion worse and one better
                worse, better = np.zeros((2, rows, n), dtype=bool)
            elif tables:
                n_b, n_e = np.zeros((2, rows, n), dtype=_counter_dtype(m))
            if gains:
                plane = np.zeros((rows, n))
            for j in range(m):
                a, b = cols[j, s:s + rows, None], cols[j]
                np.subtract(a, b, out=d)
                lhs, rhs = (a, b) if direct else (d, 0.0)
                if pareto:
                    worse |= np.less(lhs, rhs, out=f)
                    better |= np.greater(lhs, rhs, out=f)
                elif tables:
                    n_b += np.greater(lhs, rhs, out=f).view(np.int8)
                    n_e += np.equal(lhs, rhs, out=f).view(np.int8)
                if gains:
                    plane += np.maximum(d, 0.0, out=d)
            # self pairs are equal on every criterion, so never dominated;
            # int32 row counts are exact below 2^31 candidates
            if pareto:
                counts[0.0][s:s + rows] = (better > worse).sum(axis=1, dtype=np.int32)
            for k, least in tables.items():
                counts[k][s:s + rows] = (n_b >= least.take(n_e)).sum(
                    axis=1, dtype=np.int32)
            # a self pair's gain is +0.0 and no gain is below it, so self
            # pairs change no maximum; a lone candidate's pg is 0 - 0
            if "gd" in scored:
                scored["gd"][s:s + rows] = plane.sum(axis=1)
            if "pg" in scored:
                scored["pg"][s:s + rows] = plane.max(axis=1)
                np.maximum(best_in, plane.max(axis=0), out=best_in)
        if "pg" in scored:
            scored["pg"] -= best_in
    for kind in sorted(scored):
        if not np.isfinite(scored[kind]).all():
            raise DomainError(
                f"{kind} gains overflow for user {c.user_id!r}: n * M * (largest "
                f"per-criterion spread) of its candidates must be finite")
    return counts, scored


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional 1-based positions along the last axis, highest value first
    (negate to rank the lowest first); tied values share the average
    position. Each row of a 2-D array is ranked on its own."""
    values = np.asarray(values, dtype=np.float64)
    n, size = values.shape[-1], values.size
    order = (-values).argsort(axis=-1, kind="stable")
    # the rows, each sorted, laid end to end; row_start[i] is where the row
    # of flat position i begins
    row_start = np.arange(0, size, max(n, 1)).repeat(n)
    flat = order.ravel() + row_start
    sorted_vals = values.ravel()[flat]
    # tie groups are runs in that order, and each row starts a new run; run
    # [s, e) of the row starting at r spans positions s-r+1 .. e-r, whose
    # average (s + e + 1 - 2r) / 2 is exact in float64. Array methods, not
    # np.* wrappers: most sets are a few items long, so per-call overhead
    # is the cost here.
    run_start = np.ones(size + 1, dtype=bool)
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=run_start[1:size])
    run_start[:size:max(n, 1)] = True
    bounds = run_start.nonzero()[0]
    starts, ends = bounds[:-1], bounds[1:]
    ranks = np.empty(values.shape)
    ranks.reshape(-1)[flat] = ((starts + ends + 1 - 2 * row_start[starts]) / 2.0
                               ).repeat(ends - starts)
    return ranks


def method_scores(c: CandidateSet, spec: MethodSpec) -> np.ndarray:
    """Scores of ``c`` under one MethodSpec; see ``score_methods``."""
    return score_methods(c, [spec])[0]


def score_methods(c: CandidateSet, specs: Sequence[MethodSpec]) -> list[np.ndarray]:
    """Scores of ``c`` under each spec, in order, from one pairwise pass.

    Per candidate: ``pr`` counts the others it Pareto-dominates and
    ``kd:K`` those it k-dominates (for K > 0 both of a pair can; ``kd:0``
    is ``pr``). ``ar`` sums its per-criterion positions (best rating first,
    ties sharing the average position) and ``mr`` takes the smallest; lower
    wins. ``gd`` sums its gains max(a - b, 0) over every other candidate
    and criterion; ``pg`` is its best outgoing minus its best incoming gain
    (0 for a lone candidate). A hybrid ``M+S`` adds to the integer major
    score the subsort's share ``(n - rho) / n`` in [0, 1), rho being its
    average position best first, so it only separates candidates the major
    left tied.

    The pass counts dominance for every k asked for (pr is k = 0, a
    hybrid's major included) and forms one gains plane for gd and pg. One
    ``average_ranks`` call ranks every criterion, for ar, mr and their
    subsorts, and one ranks every distinct hybrid subsort. Each array is
    fresh and equal, bit for bit, to what scoring its spec alone gives.
    """
    parts = [p for spec in specs
             for p in ((spec.major, spec.sub) if spec.kind == "hybrid" else (spec,))]
    kinds = {p.kind for p in parts}
    counts, subs = _pairwise(c, {_major_k(p) for p in parts if p.kind in MAJOR_KINDS},
                             kinds & {"gd", "pg"})
    if kinds & set(_LOWER_BETTER):
        ranks = average_ranks(np.ascontiguousarray(c.matrix.T))
        if "ar" in kinds:
            subs["ar"] = ranks.sum(axis=0)
        if "mr" in kinds:
            subs["mr"] = ranks.min(axis=0)
    sub_kinds = sorted({spec.sub.kind for spec in specs if spec.kind == "hybrid"})
    if sub_kinds:
        # positions negated rank best first too; -0.0 == 0.0 keeps ties
        rho = average_ranks(np.array([-subs[k] if k in _LOWER_BETTER else subs[k]
                                      for k in sub_kinds]))
        shares = dict(zip(sub_kinds, (c.n - rho) / c.n))

    def part(p: MethodSpec) -> np.ndarray:
        return counts[_major_k(p)] if p.kind in MAJOR_KINDS else subs[p.kind]

    return [part(spec.major) + shares[spec.sub.kind]
            if spec.kind == "hybrid" else part(spec).copy() for spec in specs]


def _major_k(spec: MethodSpec) -> float:
    return 0.0 if spec.kind == "pr" else spec.k


def _best_first(scores: Sequence[np.ndarray],
                kinds: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Candidate indices best first, one row per score array, and the
    descending-is-better keys in that order.

    Positions (ar, mr) are negated once. The sort is stable over the
    set's id-ordered rows, so equal keys break by ascending item id. The
    result is checked against the ScoredList invariant here, as the
    evaluate path builds no ScoredList.
    """
    keys = np.array([-s if kind in _LOWER_BETTER else s
                     for s, kind in zip(scores, kinds)])
    order = np.argsort(-keys, axis=1, kind="stable")
    keys = np.take_along_axis(keys, order, axis=1)
    if ((keys[:, 1:] > keys[:, :-1])
            | ((keys[:, 1:] == keys[:, :-1]) & (order[:, 1:] <= order[:, :-1]))).any():
        raise DomainError("ranked list must be non-increasing in score, with tied "
                          "scores ordered by ascending item id")
    return order, keys


def rank_candidates(c: CandidateSet, spec: MethodSpec) -> ScoredList:
    """Score and materialize the descending-is-better list.

    Lower-is-better positions are negated first so the list is uniformly
    ordered; remaining ties break by ascending item id.
    """
    order, keys = _best_first([method_scores(c, spec)], [spec.kind])
    return ScoredList(
        tuple(zip([c.item_ids[i] for i in order[0].tolist()], keys[0].tolist())))


def top_n(scored: ScoredList, n: int) -> ScoredList:
    """First min(n, length) entries; a prefix of a valid list is valid."""
    if n < 1:
        raise DomainError(f"top-n length must be positive, got {n}")
    return ScoredList(scored.entries[:n])
