"""Scoring candidate sets under any ranking method, and ranking them.

``method_scores`` and ``score_methods`` return fresh float64 arrays
aligned with ``c.item_ids``. Dominance counting methods (pr, kd),
degree-of-dominance methods (gd, pg) and hybrids produce higher-is-better
scores; rank aggregation methods (ar, mr) produce positions, where
position one is the top of the list and lower wins.

``ranked_slices`` is the one path to best-first lists, for
``rank_candidates`` and the evaluate path alike. It scores equal-size
sets as batches, B sets of n candidates in, one (B, methods, n) table
out, and one budget, ``_CHUNK_CELLS``, bounds that table and each
temporary of the pairwise pass, its bit-planes included, and of the
front walk. All of them work in chunks laid out by the one ``_tiling``
rule: as many whole sets as fit, or else a run of rows of one set. Every
set scores bit for bit as it does alone, whatever batch it is in.

Dominance reads integer rank codes, bit-parallel: per criterion, one bit
a pair, 64 pairs a word, says whether a candidate is better than
another, and every k is one threshold test on the counts of those bits
(see ``_pairwise``). Only gd forms every pair's gain, the gains plane.
pg without gd takes each candidate's best gain over the lower Pareto
front and from the upper one, the skyline (Börzsönyi, Kossmann and
Stocker 2001), which the dominance pass marks. No bit changes, and where
2,000 correlated candidates put a few dozen on each front, the walk is a
small part of the plane's work.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import MAJOR_KINDS, CandidateSet, MethodSpec, ScoredList
from .errors import DomainError

# A chunk's (sets, rows, n) differences, taken over all M criteria, number
# at most this many cells: 7 whole sets at n = 67, M = 4, or 16 rows of
# one set at n = 2,000, M = 4, which keeps each temporary (256 KB as
# float64) in cache. A dominance tile's prefix tables, M (n + 1) rows a
# set, hold at most a quarter as many words: 4-word columns at n = 2,000,
# M = 4, and a chunk's planes a 16th per criterion: 1,024 rows of one
# set. A slice's (sets, methods, n) score table holds at most as many
# cells: 195 sets of 67 candidates under 10 methods.
_CHUNK_CELLS = 1 << 17

# Method kinds whose scores are positions, where lower wins.
_LOWER_BETTER = ("ar", "mr")


def _tiling(n: int, m: int, cols: int | None = None) -> tuple[int, int]:
    """(sets, rows) of one chunk of a batch of sets of n candidates, each
    row compared with ``cols`` others (n by default) over m criteria:
    ``rows`` rows of each set fit in ``_CHUNK_CELLS`` cells, and a chunk is
    as many whole sets as fit, or else ``rows`` rows of one."""
    rows = max(1, _CHUNK_CELLS // ((n if cols is None else cols) * m))
    return max(1, rows // n), min(rows, n)


@functools.cache
def _thresholds(m: int, k: float) -> tuple[tuple[int, int], ...]:
    """Terms (i, t): over m criteria, a candidate k-dominates another
    exactly when some term has n_b >= i and n_w <= t, its counts of better
    and worse criteria. k-dominance (Chan et al. 2006), n_b >= 1 and n_w <=
    k * n_b on the float k read exactly, is n_w <= t(i) = floor(k * i) for
    some i <= n_b; Pareto dominance is t = 0. As n_w <= m - n_b, t(i) is
    capped at m - i, and a term is kept only if its t beats every earlier
    one's (an earlier term with a t as large is weaker)."""
    terms: list[tuple[int, int]] = []
    for i in range(1, m + 1):
        t = min(math.floor(Fraction(k) * i), m - i)
        if not terms or t > terms[-1][1]:
            terms.append((i, t))
    return tuple(terms)


def _sliced_count(planes: Iterable[np.ndarray]) -> list[np.ndarray]:
    """How many of the equal-shape bit planes set each bit, as binary
    digits, lowest first, each a plane of that shape: a ripple-carry add a
    plane, with a new top digit each time the count of planes added reaches
    a power of two. The planes are overwritten."""
    bits: list[np.ndarray] = []
    for q, carry in enumerate(planes, 1):
        for digit in bits:
            nxt = digit & carry
            digit ^= carry
            carry = nxt
        if q & (q - 1) == 0:
            bits.append(carry)
    return bits


def _at_least(bits: Sequence[np.ndarray], t: int) -> np.ndarray:
    """Where the count sliced in ``bits`` is at least t, 1 <= t < 2 ** len(bits):
    from the low bit up, the count's bits to l are at least t's when bit l
    is set and, if t's is too, the lower bits are at least t's."""
    hit = None  # no bit read yet: 0 >= 0 everywhere
    for l, digit in enumerate(bits):
        if t >> l & 1:
            hit = digit if hit is None else digit & hit
        elif hit is not None:
            hit = digit | hit
    return hit


def _pairwise(x: np.ndarray, ks: set[float], gains: set[str]
              ) -> tuple[dict[float, np.ndarray], dict[str, np.ndarray]]:
    """Dominance counts for every k in ``ks`` and the gd/pg scores named in
    ``gains`` of each set of the (B, n, M) batch ``x``.

    Returns ({k: (B, n) how many others each candidate k-dominates},
    {kind: (B, n) scores}); k = 0 is Pareto dominance.

    Dominance is bit-parallel, as in bitmap skylines (Tan, Eng and Ooi
    2001): ``_code_planes`` packs per criterion whether a is better than b
    and whether it is not worse, 64 pairs a word, from the rank codes
    (``_rank_codes``), exact in any floating-point mode. ``_sliced_count``
    adds each kind's M planes, and every k, Pareto included, is one exact
    test on the two counts: an OR over its ``_thresholds`` of n_b >= i and
    n_w <= t, read as M - n_w >= M - t.

    A gain of a over b is max(a - b, 0) summed in criterion order from
    +0.0; gd and pg beside it read the gains plane (``_plane_gains``). pg
    without gd reads the Pareto fronts. Correctly rounded subtraction,
    max(., 0) and addition are monotone, so if b' <= b on every criterion,
    a's gain over b' is at least its gain over b, bit for bit. So a's best
    outgoing gain is reached at a member of the lower front (the
    candidates that Pareto-dominate no other one), and its best incoming
    gain at a member of the upper front (those no other one dominates).
    The k = 0 test marks both fronts, and ``_front_gains`` takes the two
    maxima over their members alone; as ``max`` is exact, no bit changes.
    When the widest front holds more than n / 2 candidates (every
    candidate is on both fronts when none dominates another), that walk
    would cover more pairs than the plane, so pg reads the plane instead.
    """
    b, n, m = x.shape
    fronts = gains == {"pg"}
    # the ks that share each test, Pareto's among them when fronts are marked
    tests: dict[tuple[tuple[int, int], ...], list[float]] = {}
    for k in ks | {0.0} if fronts else ks:
        tests.setdefault(_thresholds(m, k), []).append(k)
    cols = np.ascontiguousarray(x.transpose(2, 0, 1))
    counts = {k: np.zeros((b, n)) for k in ks}
    dominant, dominated = np.zeros((2, b, n), dtype=bool)
    for sets, rows, first, planes in _code_planes(_rank_codes(cols)) if tests else ():
        n_b, n_nw = zip(*_sliced_count(planes))
        for terms, group in tests.items():
            # bits past the last candidate, like self pairs, are never
            # better, so never dominate
            beats = functools.reduce(np.bitwise_or, [
                _at_least(n_b, i) & _at_least(n_nw, m - t) if t < m - i else _at_least(n_b, i)
                for i, t in terms])
            count = np.bitwise_count(beats).sum(axis=-1)
            for k in ks.intersection(group):
                counts[k][sets, rows] += count
            if fronts and 0.0 in group:
                dominant[sets, rows] |= beats.any(axis=-1)
                below = dominated[sets, first:first + 64 * beats.shape[-1]]
                below |= np.unpackbits(
                    np.bitwise_or.reduce(beats, axis=1).astype("<u8", copy=False).view(np.uint8),
                    axis=-1, count=below.shape[-1], bitorder="little").view(bool)
    with np.errstate(over="ignore", invalid="ignore"):
        if fronts:
            front = np.concatenate([~dominant, ~dominated])
            if 2 * int(front.sum(axis=1).max()) <= n:
                # b's gain over a is -a's over -b, bit for bit (x - y is
                # x + (-y)), so the upper front's walk is the lower's on -x
                best = _front_gains(np.concatenate([cols, -cols], axis=1), front)
                return counts, {"pg": best[:b] - best[b:]}
        return counts, _plane_gains(cols, gains) if gains else {}


def _code_planes(codes: np.ndarray) -> Iterator[tuple[slice, slice, int, Iterator[np.ndarray]]]:
    """The bit planes of the (M, B, n) rank codes of a batch, chunk by chunk
    as (sets, rows, first, planes), ``planes`` yielding per criterion a (2,
    sets, rows, words) uint64 plane whose bit c of word w is set, in [0],
    when the row's candidate codes above candidate ``first + 64 * w + c``
    and, in [1], when it codes at least as high; read them before the next
    chunk. For each tile of ``words`` words of candidates, a prefix-OR
    table per (criterion, set) holds in row c the tile's candidates coded
    below c, so a candidate coded c reads its planes in rows c and c + 1.
    The tables of a tile, M (n + 1) rows a set, fit a quarter of
    ``_CHUNK_CELLS`` words up to n = 8,191 at M = 4, and the chunks follow
    ``_tiling`` over ``words`` columns of max(M, 32) criteria, so each
    criterion's planes take at most a 16th: 1,024 rows of one set, 64 KB,
    at n = 2,000, M = 4."""
    m, b, n = codes.shape
    # the dozen or so planes live at once stay in cache
    words = max(1, min(-(-n // 64), _CHUNK_CELLS // (4 * m * (n + 1))))
    step_sets, step_rows = _tiling(n, max(m, 32), words)
    bits = np.uint64(1) << (np.arange(n) % 64).astype(np.uint64)
    for s in range(0, b, step_sets):
        sets = slice(s, s + step_sets)
        size = len(codes[0, sets])
        # row c of (criterion j, set s) is row start + c of all the tables
        start = (n + 1) * np.arange(m * size).reshape(m, size, 1)
        lower = start + codes[:, sets]
        for first in range(0, n, 64 * words):
            width = min(64 * words, n - first)
            wide = -(-width // 64)
            # the bits of one word's candidates differ: their sum is an OR.
            # ufunc.at takes flat operands: numpy 2.4.6 reads past a 1-D
            # value array broadcast over a 2-D index
            table = np.zeros((m * size, n + 1, wide), dtype=np.uint64)
            np.add.at(table.reshape(-1), ((lower[..., first:first + width] + 1) * wide
                                          + np.arange(width) // 64).ravel(),
                      bits[None, :width].repeat(m * size, axis=0).ravel())
            np.bitwise_or.accumulate(table, axis=1, out=table)
            table = table.reshape(-1, wide)
            for r in range(0, n, step_rows):
                rows = slice(r, r + step_rows)
                at = lower[:, None, :, rows] + np.arange(2)[:, None, None]
                yield sets, rows, first, (table.take(at[j], axis=0) for j in range(m))


def _plane_gains(cols: np.ndarray, gains: set[str]) -> dict[str, np.ndarray]:
    """gd and pg, as named in ``gains``, from every pair's gain over the (M,
    B, n) criterion columns ``cols`` in ``_tiling`` chunks: gd sums a
    candidate's row, pg is its row's maximum less its column's."""
    m, b, n = cols.shape
    scored = {kind: np.zeros((b, n)) for kind in gains}
    best_in = np.full((b, n), -np.inf)
    step_sets, step_rows = _tiling(n, m)
    diff = np.empty((min(step_sets, b), step_rows, n))
    for s, r in itertools.product(range(0, b, step_sets), range(0, n, step_rows)):
        sets, rows = slice(s, s + step_sets), slice(r, r + step_rows)
        d = diff[:min(step_sets, b - s), :min(step_rows, n - r)]
        pair_gains = np.zeros(d.shape)
        for j in range(m):
            np.subtract(cols[j, sets, rows, None], cols[j, sets, None], out=d)
            pair_gains += np.maximum(d, 0.0, out=d)
        # a self pair's gain is +0.0 and no gain is below it, so self pairs
        # change no maximum; a lone candidate's pg is 0 - 0
        if "gd" in gains:
            scored["gd"][sets, rows] = pair_gains.sum(axis=2)
        if "pg" in gains:
            scored["pg"][sets, rows] = pair_gains.max(axis=2)
            np.maximum(best_in[sets], pair_gains.max(axis=1), out=best_in[sets])
    if "pg" in gains:
        scored["pg"] -= best_in
    return scored


def _front_gains(cols: np.ndarray, front: np.ndarray) -> np.ndarray:
    """Each candidate's best gain over the members of its set's ``front``,
    a (B, n) mask over the (M, B, n) criterion columns ``cols``, as a
    (B, n) table; the gain is the plane's, max(a - b, 0) summed in
    criterion order from +0.0. Each set's members are gathered first and
    padded to the widest front with +inf, whose gain reads +0.0 as a self
    pair's does, so padding changes no maximum. The pairs are walked in
    ``_tiling`` chunks of (sets, rows, front width)."""
    m, b, n = cols.shape
    sizes = front.sum(axis=1)
    width = int(sizes.max())
    first = np.argsort(~front, axis=1, kind="stable")[:, :width]
    members = cols[:, np.arange(b)[:, None], first]
    members[:, np.arange(width) >= sizes[:, None]] = np.inf
    best = np.empty((b, n))
    step_sets, step_rows = _tiling(n, m, width)
    diff = np.empty((min(step_sets, b), step_rows, width))
    total = np.empty(diff.shape)
    for s, r in itertools.product(range(0, b, step_sets), range(0, n, step_rows)):
        sets, rows = slice(s, s + step_sets), slice(r, r + step_rows)
        d = diff[:min(step_sets, b - s), :min(step_rows, n - r)]
        g = total[:d.shape[0], :d.shape[1]]
        g.fill(0.0)
        for j in range(m):
            g += np.maximum(np.subtract(cols[j, sets, rows, None], members[j, sets, None],
                                        out=d), 0.0, out=d)
        best[sets, rows] = g.max(axis=2)
    return best


def _rank_codes(cols: np.ndarray) -> np.ndarray:
    """Dense rank codes of the (M, B, n) table of every criterion column of
    every set of a batch, in the same layout: in each column the lowest
    value codes 0 and each next distinct value one more, so codes compare
    as the values do, and equal values (-0.0 and 0.0 included) share a
    code. Codes are int16 while a set holds at most 2^15 candidates (codes
    up to 32,767), else int32.
    """
    m, b, n = cols.shape
    flat, row_start, run_start = _sorted_runs(cols.reshape(m * b, n))
    runs = run_start[:-1].cumsum()
    codes = np.empty(cols.size, dtype=np.int16 if n <= 1 << 15 else np.int32)
    codes[flat] = runs - runs[row_start]
    return codes.reshape(m, b, n)


def _sorted_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of the (rows, n) float64 table ``values`` sorted lowest
    first, the rows laid end to end: (flat, row_start, run_start).
    ``flat[i]`` is the position in ``values.ravel()`` of sorted position
    i, ``row_start[i]`` where the row of sorted position i begins, and
    ``run_start[i]`` whether i begins a run of equal values (each row
    begins one); ``run_start`` has one more entry, True, at the end."""
    n, size = values.shape[-1], values.size
    # the order within a run is never read, so the faster sort is taken:
    # the stable one on the short rows most candidate sets give
    order = values.argsort(axis=-1, kind="stable" if n <= 16 else "quicksort")
    row_start = np.arange(0, size, max(n, 1)).repeat(n)
    flat = order.ravel() + row_start
    sorted_vals = values.ravel()[flat]
    run_start = np.ones(size + 1, dtype=bool)
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=run_start[1:size])
    run_start[:size:max(n, 1)] = True
    return flat, row_start, run_start


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional 1-based positions along the last axis, highest value first
    (negate to rank the lowest first); tied values share the average
    position. Each row of a 2-D array is ranked on its own."""
    values = np.asarray(values, dtype=np.float64)
    flat, row_start, run_start = _sorted_runs(values)
    # run [s, e) of the row starting at r spans ascending positions
    # s-r+1 .. e-r, so highest-first positions n+1-(e-r) .. n-(s-r), whose
    # average (2n + 1 + 2r - s - e) / 2 is exact in float64. Array methods,
    # not np.* wrappers: most sets are a few items long, so per-call
    # overhead is the cost here.
    bounds = run_start.nonzero()[0]
    starts, ends = bounds[:-1], bounds[1:]
    ranks = np.empty(values.shape)
    ranks.reshape(-1)[flat] = ((2 * values.shape[-1] + 1 + 2 * row_start[starts]
                                - starts - ends) / 2.0).repeat(ends - starts)
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

    ``c`` is scored as a batch of one set (see ``_score_batch``), and the
    arrays are the rows of that fresh table: no two share memory, and each
    equals, bit for bit, what scoring its spec alone gives.
    """
    return list(_score_batch([c], specs)[0])


def _score_batch(sets: Sequence[CandidateSet], specs: Sequence[MethodSpec]) -> np.ndarray:
    """Scores of each of the B ``sets``, all of one size n, under each spec,
    as a fresh (B, len(specs), n) table; row [b, i] is what
    ``score_methods`` gives ``sets[b]`` alone for ``specs[i]``.

    One pairwise pass over the stacked (B, n, M) matrices counts dominance
    for every k asked for (pr is k = 0, a hybrid's major included) and,
    when gd is scored, forms one gains plane for gd and pg; pg without gd
    marks the two Pareto fronts in that pass instead and takes its gains
    over their members (``_pairwise``). One ``average_ranks`` call ranks
    every criterion of every set, a (B * M, n) table, for ar, mr and their
    subsorts, and one ranks every distinct hybrid subsort of every set, a
    (B * subsorts, n) table. A gd or pg gain that overflows is refused,
    naming the user of the first set it overflows in.
    """
    x = np.stack([c.matrix for c in sets])
    b, n, m = x.shape
    parts = [p for spec in specs
             for p in ((spec.major, spec.sub) if spec.kind == "hybrid" else (spec,))]
    kinds = {p.kind for p in parts}
    counts, subs = _pairwise(x, {_major_k(p) for p in parts if p.kind in MAJOR_KINDS},
                             kinds & {"gd", "pg"})
    for kind in sorted(subs):
        bad = ~np.isfinite(subs[kind]).all(axis=1)
        if bad.any():
            raise DomainError(
                f"{kind} gains overflow for user {sets[int(bad.argmax())].user_id!r}: "
                f"n * M * (largest per-criterion spread) of its candidates must be finite")
    if kinds & set(_LOWER_BETTER):
        ranks = average_ranks(x.transpose(0, 2, 1).reshape(b * m, n)).reshape(b, m, n)
        if "ar" in kinds:
            subs["ar"] = ranks.sum(axis=1)
        if "mr" in kinds:
            subs["mr"] = ranks.min(axis=1)
    sub_kinds = sorted({spec.sub.kind for spec in specs if spec.kind == "hybrid"})
    if sub_kinds:
        # positions negated rank best first too; -0.0 == 0.0 keeps ties
        keys = np.stack([-subs[kind] if kind in _LOWER_BETTER else subs[kind]
                         for kind in sub_kinds], axis=1)
        rho = average_ranks(keys.reshape(-1, n)).reshape(keys.shape)
        shares = dict(zip(sub_kinds, ((n - rho) / n).transpose(1, 0, 2)))

    def score(spec: MethodSpec) -> np.ndarray:
        if spec.kind == "hybrid":
            return counts[_major_k(spec.major)] + shares[spec.sub.kind]
        return counts[_major_k(spec)] if spec.kind in MAJOR_KINDS else subs[spec.kind]

    return np.stack([score(spec) for spec in specs], axis=1)


def _major_k(spec: MethodSpec) -> float:
    return 0.0 if spec.kind == "pr" else spec.k


def ranked_slices(sets: Sequence[CandidateSet], specs: Sequence[MethodSpec]
                  ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every list of ``sets`` under ``specs`` best first, slice by slice.

    Equal-size sets are scored together (``_score_batch``) in slices whose
    (sets, specs, n) table holds at most ``_CHUNK_CELLS`` cells. A slice
    yields (rows, order, keys): ``rows`` index ``sets``, and row [s, i] of
    ``order`` and ``keys`` is ``sets[rows[s]]``'s candidate indices under
    ``specs[i]`` best first and their descending-is-better keys, positions
    (ar, mr) negated. The stable sort breaks equal keys by ascending item
    id, and every list is checked against the ScoredList invariant.
    """
    sizes = np.array([c.n for c in sets], dtype=np.int64)
    lower = [i for i, spec in enumerate(specs) if spec.kind in _LOWER_BETTER]
    for size in sorted(set(sizes.tolist())):
        group = (sizes == size).nonzero()[0]
        step = max(1, _CHUNK_CELLS // (len(specs) * size))
        for start in range(0, len(group), step):
            rows = group[start:start + step]
            table = _score_batch([sets[r] for r in rows.tolist()], specs)
            table[:, lower] = -table[:, lower]
            order = np.argsort(-table, axis=-1, kind="stable")
            keys = np.take_along_axis(table, order, axis=-1)
            if ((keys[..., 1:] > keys[..., :-1]) | ((keys[..., 1:] == keys[..., :-1])
                                                    & (order[..., 1:] <= order[..., :-1]))).any():
                raise DomainError("ranked list must be non-increasing in score, with tied "
                                  "scores ordered by ascending item id")
            yield rows, order, keys


def rank_candidates(c: CandidateSet, spec: MethodSpec) -> ScoredList:
    """``c``'s descending-is-better list under ``spec`` (``ranked_slices``)."""
    [(_, order, keys)] = ranked_slices([c], [spec])
    return ScoredList(
        tuple(zip([c.item_ids[i] for i in order[0, 0].tolist()], keys[0, 0].tolist())))


def top_n(scored: ScoredList, n: int) -> ScoredList:
    """First min(n, length) entries; a prefix of a valid list is valid."""
    if n < 1:
        raise DomainError(f"top-n length must be positive, got {n}")
    return ScoredList(scored.entries[:n])
