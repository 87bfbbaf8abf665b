"""Pairwise dominance predicates and per-pair comparison counts.

Everything here is a pure function of two criteria vectors. Criteria
values compare exactly, so near-equal predicted ratings count as unequal.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, DomainError


class DominanceCounts(NamedTuple):
    """Counts of criteria where the first item is better / equal / worse.

    Always satisfies n_b + n_e + n_w = M, all non-negative.
    """

    n_b: int
    n_e: int
    n_w: int


def _as_pair(a: Sequence[float], b: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 1 or vb.ndim != 1:
        raise DimensionError("criteria vectors must be 1-D")
    if va.shape != vb.shape:
        raise DimensionError(f"criteria length mismatch: {va.shape[0]} vs {vb.shape[0]}")
    if va.size == 0:
        raise DimensionError("criteria vectors must be non-empty")
    return va, vb


def dominance_counts(a: Sequence[float], b: Sequence[float]) -> DominanceCounts:
    """Count criteria where ``a`` beats, ties, or trails ``b``."""
    va, vb = _as_pair(a, b)
    n_b = int(np.count_nonzero(va > vb))
    n_w = int(np.count_nonzero(va < vb))
    return DominanceCounts(n_b=n_b, n_e=va.size - n_b - n_w, n_w=n_w)


def pareto_dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff ``a`` is at least as good everywhere and strictly better somewhere."""
    counts = dominance_counts(a, b)
    return counts.n_w == 0 and counts.n_b >= 1


def k_dominates(a: Sequence[float], b: Sequence[float], k: float) -> bool:
    """Relaxed dominance: ``a`` k-dominates ``b``.

    Requires at least one unequal criterion, and the better-count to
    reach (M - n_e) / (k + 1). The threshold test is cross-multiplied
    (n_b * (k + 1) >= M - n_e) so boundary cases are decided without a
    floating division. k = 0 recovers strict Pareto dominance; k outside
    [0, 1] is rejected, not clamped.
    """
    kf = float(k)
    if not 0.0 <= kf <= 1.0:
        raise DomainError(f"relaxation factor k must lie in [0, 1], got {k}")
    counts = dominance_counts(a, b)
    m = counts.n_b + counts.n_e + counts.n_w
    if counts.n_e >= m:
        return False
    return counts.n_b * (kf + 1.0) >= m - counts.n_e
