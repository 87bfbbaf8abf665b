"""The pairwise dominance relation, read from the ranking kernel.

In a set of two candidates, the ``pr`` and ``kd:K`` scores count how
many others each one dominates, so they read ``[a beats b, b beats a]``.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import naive
from mcrank import CandidateSet, DomainError, MethodSpec, method_scores

paired_vectors = st.integers(1, 5).flatmap(
    lambda m: st.tuples(
        st.lists(st.integers(1, 5), min_size=m, max_size=m),
        st.lists(st.integers(1, 5), min_size=m, max_size=m),
    ))
dyadic_k = st.integers(0, 16).map(lambda i: i / 16)


def relation(a, b, k=None):
    """[a beats b, b beats a] under Pareto dominance, or k-dominance at k."""
    c = CandidateSet.from_pairs("u", [("a", a), ("b", b)])
    scores = method_scores(c, MethodSpec.pr() if k is None else MethodSpec.kd(k))
    return scores.tolist()


def pareto_dominates(a, b):
    return relation(a, b)[0] == 1.0


def k_dominates(a, b, k):
    return relation(a, b, k)[0] == 1.0


class TestDominanceCounts:
    def test_mixed_pair(self):
        # one criterion better, one equal, one worse
        assert relation((4, 5, 3), (4, 4, 4)) == [0, 0]
        assert relation((4, 5, 3), (4, 4, 4), 1.0) == [1, 1]
        # comparisons are exact: near-equal continuous values are unequal
        assert relation((4.0, 4.05), (4.04, 4.0), 1.0) == [1, 1]

    def test_identical_vectors(self):
        assert relation((3, 3, 3), (3, 3, 3)) == [0, 0]

    def test_strictly_better(self):
        assert relation((5, 5, 5), (3, 3, 3)) == [1, 0]
        for k in (0.0, 0.5, 1.0):
            assert relation((5, 5, 5), (3, 3, 3), k) == [1, 0]

    @given(paired_vectors, dyadic_k)
    def test_mirror_swaps_better_and_worse(self, pair, k):
        a, b = pair
        assert relation(b, a) == relation(a, b)[::-1]
        assert relation(b, a, k) == relation(a, b, k)[::-1]


class TestParetoDominates:
    def test_strict_domination(self):
        assert pareto_dominates((5, 5, 5), (4, 4, 4))

    def test_equal_vectors_do_not_dominate(self):
        assert not pareto_dominates((4, 4, 4), (4, 4, 4))

    def test_incomparable_pair(self):
        assert not pareto_dominates((4, 5, 3), (4, 4, 4))
        assert not pareto_dominates((4, 4, 4), (4, 5, 3))

    @given(paired_vectors)
    def test_asymmetric(self, pair):
        a, b = pair
        assert relation(a, b) != [1, 1]

    @given(st.integers(1, 4).flatmap(lambda m: st.tuples(
        *[st.lists(st.integers(1, 5), min_size=m, max_size=m) for _ in range(3)])))
    def test_transitive(self, triple):
        a, b, c = triple
        if pareto_dominates(a, b) and pareto_dominates(b, c):
            assert pareto_dominates(a, c)

    @given(paired_vectors)
    def test_invariant_under_monotone_transform(self, pair):
        a, b = pair
        transform = lambda v: [x ** 3 + 2 * x for x in v]
        assert relation(a, b) == relation(transform(a), transform(b))


class TestKDominates:
    def test_k_zero_matches_pareto_on_incomparable(self):
        assert not k_dominates((4, 5, 3), (4, 4, 4), 0)

    def test_relaxation_admits_the_pair(self):
        assert k_dominates((4, 5, 3), (4, 4, 4), 1)

    def test_identical_never_dominates(self):
        for k in (0, 0.5, 1):
            assert relation((3, 3, 3), (3, 3, 3), k) == [0, 0]

    def test_can_hold_in_both_directions(self):
        assert relation((4, 4, 4), (4, 5, 3), 1) == [1, 1]

    def test_k_outside_range_rejected(self):
        for k in (-0.01, 1.01, 2):
            with pytest.raises(DomainError):
                relation((1, 2), (2, 1), k)

    def test_k_zero_equals_pareto_exhaustively(self):
        # every vector pair with M <= 3, integer ratings 1..5
        for m in (1, 2, 3):
            for a in itertools.product(range(1, 6), repeat=m):
                for b in itertools.product(range(1, 6), repeat=m):
                    assert relation(a, b, 0.0) == \
                        [naive.pareto(a, b), naive.pareto(b, a)], (a, b)

    @settings(max_examples=200)
    @given(paired_vectors, dyadic_k, dyadic_k)
    def test_monotone_in_k(self, pair, k1, k2):
        a, b = pair
        if k1 > k2:
            k1, k2 = k2, k1
        if k_dominates(a, b, k1):
            assert k_dominates(a, b, k2)

    @settings(max_examples=200)
    @given(paired_vectors, dyadic_k)
    def test_matches_exact_rational_oracle(self, pair, k):
        a, b = pair
        assert relation(a, b, k) == [naive.kdom(a, b, k), naive.kdom(b, a, k)]
