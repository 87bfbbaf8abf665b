import itertools

import pytest
from hypothesis import given, settings, strategies as st

import naive
from mcrank import (
    DimensionError,
    DomainError,
    dominance_counts,
    k_dominates,
    pareto_dominates,
)

vectors = st.lists(st.integers(1, 5), min_size=1, max_size=5).map(
    lambda v: [float(x) for x in v])
paired_vectors = st.integers(1, 5).flatmap(
    lambda m: st.tuples(
        st.lists(st.integers(1, 5), min_size=m, max_size=m),
        st.lists(st.integers(1, 5), min_size=m, max_size=m),
    ))
dyadic_k = st.integers(0, 16).map(lambda i: i / 16)


class TestDominanceCounts:
    def test_mixed_pair(self):
        assert dominance_counts((4, 5, 3), (4, 4, 4)) == (1, 1, 1)
        # comparisons are exact: near-equal continuous values are unequal
        assert dominance_counts((4.0, 4.05), (4.04, 4.0)) == (1, 0, 1)

    def test_identical_vectors(self):
        assert dominance_counts((3, 3, 3), (3, 3, 3)) == (0, 3, 0)

    def test_strictly_better(self):
        assert dominance_counts((5, 5, 5), (3, 3, 3)) == (3, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            dominance_counts((1, 2), (1, 2, 3))

    @given(paired_vectors)
    def test_mirror_swaps_better_and_worse(self, pair):
        a, b = pair
        nb, ne, nw = dominance_counts(a, b)
        assert dominance_counts(b, a) == (nw, ne, nb)
        assert nb + ne + nw == len(a)


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
        assert not (pareto_dominates(a, b) and pareto_dominates(b, a))

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
        assert pareto_dominates(a, b) == pareto_dominates(transform(a), transform(b))


class TestKDominates:
    def test_k_zero_matches_pareto_on_incomparable(self):
        assert not k_dominates((4, 5, 3), (4, 4, 4), 0)

    def test_relaxation_admits_the_pair(self):
        assert k_dominates((4, 5, 3), (4, 4, 4), 1)

    def test_identical_never_dominates(self):
        for k in (0, 0.5, 1):
            assert not k_dominates((3, 3, 3), (3, 3, 3), k)

    def test_can_hold_in_both_directions(self):
        assert k_dominates((4, 4, 4), (4, 5, 3), 1)
        assert k_dominates((4, 5, 3), (4, 4, 4), 1)

    def test_k_outside_range_rejected(self):
        for k in (-0.01, 1.01, 2):
            with pytest.raises(DomainError):
                k_dominates((1, 2), (2, 1), k)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            k_dominates((1, 2), (1, 2, 3), 0.5)

    def test_k_zero_equals_pareto_exhaustively(self):
        # every vector pair with M <= 3, integer ratings 1..5
        for m in (1, 2, 3):
            for a in itertools.product(range(1, 6), repeat=m):
                for b in itertools.product(range(1, 6), repeat=m):
                    assert k_dominates(a, b, 0.0) == pareto_dominates(a, b), (a, b)

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
        assert k_dominates(a, b, k) == naive.kdom(a, b, k)
