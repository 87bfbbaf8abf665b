import functools
import warnings

import numpy as np
import pytest
import naive
from conftest import (
    GOLDEN_AR,
    GOLDEN_GD,
    GOLDEN_HYBRID_PR_AR,
    GOLDEN_HYBRID_PR_PG,
    GOLDEN_KD1,
    GOLDEN_MR,
    GOLDEN_PG,
    GOLDEN_PR,
    random_candidate_set,
)
from mcrank import (
    CandidateSet,
    DomainError,
    MethodSpec,
    ar_scores,
    average_ranks,
    gd_scores,
    hybrid_scores,
    kd_scores,
    method_scores,
    mr_scores,
    normalize_sub,
    per_criterion_ranks,
    pg_scores,
    pr_scores,
    rank_candidates,
    top_n,
)
from mcrank import ranking


def identical_set(n, vector=(3.0, 3.0)):
    return CandidateSet.from_pairs("u", [(f"i{j}", vector) for j in range(n)])


class TestGoldenFiveCandidates:
    def test_pr(self, five_candidates):
        assert pr_scores(five_candidates).tolist() == GOLDEN_PR

    def test_kd_zero_reduces_to_pr(self, five_candidates):
        assert kd_scores(five_candidates, 0.0).tolist() == GOLDEN_PR

    def test_kd_one(self, five_candidates):
        assert kd_scores(five_candidates, 1.0).tolist() == GOLDEN_KD1

    def test_per_criterion_ranks_first_column(self, five_candidates):
        # ratings (5,4,3,4,4): the three 4s share positions 2..4
        assert per_criterion_ranks(five_candidates, 0).tolist() == [1, 3, 5, 3, 3]

    def test_ar(self, five_candidates):
        assert ar_scores(five_candidates).tolist() == GOLDEN_AR

    def test_mr(self, five_candidates):
        assert mr_scores(five_candidates).tolist() == GOLDEN_MR

    def test_gd(self, five_candidates):
        assert gd_scores(five_candidates).tolist() == GOLDEN_GD

    def test_pg(self, five_candidates):
        assert pg_scores(five_candidates).tolist() == GOLDEN_PG

    def test_normalize_sub_of_ar(self, five_candidates):
        out = normalize_sub(ar_scores(five_candidates), "ar")
        assert out.tolist() == [0.8, 0.6, 0.0, 0.2, 0.4]

    def test_hybrid_pr_ar_breaks_the_tie(self, five_candidates):
        vec = hybrid_scores(five_candidates, MethodSpec.pr(), MethodSpec.ar())
        assert vec.tolist() == pytest.approx(GOLDEN_HYBRID_PR_AR, abs=1e-12)

    def test_hybrid_pr_pg_keeps_the_tie(self, five_candidates):
        vec = hybrid_scores(five_candidates, MethodSpec.pr(), MethodSpec.pg())
        assert vec.tolist() == pytest.approx(GOLDEN_HYBRID_PR_PG, abs=1e-12)

    def test_ranked_order(self, five_candidates):
        ranked = rank_candidates(five_candidates, MethodSpec.pr())
        assert ranked.item_ids == ["T1", "T2", "T5", "T4", "T3"]

    def test_top_n(self, five_candidates):
        ranked = rank_candidates(five_candidates, MethodSpec.pr())
        assert top_n(ranked, 1).item_ids == ["T1"]
        assert top_n(ranked, 3).item_ids == ["T1", "T2", "T5"]
        assert top_n(ranked, 99) == ranked


class TestDegenerateSets:
    def test_single_candidate(self):
        c = CandidateSet.from_pairs("u", [("only", (2.0, 4.0, 3.0))])
        assert pr_scores(c).tolist() == [0.0]
        assert kd_scores(c, 0.7).tolist() == [0.0]
        assert ar_scores(c).tolist() == [3.0]  # rank 1 on each of 3 criteria
        assert mr_scores(c).tolist() == [1.0]
        assert gd_scores(c).tolist() == [0.0]
        assert pg_scores(c).tolist() == [0.0]
        assert normalize_sub(ar_scores(c), "ar").tolist() == [0.0]
        assert rank_candidates(c, MethodSpec.pg()).item_ids == ["only"]

    def test_all_identical_candidates(self):
        c = identical_set(4)
        assert pr_scores(c).tolist() == [0.0] * 4
        assert gd_scores(c).tolist() == [0.0] * 4
        assert pg_scores(c).tolist() == [0.0, 0.0, 0.0, 0.0]
        assert len(set(ar_scores(c).tolist())) == 1

    def test_constant_column_ranks(self):
        c = identical_set(5)
        assert per_criterion_ranks(c, 0).tolist() == [3.0] * 5  # (n+1)/2

    def test_strictly_decreasing_column(self):
        c = CandidateSet.from_pairs("u", [(f"i{j}", (5.0 - j,)) for j in range(4)])
        assert per_criterion_ranks(c, 0).tolist() == [1, 2, 3, 4]

    def test_criterion_index_out_of_range(self):
        c = identical_set(2)
        with pytest.raises(IndexError):
            per_criterion_ranks(c, 2)

    def test_top_n_requires_positive(self, five_candidates):
        ranked = rank_candidates(five_candidates, MethodSpec.pr())
        with pytest.raises(DomainError):
            top_n(ranked, 0)

    def test_hybrid_rejects_wrong_part_kinds(self, five_candidates):
        with pytest.raises(DomainError):
            hybrid_scores(five_candidates, MethodSpec.ar(), MethodSpec.pr())
        with pytest.raises(DomainError):
            hybrid_scores(five_candidates, MethodSpec.pr(), MethodSpec.kd(0.5))


class TestAverageRanks:
    @staticmethod
    def assert_matches_oracle(values):
        values = [float(v) for v in values]
        desc = average_ranks(np.array(values), descending=True).tolist()
        asc = average_ranks(np.array(values), descending=False).tolist()
        assert desc == naive.ranks_desc(values)
        assert asc == naive.ranks_desc([-v for v in values])

    @pytest.mark.parametrize("values", [
        [3.0],
        [2.0, 2.0, 2.0, 2.0],
        [5.0, 4.0, 3.0, 4.0, 4.0],
        [0.0, -0.0, 1.0, -0.0, -1.0],
    ])
    def test_edge_cases_match_oracle(self, values):
        self.assert_matches_oracle(values)

    def test_random_arrays_match_oracle(self):
        rng = np.random.default_rng(67)
        for trial in range(300):
            n = int(rng.integers(1, 30))
            if trial % 2:  # tie-heavy: a few distinct values
                values = rng.integers(0, int(rng.integers(1, 4)) + 1, size=n) - 1.0
            else:
                values = rng.uniform(-2.0, 2.0, size=n)
            self.assert_matches_oracle(values.tolist())


class TestGain:
    """In a set of two candidates, each one's gd score is its gain (sum of
    positive rating margins) over the other."""

    @staticmethod
    def gains(a, b):
        return gd_scores(CandidateSet.from_pairs("u", [("a", a), ("b", b)])).tolist()

    def test_examples(self):
        assert self.gains((5, 5, 5), (4, 4, 4)) == [3.0, 0.0]
        assert self.gains((3, 1), (3, 1)) == [0.0, 0.0]

    def test_split_of_absolute_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.uniform(1, 5, size=4)
            b = rng.uniform(1, 5, size=4)
            assert sum(self.gains(a, b)) == pytest.approx(np.abs(a - b).sum(), abs=1e-12)


class TestNormalizeSub:
    def test_all_equal_scores(self):
        out = normalize_sub(np.full(4, 7.0), "gd")
        expected = (4 - 2.5) / 4
        assert out.tolist() == [expected] * 4

    @pytest.mark.parametrize("kind", ["gd", "ar"])
    def test_bounds_and_position_sum(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            scores = rng.integers(0, 4, size=n).astype(float)
            out = normalize_sub(scores, kind)
            assert np.all(out >= 0.0) and np.all(out <= (n - 1) / n)
            rho = n - n * out
            assert rho.sum() == pytest.approx(n * (n + 1) / 2, abs=1e-9)

    def test_orientation_respected(self):
        # gd and pg scores are higher-better, ar and mr positions lower-better
        scores = np.array([1.0, 2.0, 3.0])
        for kind in ("gd", "pg"):
            assert normalize_sub(scores, kind).tolist() == [0.0, 1 / 3, 2 / 3]
        for kind in ("ar", "mr"):
            assert normalize_sub(scores, kind).tolist() == [2 / 3, 1 / 3, 0.0]


class TestHybridFloatLimit:
    """``hybrid_scores`` is ``major + (n - rho) / n`` in float64, with a
    major of at most n - 1 and half-integer ranks rho in [1, n]. Up to
    n = 2**26 candidates adjacent ranks stay apart and no sum reaches the
    next major; at 2**26 + 1 adjacent ranks under major n - 1 merge. The
    limit is checked on scalars, so no array of size n is allocated."""

    @staticmethod
    def encode(major, rho, n):
        n = np.float64(n)
        return np.float64(major) + (n - np.float64(rho)) / n

    def test_scalar_encoding_is_hybrid_scores(self):
        rng = np.random.default_rng(5)
        major_spec = MethodSpec.kd(0.5)
        for _ in range(20):
            c = random_candidate_set(rng, min_n=2)
            for sub in (MethodSpec.ar(), MethodSpec.pg()):
                major = method_scores(c, major_spec)
                rho = average_ranks(method_scores(c, sub),
                                    descending=sub.kind == "pg")
                got = hybrid_scores(c, major_spec, sub).tolist()
                assert got == [self.encode(a, r, c.n) for a, r in zip(major, rho)]

    def test_holds_at_two_to_the_26(self):
        n = 2 ** 26
        ranks = ([1.0 + h / 2 for h in range(400)]
                 + [n / 2 + h / 2 for h in range(400)]
                 + [n - 199.5 + h / 2 for h in range(400)])
        for major in (0, n // 2, n - 1):
            values = [self.encode(major, r, n) for r in ranks]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert values[0] < major + 1 and values[-1] == major

    def test_adjacent_ranks_merge_one_candidate_later(self):
        n = 2 ** 26 + 1
        assert self.encode(n - 1, 1.0, n) == self.encode(n - 1, 1.5, n)


METHOD_ORACLES = {
    "pr": lambda vs: naive.pr_list(vs),
    "kd:0.25": lambda vs: naive.kd_list(vs, 0.25),
    "kd:0.5": lambda vs: naive.kd_list(vs, 0.5),
    "kd:1": lambda vs: naive.kd_list(vs, 1.0),
    "ar": lambda vs: naive.ar_list(vs),
    "mr": lambda vs: naive.mr_list(vs),
    "gd": lambda vs: naive.gd_list(vs),
    "pg": lambda vs: naive.pg_list(vs),
}


class TestOracleEquivalence:
    @pytest.mark.parametrize("label", sorted(METHOD_ORACLES))
    def test_random_sets_match_oracle(self, label):
        rng = np.random.default_rng(hash(label) % 2**32)
        for _ in range(120):
            c = random_candidate_set(rng)
            vectors = [tuple(row) for row in c.matrix]
            expected = METHOD_ORACLES[label](vectors)
            got = method_scores(c, MethodSpec.parse(label)).tolist()
            assert got == pytest.approx(expected, abs=1e-12)

    def test_hybrids_match_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            c = random_candidate_set(rng)
            vectors = [tuple(row) for row in c.matrix]
            for major_kind, k in (("pr", None), ("kd", 0.5)):
                for sub_kind in ("ar", "mr", "gd", "pg"):
                    major = MethodSpec.pr() if major_kind == "pr" else MethodSpec.kd(k)
                    got = hybrid_scores(c, major, MethodSpec(sub_kind)).tolist()
                    expected = naive.hybrid_list(vectors, major_kind, k, sub_kind)
                    assert got == pytest.approx(expected, abs=1e-12)


HYBRID_ORACLES = {
    label: functools.partial(naive.hybrid_list, major_kind=major, k=k, sub_kind=sub)
    for label, major, k, sub in (("pr+gd", "pr", None, "gd"),
                                 ("pr+pg", "pr", None, "pg"),
                                 ("kd:0.5+gd", "kd", 0.5, "gd"),
                                 ("kd:0.5+pg", "kd", 0.5, "pg"),
                                 ("kd:1+pg", "kd", 1.0, "pg"))
}
PAIRWISE_ORACLES = {
    **{label: METHOD_ORACLES[label] for label in ("pr", "kd:0.5", "gd", "pg")},
    **HYBRID_ORACLES,
}


def assert_pairwise_match_oracle(c, gd_tol=None):
    """Scores equal the oracle's: exactly, except gd's order-dependent sum,
    which is compared with ``pytest.approx(**gd_tol)`` (default abs=1e-12)."""
    vectors = [tuple(row) for row in c.matrix]
    for label in PAIRWISE_ORACLES:
        got = method_scores(c, MethodSpec.parse(label)).tolist()
        expected = PAIRWISE_ORACLES[label](vectors)
        if label == "gd":
            assert got == pytest.approx(expected, **(gd_tol or {"abs": 1e-12})), label
        else:
            assert got == expected, label


class TestChunkedPairwise:
    """Above about 180 candidates at M = 4 the pairwise methods work in
    row chunks; a small cell budget sends small sets down that path."""

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_chunks_match_unchunked_and_oracle(self, monkeypatch, rows):
        rng = np.random.default_rng(80 + rows)
        for trial in range(30):
            c = random_candidate_set(rng, min_n=10, max_n=20,
                                     integer=trial % 2 == 0)
            whole = {label: method_scores(c, MethodSpec.parse(label))
                     for label in PAIRWISE_ORACLES}
            with monkeypatch.context() as patch:
                patch.setattr(ranking, "_CHUNK_CELLS", rows * c.n * c.n_criteria)
                assert ranking._chunk_rows(c.n, c.n_criteria) == rows
                for label in PAIRWISE_ORACLES:
                    got = method_scores(c, MethodSpec.parse(label))
                    assert np.array_equal(got, whole[label]), label
                assert_pairwise_match_oracle(c)

    def test_more_criteria_than_int8_counts(self, monkeypatch):
        # M = 130: one candidate beats another on all 130 criteria, a count
        # an int8 counter would wrap to -126
        rng = np.random.default_rng(130)
        base = rng.integers(1, 5, size=130).astype(np.float64)
        rows = [base, base + 1.0, np.where(np.arange(130) < 129, base + 1.0, base)]
        rows += list(rng.integers(1, 6, size=(9, 130)).astype(np.float64))
        c = CandidateSet(user_id="u", item_ids=tuple(f"i{j:02d}" for j in range(12)),
                         matrix=np.array(rows))
        assert pr_scores(c).tolist()[1] >= 2.0  # dominates rows 0 and 2
        assert_pairwise_match_oracle(c)
        monkeypatch.setattr(ranking, "_CHUNK_CELLS", 2 * c.n * c.n_criteria)
        assert_pairwise_match_oracle(c)

    @pytest.mark.parametrize("rows", [
        [(5e-324, 0.0), (0.0, 5e-324), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0),
         (-0.0, -0.0), (-5e-324, 5e-324)],
        [(2.0 ** -1020, 0.0), (np.nextafter(2.0 ** -1020, 1.0), 0.0),
         (0.0, 2.0 ** -1020), (2.0 ** -1020, 2.0 ** -1020)],
        [(2.0 ** -970, 0.0), (np.nextafter(2.0 ** -970, 1.0), -0.0),
         (-(2.0 ** -970), 2.0 ** -970), (0.0, np.nextafter(2.0 ** -970, 1.0))],
        [(1e307, -1e307), (-1e307, 1e307), (np.nextafter(1e307, 0.0), 1e307),
         (1e307, 1e307)],
    ], ids=["subnormal-and-signed-zero", "subnormal-differences",
            "least-normal-differences", "near-1e307"])
    def test_comparisons_match_the_oracle_at_the_float_extremes(self, rows):
        # the kernels read a > b and a == b from a - b unless a nonzero value
        # lies below 2^-970; the oracle compares directly. n * M * spread
        # stays finite, so gd and pg are defined
        for n in range(2, len(rows) + 1):
            c = CandidateSet.from_pairs(
                "u", [(f"i{j}", row) for j, row in enumerate(rows[:n])])
            assert_pairwise_match_oracle(c, gd_tol={"abs": 0.0})

    def test_differences_from_the_threshold_up_are_normal(self):
        # a flush-to-zero mode reads a subnormal a - b as 0; from 2^-970 up
        # the spacing of float64 values is the least normal, just below it
        # the spacing is subnormal
        x = ranking._EXACT_DIFF
        least_normal = np.finfo(np.float64).smallest_normal
        assert np.nextafter(x, np.inf) - x == least_normal
        assert x - np.nextafter(x, 0.0) < least_normal


class TestGainOverflow:
    """gd and pg are defined while n * M * (largest per-criterion spread)
    is finite; a set whose gains overflow is rejected, naming its user."""

    @pytest.mark.parametrize("label", ["gd", "pg", "pr+gd", "kd:0.5+pg"])
    def test_overflowing_gains_are_rejected(self, label):
        c = CandidateSet.from_pairs("u7", [("a", (1e308, -1e308)),
                                           ("b", (-1e308, 1e308))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="'u7'"):
                method_scores(c, MethodSpec.parse(label))

    def test_dominance_alone_is_defined_on_any_finite_values(self):
        c = CandidateSet.from_pairs("u7", [("a", (1e308, -1e308)),
                                           ("b", (-1e308, -1e308))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pr_scores(c).tolist() == [1.0, 0.0]
            assert kd_scores(c, 0.5).tolist() == [1.0, 0.0]


class TestStructuralProperties:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        specs = [MethodSpec.parse(s) for s in
                 ("pr", "kd:0.5", "ar", "mr", "gd", "pg", "kd:0.5+pg")]
        for _ in range(40):
            c = random_candidate_set(rng, min_n=2)
            perm = rng.permutation(c.n)
            shuffled = CandidateSet(user_id=c.user_id,
                                    item_ids=tuple(c.item_ids[j] for j in perm),
                                    matrix=c.matrix[perm])
            for spec in specs:
                base = method_scores(c, spec)
                moved = method_scores(shuffled, spec)
                assert np.array_equal(base[perm], moved), spec.label
                assert rank_candidates(c, spec) == rank_candidates(shuffled, spec)

    def test_pr_ar_mr_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            c = random_candidate_set(rng, min_n=2)
            transformed = CandidateSet(user_id=c.user_id, item_ids=c.item_ids,
                                       matrix=np.exp(c.matrix / 2.0))
            for fn in (pr_scores, ar_scores, mr_scores):
                assert fn(c).tolist() == fn(transformed).tolist(), fn.__name__

    def test_kd_scores_nondecreasing_in_k(self):
        rng = np.random.default_rng(31)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        for _ in range(50):
            c = random_candidate_set(rng)
            rows = [kd_scores(c, k) for k in grid]
            for lo, hi in zip(rows, rows[1:]):
                assert np.all(hi >= lo)

    def test_hybrid_preserves_major_and_refines_ties(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            c = random_candidate_set(rng, min_n=2)
            major_spec = MethodSpec.kd(0.5)
            for sub_kind in ("ar", "mr", "gd", "pg"):
                major = method_scores(c, major_spec)
                sub = normalize_sub(method_scores(c, MethodSpec(sub_kind)), sub_kind)
                hybrid = hybrid_scores(c, major_spec, MethodSpec(sub_kind))
                for i in range(c.n):
                    for j in range(c.n):
                        if major[i] > major[j]:
                            assert hybrid[i] > hybrid[j]
                        if hybrid[i] == hybrid[j]:
                            assert major[i] == major[j] and sub[i] == sub[j]

    def test_lower_better_methods_negated_in_list(self):
        c = CandidateSet.from_pairs("u", [("a", (5.0,)), ("b", (3.0,)), ("c", (4.0,))])
        ranked = rank_candidates(c, MethodSpec.ar())
        assert ranked.item_ids == ["a", "c", "b"]
        assert ranked.scores == [-1.0, -2.0, -3.0]

    def test_kd_zero_list_equals_pr_list(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            c = random_candidate_set(rng)
            assert rank_candidates(c, MethodSpec.kd(0.0)) == \
                rank_candidates(c, MethodSpec.pr())

    def test_hybrid_with_constant_sub_is_major_plus_offset(self):
        # identical candidates: every sub score ties, so the hybrid is the
        # major score shifted by one constant and the ordering is unchanged
        c = identical_set(4, (2.0, 3.0))
        spec = MethodSpec.hybrid(MethodSpec.pr(), MethodSpec.ar())
        hybrid = hybrid_scores(c, MethodSpec.pr(), MethodSpec.ar()).tolist()
        major = pr_scores(c).tolist()
        offset = (4 - 2.5) / 4
        assert hybrid == [m + offset for m in major]
        assert rank_candidates(c, spec).item_ids == \
            rank_candidates(c, MethodSpec.pr()).item_ids
