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
    DimensionError,
    DomainError,
    MethodSpec,
    Orientation,
    ar_scores,
    average_ranks,
    gain,
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
        vec = pr_scores(five_candidates)
        assert vec.tolist() == GOLDEN_PR
        assert vec.orientation is Orientation.HIGHER_BETTER

    def test_kd_zero_reduces_to_pr(self, five_candidates):
        assert kd_scores(five_candidates, 0.0).tolist() == GOLDEN_PR

    def test_kd_one(self, five_candidates):
        assert kd_scores(five_candidates, 1.0).tolist() == GOLDEN_KD1

    def test_per_criterion_ranks_first_column(self, five_candidates):
        # ratings (5,4,3,4,4): the three 4s share positions 2..4
        assert per_criterion_ranks(five_candidates, 0).tolist() == [1, 3, 5, 3, 3]

    def test_ar(self, five_candidates):
        vec = ar_scores(five_candidates)
        assert vec.tolist() == GOLDEN_AR
        assert vec.orientation is Orientation.LOWER_BETTER

    def test_mr(self, five_candidates):
        assert mr_scores(five_candidates).tolist() == GOLDEN_MR

    def test_gd(self, five_candidates):
        assert gd_scores(five_candidates).tolist() == GOLDEN_GD

    def test_pg(self, five_candidates):
        assert pg_scores(five_candidates).tolist() == GOLDEN_PG

    def test_normalize_sub_of_ar(self, five_candidates):
        out = normalize_sub(ar_scores(five_candidates))
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
        assert normalize_sub(ar_scores(c)).tolist() == [0.0]
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
    def test_examples(self):
        assert gain((5, 5, 5), (4, 4, 4)) == 3.0
        assert gain((3, 1), (3, 1)) == 0.0

    def test_split_of_absolute_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.uniform(1, 5, size=4)
            b = rng.uniform(1, 5, size=4)
            assert gain(a, b) + gain(b, a) == pytest.approx(np.abs(a - b).sum(), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            gain((1, 2), (1,))


class TestNormalizeSub:
    def test_all_equal_scores(self):
        from mcrank import ScoreVector
        vec = ScoreVector(np.full(4, 7.0), Orientation.HIGHER_BETTER)
        out = normalize_sub(vec)
        expected = (4 - 2.5) / 4
        assert out.tolist() == [expected] * 4

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_bounds_and_position_sum(self, orientation):
        from mcrank import ScoreVector, average_ranks
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            scores = rng.integers(0, 4, size=n).astype(float)
            vec = ScoreVector(scores, orientation)
            out = normalize_sub(vec)
            assert np.all(out >= 0.0) and np.all(out <= (n - 1) / n)
            rho = average_ranks(scores, descending=orientation is Orientation.HIGHER_BETTER)
            assert rho.sum() == pytest.approx(n * (n + 1) / 2, abs=1e-9)

    def test_orientation_respected(self):
        from mcrank import ScoreVector
        scores = np.array([1.0, 2.0, 3.0])
        higher = normalize_sub(ScoreVector(scores, Orientation.HIGHER_BETTER))
        lower = normalize_sub(ScoreVector(scores, Orientation.LOWER_BETTER))
        assert higher.tolist() == [0.0, 1 / 3, 2 / 3]
        assert lower.tolist() == [2 / 3, 1 / 3, 0.0]


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
                major = method_scores(c, major_spec).scores
                vec = method_scores(c, sub)
                rho = average_ranks(vec.scores, descending=vec.orientation
                                    is Orientation.HIGHER_BETTER)
                got = hybrid_scores(c, major_spec, sub).scores.tolist()
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


CHUNKED_SPECS = {label: MethodSpec.parse(label)
                 for label in ("pr", "kd:0.5", "gd", "pg")}


class TestChunkedPairwise:
    """Above about 2,048 candidates at M = 4 the pairwise methods work in
    row chunks; a small cell budget sends small sets down that path."""

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_chunks_match_unchunked_and_oracle(self, monkeypatch, rows):
        rng = np.random.default_rng(80 + rows)
        for trial in range(30):
            c = random_candidate_set(rng, min_n=10, max_n=20,
                                     integer=trial % 2 == 0)
            whole = {label: method_scores(c, spec).scores
                     for label, spec in CHUNKED_SPECS.items()}
            vectors = [tuple(row) for row in c.matrix]
            with monkeypatch.context() as patch:
                patch.setattr(ranking, "_CHUNK_CELLS", rows * c.n * c.n_criteria)
                assert ranking._chunk_rows(c.n, c.n_criteria) == rows
                for label, spec in CHUNKED_SPECS.items():
                    got = method_scores(c, spec).scores
                    assert np.array_equal(got, whole[label]), label
                    assert got.tolist() == pytest.approx(
                        METHOD_ORACLES[label](vectors), abs=1e-12), label


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
                base = method_scores(c, spec).scores
                moved = method_scores(shuffled, spec).scores
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
            rows = [kd_scores(c, k).scores for k in grid]
            for lo, hi in zip(rows, rows[1:]):
                assert np.all(hi >= lo)

    def test_hybrid_preserves_major_and_refines_ties(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            c = random_candidate_set(rng, min_n=2)
            major_spec = MethodSpec.kd(0.5)
            for sub_kind in ("ar", "mr", "gd", "pg"):
                major = method_scores(c, major_spec).scores
                sub = normalize_sub(method_scores(c, MethodSpec(sub_kind)))
                hybrid = hybrid_scores(c, major_spec, MethodSpec(sub_kind)).scores
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
