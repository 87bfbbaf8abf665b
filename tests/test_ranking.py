import functools
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import naive
from hypothesis import given, settings
from hypothesis import strategies as st
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
    ScoredList,
    average_ranks,
    method_scores,
    rank_candidates,
    score_methods,
    top_n,
)
from mcrank import ranking


def identical_set(n, vector=(3.0, 3.0)):
    return CandidateSet.from_pairs("u", [(f"i{j}", vector) for j in range(n)])


def scores_of(c, label):
    return method_scores(c, MethodSpec.parse(label)).tolist()


def subsort_share(c, kind):
    """The [0, 1) subsort part of the pr+kind hybrid, up to the rounding
    of the sum."""
    return (method_scores(c, MethodSpec.parse(f"pr+{kind}"))
            - method_scores(c, MethodSpec("pr")))


class TestGoldenFiveCandidates:
    def test_pr(self, five_candidates):
        assert scores_of(five_candidates, "pr") == GOLDEN_PR

    def test_kd_zero_reduces_to_pr(self, five_candidates):
        assert scores_of(five_candidates, "kd:0") == GOLDEN_PR

    def test_kd_one(self, five_candidates):
        assert scores_of(five_candidates, "kd:1") == GOLDEN_KD1

    def test_per_criterion_ranks_first_column(self, five_candidates):
        # ratings (5,4,3,4,4): the three 4s share positions 2..4
        ranks = average_ranks(five_candidates.matrix[:, 0])
        assert ranks.tolist() == [1, 3, 5, 3, 3]

    def test_ar(self, five_candidates):
        assert scores_of(five_candidates, "ar") == GOLDEN_AR

    def test_mr(self, five_candidates):
        assert scores_of(five_candidates, "mr") == GOLDEN_MR

    def test_gd(self, five_candidates):
        assert scores_of(five_candidates, "gd") == GOLDEN_GD

    def test_pg(self, five_candidates):
        assert scores_of(five_candidates, "pg") == GOLDEN_PG

    def test_normalize_sub_of_ar(self, five_candidates):
        out = subsort_share(five_candidates, "ar")
        assert out.tolist() == pytest.approx([0.8, 0.6, 0.0, 0.2, 0.4], abs=1e-12)

    def test_hybrid_pr_ar_breaks_the_tie(self, five_candidates):
        vec = scores_of(five_candidates, "pr+ar")
        assert vec == pytest.approx(GOLDEN_HYBRID_PR_AR, abs=1e-12)

    def test_hybrid_pr_pg_keeps_the_tie(self, five_candidates):
        vec = scores_of(five_candidates, "pr+pg")
        assert vec == pytest.approx(GOLDEN_HYBRID_PR_PG, abs=1e-12)

    def test_ranked_order(self, five_candidates):
        ranked = rank_candidates(five_candidates, MethodSpec("pr"))
        assert ranked.item_ids == ["T1", "T2", "T5", "T4", "T3"]

    def test_top_n(self, five_candidates):
        ranked = rank_candidates(five_candidates, MethodSpec("pr"))
        assert top_n(ranked, 1).item_ids == ["T1"]
        assert top_n(ranked, 3).item_ids == ["T1", "T2", "T5"]
        assert top_n(ranked, 99) == ranked


class TestDegenerateSets:
    def test_single_candidate(self):
        c = CandidateSet.from_pairs("u", [("only", (2.0, 4.0, 3.0))])
        assert scores_of(c, "pr") == [0.0]
        assert scores_of(c, "kd:0.7") == [0.0]
        assert scores_of(c, "ar") == [3.0]  # rank 1 on each of 3 criteria
        assert scores_of(c, "mr") == [1.0]
        assert scores_of(c, "gd") == [0.0]
        assert scores_of(c, "pg") == [0.0]
        assert scores_of(c, "pr+ar") == [0.0]
        assert rank_candidates(c, MethodSpec("pg")).item_ids == ["only"]

    def test_all_identical_candidates(self):
        c = identical_set(4)
        assert scores_of(c, "pr") == [0.0] * 4
        assert scores_of(c, "gd") == [0.0] * 4
        assert scores_of(c, "pg") == [0.0, 0.0, 0.0, 0.0]
        assert len(set(scores_of(c, "ar"))) == 1

    def test_constant_column_ranks(self):
        c = identical_set(5)
        assert average_ranks(c.matrix[:, 0]).tolist() == [3.0] * 5

    def test_strictly_decreasing_column(self):
        c = CandidateSet.from_pairs("u", [(f"i{j}", (5.0 - j,)) for j in range(4)])
        assert average_ranks(c.matrix[:, 0]).tolist() == [1, 2, 3, 4]

    def test_top_n_requires_positive(self, five_candidates):
        ranked = rank_candidates(five_candidates, MethodSpec("pr"))
        with pytest.raises(DomainError):
            top_n(ranked, 0)

    def test_hybrid_rejects_wrong_part_kinds(self, five_candidates):
        with pytest.raises(DomainError):
            MethodSpec("hybrid", major=MethodSpec("ar"), sub=MethodSpec("pr"))
        with pytest.raises(DomainError):
            MethodSpec("hybrid", major=MethodSpec("pr"), sub=MethodSpec("kd", k=0.5))


class TestAverageRanks:
    @staticmethod
    def assert_matches_oracle(values):
        values = [float(v) for v in values]
        desc = average_ranks(np.array(values)).tolist()
        asc = average_ranks(-np.array(values)).tolist()
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

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rows_rank_like_one_row_at_a_time(self, sign):
        rng = np.random.default_rng(68)
        tables = [np.array([[3.0], [-0.0]]),  # n = 1
                  np.full((3, 4), 2.0),
                  np.array([[0.0, -0.0, 1.0, -0.0], [-0.0, -0.0, 0.0, 0.0],
                            [1.0, 1.0, 1.0, 1.0]])]
        for trial in range(200):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 12)))
            if trial % 2:  # tie-heavy, with an all-equal row
                table = rng.integers(-1, 2, size=shape) * 1.0
                table[rng.integers(shape[0])] = table[0, 0]
            else:
                table = rng.uniform(-2.0, 2.0, size=shape)
            tables.append(table)
        for table in tables:
            got = average_ranks(sign * table)
            want = np.array([average_ranks(sign * row) for row in table])
            assert got.shape == table.shape and got.tobytes() == want.tobytes()


class TestGain:
    """In a set of two candidates, each one's gd score is its gain (sum of
    positive rating margins) over the other."""

    @staticmethod
    def gains(a, b):
        return scores_of(CandidateSet.from_pairs("u", [("a", a), ("b", b)]), "gd")

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
    """A hybrid adds its subsort to the major as (n - rho) / n, with rho
    the subsort's average position, best first."""

    def test_all_equal_scores(self):
        # every subsort ties and pr is 0, so the hybrid is the share itself
        for kind in ("ar", "mr", "gd", "pg"):
            assert scores_of(identical_set(4), f"pr+{kind}") == [(4 - 2.5) / 4] * 4

    @pytest.mark.parametrize("kind", ["gd", "ar"])
    def test_bounds_and_position_sum(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = random_candidate_set(rng, max_n=11)
            n = c.n
            out = subsort_share(c, kind)
            assert np.all(out >= 0.0) and np.all(out <= (n - 1) / n + 1e-12)
            rho = n - n * out
            assert rho.sum() == pytest.approx(n * (n + 1) / 2, abs=1e-9)

    def test_orientation_respected(self):
        # one criterion rated 1, 2, 3: gd [0, 1, 3] and pg [-2, 0, 2] are
        # higher-better, ar and mr positions [3, 2, 1] lower-better, so the
        # third candidate is every kind's best
        c = CandidateSet.from_pairs("u", [("a", (1.0,)), ("b", (2.0,)), ("c", (3.0,))])
        for kind in ("ar", "mr", "gd", "pg"):
            assert subsort_share(c, kind).tolist() == pytest.approx(
                [0.0, 1 / 3, 2 / 3], abs=1e-12), kind


class TestHybridFloatLimit:
    """A hybrid score is ``major + (n - rho) / n`` in float64, with a
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
        major_spec = MethodSpec("kd", k=0.5)
        for _ in range(20):
            c = random_candidate_set(rng, min_n=2)
            for sub in (MethodSpec("ar"), MethodSpec("pg")):
                major = method_scores(c, major_spec)
                scores = method_scores(c, sub)  # ar positions rank lowest first
                rho = average_ranks(scores if sub.kind == "pg" else -scores)
                got = method_scores(c, MethodSpec("hybrid", major=major_spec, sub=sub)).tolist()
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
                    major = MethodSpec("pr") if major_kind == "pr" else MethodSpec("kd", k=k)
                    got = method_scores(c, MethodSpec("hybrid", major=major,
                                                      sub=MethodSpec(sub_kind))).tolist()
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


def many_criteria_set():
    """M = 130: one candidate beats another on all 130 criteria, a count
    an int8 counter would wrap to -126."""
    rng = np.random.default_rng(130)
    base = rng.integers(1, 5, size=130).astype(np.float64)
    rows = [base, base + 1.0, np.where(np.arange(130) < 129, base + 1.0, base)]
    rows += list(rng.integers(1, 6, size=(9, 130)).astype(np.float64))
    return CandidateSet(user_id="u", item_ids=tuple(f"i{j:02d}" for j in range(12)),
                        matrix=np.array(rows))


EXTREME_ROWS = {
    "subnormal-and-signed-zero": [
        (5e-324, 0.0), (0.0, 5e-324), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0),
        (-0.0, -0.0), (-5e-324, 5e-324)],
    "subnormal-differences": [
        (2.0 ** -1020, 0.0), (np.nextafter(2.0 ** -1020, 1.0), 0.0),
        (0.0, 2.0 ** -1020), (2.0 ** -1020, 2.0 ** -1020)],
    "least-normal-differences": [
        (2.0 ** -970, 0.0), (np.nextafter(2.0 ** -970, 1.0), -0.0),
        (-(2.0 ** -970), 2.0 ** -970), (0.0, np.nextafter(2.0 ** -970, 1.0))],
    "near-1e307": [
        (1e307, -1e307), (-1e307, 1e307), (np.nextafter(1e307, 0.0), 1e307),
        (1e307, 1e307)],
}


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
                assert ranking._tiling(c.n, c.n_criteria) == (1, rows)
                for label in PAIRWISE_ORACLES:
                    got = method_scores(c, MethodSpec.parse(label))
                    assert np.array_equal(got, whole[label]), label
                assert_pairwise_match_oracle(c)

    def test_more_criteria_than_int8_counts(self, monkeypatch):
        c = many_criteria_set()
        assert scores_of(c, "pr")[1] >= 2.0  # dominates rows 0 and 2
        assert_pairwise_match_oracle(c)
        monkeypatch.setattr(ranking, "_CHUNK_CELLS", 2 * c.n * c.n_criteria)
        assert_pairwise_match_oracle(c)

    @pytest.mark.parametrize("rows", EXTREME_ROWS.values(), ids=EXTREME_ROWS.keys())
    def test_comparisons_match_the_oracle_at_the_float_extremes(self, rows):
        # dominance reads rank codes, and pg without gd the Pareto fronts
        # they mark; the oracle compares the values directly.
        # n * M * spread stays finite, so gd and pg are defined
        for n in range(2, len(rows) + 1):
            c = CandidateSet.from_pairs(
                "u", [(f"i{j}", row) for j, row in enumerate(rows[:n])])
            assert_pairwise_match_oracle(c, gd_tol={"abs": 0.0})

    @pytest.mark.skipif(
        platform.machine() != "x86_64" or not sys.platform.startswith("linux")
        or platform.libc_ver()[0] != "glibc",
        reason="sets flush-to-zero through glibc's x86-64 fenv_t (MXCSR at byte 28)")
    def test_tiny_values_compare_directly_under_flush_to_zero(self):
        # 2^-1020 + 2^-1070 and 2^-1020 are normal, their difference is not:
        # flushed to zero it would read as a tie, so dominance must not read
        # a - b. The mode is set for the whole process, so the check runs in
        # a fresh one.
        code = """if True:
            import ctypes, ctypes.util
            import naive
            from mcrank import CandidateSet, MethodSpec, method_scores
            env = (ctypes.c_uint8 * 32)()
            libm = ctypes.CDLL(ctypes.util.find_library("m"))
            assert libm.fegetenv(env) == 0
            mxcsr = int.from_bytes(bytes(env[28:32]), "little") | 1 << 15  # FTZ only
            env[28:32] = (ctypes.c_uint8 * 4)(*mxcsr.to_bytes(4, "little"))
            assert libm.fesetenv(env) == 0
            a, b = 2.0 ** -1020 + 2.0 ** -1070, 2.0 ** -1020
            assert a > b and a - b == 0.0, "flush-to-zero is not in effect"
            vectors = [(a, 1.0), (b, 1.0)]
            c = CandidateSet.from_pairs("u", [("i0", vectors[0]), ("i1", vectors[1])])
            for label, want in (("pr", naive.pr_list(vectors)),
                                ("kd:0.5", naive.kd_list(vectors, 0.5)),
                                ("kd:0.5+ar", naive.hybrid_list(vectors, "kd", 0.5, "ar"))):
                got = method_scores(c, MethodSpec.parse(label)).tolist()
                assert got == want, (label, got, want)
            assert naive.hybrid_list(vectors, "kd", 0.5, "ar") == [1.5, 0.0]
        """
        paths = [str(Path(ranking.__file__).parents[1]), str(Path(__file__).parent),
                 os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


# every plain method, k in {0, 0.25, 0.5, 0.75, 1}, and four majors with
# each subsort
SHARED_LABELS = ["pr", "kd:0", "kd:0.25", "kd:0.5", "kd:0.75", "kd:1",
                 "ar", "mr", "gd", "pg",
                 *[f"{major}+{sub}" for major in ("pr", "kd:0.5", "kd:1", "kd:0.3")
                   for sub in ("ar", "mr", "gd", "pg")]]


def with_one_tiny_value(rng, shape):
    # one value below 2^-970 in set 2, whose differences a flush-to-zero
    # mode would read as ties
    x = rng.uniform(1.0, 5.0, size=shape)
    x[2, 1, 0] = 2.0 ** -1000
    return x


def ties(rng, shape):
    return rng.integers(1, 4, size=shape).astype(np.float64)


# (id, (B, n, M), draw(rng, shape), _CHUNK_CELLS(n, M) or None for the
# default, sets per chunk)
BATCH_CASES = [
    ("lone-candidates", (5, 1, 3), lambda rng, shape: rng.uniform(1.0, 5.0, size=shape),
     None, [5]),
    ("integer-ties", (6, 9, 3), ties, None, [6]),
    ("tiny-value-in-one-set", (4, 5, 2), with_one_tiny_value, None, [4]),
    ("chunk-splits-the-batch", (5, 6, 3), ties, lambda n, m: 2 * n * n * m, [2, 2, 1]),
    # one set no longer fits, so each set goes alone in row chunks of 2
    ("row-chunks", (3, 7, 4), lambda rng, shape: rng.uniform(1.0, 5.0, size=shape),
     lambda n, m: 2 * n * m, [1] * 12),
]


def naive_scores(label, vectors):
    spec = MethodSpec.parse(label)
    if spec.kind == "pr":
        return naive.pr_list(vectors)
    if spec.kind == "kd":
        return naive.kd_list(vectors, spec.k)
    if spec.kind == "hybrid":
        return naive.hybrid_list(vectors, spec.major.kind, spec.major.k, spec.sub.kind)
    return naive.SUB_FNS[spec.kind](vectors)


class TestSharedPass:
    """``score_methods`` scores many methods from one pairwise pass; each
    array must be the one its method alone gives, byte for byte, and the
    oracle's (exactly, but for gd's order-dependent sum)."""

    @staticmethod
    def assert_shared_pass_exact(c, labels, gd_tol=None):
        specs = [MethodSpec.parse(label) for label in labels]
        together = score_methods(c, specs)
        assert len(together) == len(specs)
        vectors = [tuple(row) for row in c.matrix.tolist()]
        for label, spec, got in zip(labels, specs, together):
            alone = method_scores(c, spec)
            assert got.dtype == np.float64 and got.shape == (c.n,), label
            assert got.tobytes() == alone.tobytes(), label
            want = naive_scores(label, vectors)
            if label == "gd":
                assert got.tolist() == pytest.approx(want, **(gd_tol or {"abs": 1e-12}))
            else:
                assert got.tolist() == want, label

    @pytest.mark.parametrize("rows", [None, 1, 2, 3])
    def test_every_label_at_once(self, monkeypatch, rows):
        rng = np.random.default_rng(90 + (rows or 0))
        for trial in range(12):
            c = random_candidate_set(rng, min_n=4, max_n=12, integer=trial % 2 == 0)
            if rows is not None:
                monkeypatch.setattr(ranking, "_CHUNK_CELLS",
                                    rows * c.n * c.n_criteria)
                assert ranking._tiling(c.n, c.n_criteria) == (1, rows)
            self.assert_shared_pass_exact(c, SHARED_LABELS)

    @pytest.mark.parametrize("labels", [
        ["kd:1", "kd:0.25", "kd:0.5", "kd:0.25", "kd:1"],
        ["kd:1+pg", "pr", "kd:0.75", "kd:0", "pr", "kd:0.25+ar", "kd:0.25"],
        ["pr", "kd:0", "pr", "pr+gd", "pr+mr"],
        ["gd", "pg", "gd", "mr", "ar", "mr", "kd:0.5+mr", "kd:0.5+ar"],
        ["kd:0.5+pg", "pr+ar", "kd:1+mr", "pr+gd", "kd:0.25+pg", "pr+mr"],
    ], ids=["kd-only", "pr-among-k", "pr-only", "no-major-first", "hybrids-only"])
    def test_duplicate_and_unsorted_labels(self, labels):
        rng = np.random.default_rng(91)
        for trial in range(30):
            c = random_candidate_set(rng, integer=trial % 2 == 0)
            self.assert_shared_pass_exact(c, labels)

    def test_arrays_are_fresh(self):
        c = random_candidate_set(np.random.default_rng(92), min_n=3)
        first, second = score_methods(c, [MethodSpec("pr"), MethodSpec("kd", k=0.0)])
        assert first is not second and first.flags.writeable
        first += 1.0
        assert second.tolist() == scores_of(c, "pr")

    def test_more_criteria_than_int8_counts(self, monkeypatch):
        c = many_criteria_set()
        self.assert_shared_pass_exact(c, SHARED_LABELS)
        monkeypatch.setattr(ranking, "_CHUNK_CELLS", 2 * c.n * c.n_criteria)
        self.assert_shared_pass_exact(c, SHARED_LABELS)

    @pytest.mark.parametrize("rows", EXTREME_ROWS.values(), ids=EXTREME_ROWS.keys())
    def test_float_extremes(self, rows):
        for n in range(2, len(rows) + 1):
            c = CandidateSet.from_pairs(
                "u", [(f"i{j}", row) for j, row in enumerate(rows[:n])])
            self.assert_shared_pass_exact(c, SHARED_LABELS, gd_tol={"abs": 0.0})

    @pytest.mark.parametrize("case", BATCH_CASES, ids=[case[0] for case in BATCH_CASES])
    def test_batch_equals_sets_one_by_one(self, monkeypatch, case):
        # a set scores bit for bit as it does alone, whatever batch and
        # chunks it is scored in
        _, shape, draw, cells, chunk_sets = case
        rng = np.random.default_rng(96)
        b, n, m = shape
        matrix = draw(rng, shape)
        sets = [CandidateSet(user_id=f"u{s}", item_ids=tuple(f"i{j:03d}" for j in range(n)),
                             matrix=matrix[s]) for s in range(b)]
        specs = [MethodSpec.parse(label) for label in SHARED_LABELS]
        alone = [score_methods(c, specs) for c in sets]
        if cells is not None:
            monkeypatch.setattr(ranking, "_CHUNK_CELLS", cells(n, m))
        per_chunk, rows = ranking._tiling(n, m)
        assert [min(per_chunk, b - s) for s in range(0, b, per_chunk)
                for _ in range(0, n, rows)] == chunk_sets
        table = ranking._score_batch(sets, specs)
        assert table.dtype == np.float64 and table.shape == (b, len(specs), n)
        for s, scores in enumerate(alone):
            for label, got, want in zip(SHARED_LABELS, table[s], scores):
                assert got.tobytes() == want.tobytes(), (s, label)


def candidate_set(user_id, rows):
    return CandidateSet(user_id=user_id, item_ids=tuple(f"i{j:03d}" for j in range(len(rows))),
                        matrix=np.array(rows, dtype=np.float64))


# label groups scored together, each k through the same exact dominance
# test on the bit planes of the rank codes: pg without gd among them, whose
# k = 0 test marks the fronts, and gd, which forms the gains plane too
ROUTE_LABEL_GROUPS = [["pr"], ["kd:0.5"], ["pr+ar"], ["pr", "kd:0.5", "kd:0.5+mr"],
                      ["pr", "pg"], ["pr+pg"], ["pr", "gd", "pg"]]


class TestRankCodes:
    """Dominance compares each criterion's dense rank codes, on every
    route: every k, Pareto included, reads the same counts of better and
    worse criteria, which never reach into another set."""

    @staticmethod
    def assert_batch_is_sets_alone_and_oracle(sets, label_groups=ROUTE_LABEL_GROUPS):
        for labels in label_groups:
            specs = [MethodSpec.parse(label) for label in labels]
            table = ranking._score_batch(sets, specs)
            for s, c in enumerate(sets):
                vectors = [tuple(row) for row in c.matrix.tolist()]
                for label, spec, got in zip(labels, specs, table[s]):
                    assert got.tobytes() == method_scores(c, spec).tobytes(), (s, label)
                    assert got.tolist() == naive_scores(label, vectors), (s, label)

    def test_adjacent_sets_with_identical_rows(self):
        rows = [(1.0, 2.0), (1.0, 2.0), (2.0, 1.0), (3.0, 3.0), (1.0, 2.0)]
        self.assert_batch_is_sets_alone_and_oracle(
            [candidate_set(f"u{s}", rows) for s in range(4)])

    def test_set_of_one_repeated_row(self):
        # the last candidate of the first set in lexsort order equals the
        # first of the second, in values and in codes
        sets = [candidate_set("u0", [(2.0, 2.0)] * 4),
                candidate_set("u1", [(2.0, 2.0), (2.0, 2.0), (5.0, 5.0), (2.0, 2.0)]),
                candidate_set("u2", [(7.0, -0.0)] * 3 + [(7.0, 0.0)])]
        self.assert_batch_is_sets_alone_and_oracle(sets)
        for label in ("pr", "kd:0.5", "kd:1"):
            assert scores_of(sets[0], label) == [0.0] * 4
            assert scores_of(sets[2], label) == [0.0] * 4

    def test_more_criteria_than_int8_counts(self, monkeypatch):
        c = many_criteria_set()
        calls = []
        real = ranking._rank_codes
        monkeypatch.setattr(ranking, "_rank_codes",
                            lambda cols: calls.append(cols.shape) or real(cols))
        self.assert_batch_is_sets_alone_and_oracle(
            [c, CandidateSet(user_id="v", item_ids=c.item_ids, matrix=c.matrix)],
            ROUTE_LABEL_GROUPS[:-1])
        assert calls and {shape[0] for shape in calls} == {130}

    @pytest.mark.parametrize("draw", [ties, with_one_tiny_value],
                             ids=["integer-ties", "tiny-value-in-one-set"])
    def test_codes_are_read_on_every_route(self, monkeypatch, draw):
        # beside gd too, and whether or not a value is tiny
        calls = []
        real = ranking._rank_codes
        monkeypatch.setattr(ranking, "_rank_codes",
                            lambda cols: calls.append(cols.shape) or real(cols))
        x = draw(np.random.default_rng(97), (4, 5, 2))
        sets = [candidate_set(f"u{s}", x[s]) for s in range(4)]
        for labels in ROUTE_LABEL_GROUPS:
            self.assert_batch_is_sets_alone_and_oracle(sets, [labels])
            calls.clear()
            ranking._score_batch(sets, [MethodSpec.parse(label) for label in labels])
            assert calls == [(2, 4, 5)], labels

    @pytest.mark.parametrize("m", [4, 5, 31, 32])
    def test_dominance_products_do_not_wrap(self, m):
        # a count of M = 4 or M = 32 criteria reaches a new top bit, one of
        # M = 5 or M = 31 does not; k = (M - 1) / M has the most terms, and
        # an all-worse pair has n_w = M
        rng = np.random.default_rng(m)
        low, high = np.ones(m), np.full(m, 5.0)
        sets = [candidate_set(f"u{s}", [low, high, np.where(np.arange(m) > 0, high, low),
                                        *rng.integers(1, 6, size=(3, m))])
                for s in range(2)]
        labels = ["pr", "kd:0.5", "kd:1", "kd:0.5+pg", f"kd:{(m - 1) / m!r}"]
        self.assert_batch_is_sets_alone_and_oracle(sets, [labels])

    def test_equal_values_share_a_code(self):
        # two sets of three candidates over two criteria; each column codes
        # on its own, lowest value 0
        x = np.array([[[-0.0, 2.0], [0.0, 2.0], [-3.0, -1.0]],
                      [[5e-324, 9.0], [0.0, 8.0], [5e-324, 9.0]]])
        codes = ranking._rank_codes(x.transpose(2, 0, 1))
        assert codes.dtype == np.int16
        assert codes.tolist() == [[[1, 1, 0], [1, 0, 1]], [[1, 1, 0], [1, 0, 1]]]

    @pytest.mark.parametrize("n, dtype", [(1 << 15, np.int16), ((1 << 15) + 1, np.int32),
                                          (40_000, np.int32)])
    def test_codes_reach_n_minus_one_without_wrapping(self, n, dtype):
        # the code builder alone, on one column of distinct values 0 .. n-1,
        # which code as themselves; the O(n^2) pass never runs here
        values = np.random.default_rng(n).permutation(n).astype(np.float64)
        codes = ranking._rank_codes(values.reshape(1, 1, n))
        assert codes.dtype == dtype and codes.shape == (1, 1, n)
        assert codes.max() == n - 1
        assert np.array_equal(codes[0, 0], values)


# the float nearest 1/3, which lies below it
THIRD = 0.3333333333333333


class TestBitPlanes:
    """Dominance packs, per criterion, each pair's better and not-worse
    bits 64 a word, adds each kind's planes into a binary count and reads
    every k as thresholds on the two counts; every case is the oracle's."""

    @pytest.mark.parametrize("m, k, terms", [
        (4, 0.0, [(1, 0)]),
        (130, 0.0, [(1, 0)]),
        # 3 * THIRD is below 1, so n_b = 3 allows no worse criterion
        (3, THIRD, [(1, 0)]),
        # 6 * THIRD is below 2: one worse criterion takes n_b >= 4, not 3
        (6, THIRD, [(1, 0), (4, 1)]),
        (4, 1.0, [(1, 1), (2, 2)]),
        (4, 1e300, [(1, 3)]),
    ], ids=["kd:0-M4", "kd:0-M130", "kd:third-M3", "kd:third-M6", "kd:1-M4", "kd:1e300-M4"])
    def test_thresholds_read_k_exactly(self, m, k, terms):
        # t(i) = floor(k * i), capped at M - i; a term is kept while its t
        # rises. Each (n_b, n_w) is read as the oracle reads a pair with
        # that many better and worse criteria, the rest equal
        assert ranking._thresholds(m, k) == tuple(terms)
        for n_b in range(m + 1):
            for n_w in range(m - n_b + 1):
                a = (2.0,) * n_b + (0.0,) * n_w + (1.0,) * (m - n_b - n_w)
                want = naive.kdom(a, (1.0,) * m, k)
                assert any(n_b >= i and n_w <= t for i, t in terms) == want, (n_b, n_w)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8, 9, 130])
    def test_sliced_counts_read_every_threshold(self, m):
        planes = np.random.default_rng(m).integers(0, 256, size=(m, 3, 5), dtype=np.uint8)
        count = np.unpackbits(planes, axis=-1).sum(axis=0)
        bits = ranking._sliced_count(list(planes.copy()))
        assert len(bits) == m.bit_length()
        for t in range(1, m + 1):
            assert np.array_equal(np.unpackbits(ranking._at_least(bits, t), axis=-1),
                                  count >= t), t

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129])
    def test_word_edges_match_the_oracle(self, monkeypatch, n):
        # a set of n candidates over 3 criteria of 3 levels and the same
        # rows reversed, scored with the default budget; with one-word
        # column tiles in chunks of 8 rows (a budget of 32 * 8 words, as
        # ``_tiling`` reads a tile's words as 32 criteria); and with
        # two-word tiles (a budget of 8 * M * (n + 1), as a tile's tables,
        # M * (n + 1) rows of its words, take a quarter)
        rows = np.random.default_rng(n).integers(1, 4, size=(n, 3))
        sets = [candidate_set("u0", rows), candidate_set("u1", rows[::-1])]
        labels = ["pr", "kd:1", "kd:0.5+pg"]
        specs = [MethodSpec.parse(label) for label in labels]
        want = [naive_scores(label, [tuple(row) for row in rows.tolist()]) for label in labels]
        want = [want, [scores[::-1] for scores in want]]
        chunks = []
        real = ranking._code_planes
        monkeypatch.setattr(ranking, "_code_planes", lambda codes: (
            chunks.append((sets.start, rows.start, first)) or chunk
            for chunk in real(codes) for sets, rows, first, _ in [chunk]))
        for cells in (None, 32 * 8, 8 * 3 * (n + 1)):
            if cells is not None:
                monkeypatch.setattr(ranking, "_CHUNK_CELLS", cells)
            chunks.clear()
            table = ranking._score_batch(sets, specs)
            for s in range(2):
                assert table[s].tolist() == want[s], (cells, s)
            firsts, starts = {c[2] for c in chunks}, {c[1] for c in chunks}
            if cells == 32 * 8:
                assert firsts == set(range(0, n, 64)) and starts == set(range(0, n, 8))
            if cells == 8 * 3 * (n + 1):
                assert firsts == set(range(0, n, 128))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 6), n=st.integers(1, 12), b=st.integers(1, 3),
           k=st.sampled_from([0.0, 0.1, 0.25, THIRD, 0.5, 2 / 3, 0.75, 1.0]),
           cells=st.sampled_from([None, 1, 128 * 3]))
    def test_small_integer_sets_with_ties(self, data, m, n, b, k, cells):
        x = data.draw(st.lists(st.integers(0, 3), min_size=b * n * m, max_size=b * n * m))
        x = np.array(x, dtype=np.float64).reshape(b, n, m)
        sets = [candidate_set(f"u{s}", x[s]) for s in range(b)]
        labels = ["pr", f"kd:{k!r}", f"kd:{k!r}+pg", "pg"]
        with pytest.MonkeyPatch.context() as patch:
            if cells is not None:
                patch.setattr(ranking, "_CHUNK_CELLS", cells)
            table = ranking._score_batch(sets, [MethodSpec.parse(label) for label in labels])
        for s, c in enumerate(sets):
            vectors = [tuple(row) for row in c.matrix.tolist()]
            for label, got in zip(labels, table[s]):
                assert got.tolist() == naive_scores(label, vectors), (s, label)


def equal_sums(rng, shape):
    # integer parts of 12 over M criteria, halved: every sum is 6 exactly,
    # so no candidate dominates another and all are on both fronts
    b, n, m = shape
    return rng.multinomial(12, [1.0 / m] * m, size=(b, n)).astype(np.float64) / 2.0


def correlated(rng, shape):
    # a shared quality plus small noise: a few candidates on each front
    b, n, m = shape
    return rng.uniform(1.0, 5.0, size=(b, n, 1)) + 0.3 * rng.normal(size=shape)


# three sets of eight whose fronts hold 1, 3 and 2 members (lower and
# upper alike), so two are padded: a chain; three above three, with two
# between; and signed zeros below two equal tops
UNEVEN_FRONTS = [
    [(j, j) for j in range(8)],
    [(9, 7), (8, 8), (7, 9), (0, 2), (1, 1), (2, 0), (4, 4), (5, 5)],
    [(-0.0, 0.0), (0.0, -0.0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 3)],
]


class TestParetoFronts:
    """pg without gd takes each candidate's best outgoing gain over the
    lower front and its best incoming gain over the upper front, or reads
    the plane when the widest front holds more than n / 2 candidates; either
    way it is, bit for bit, pg scored beside gd, which reads the plane,
    and the oracle's."""

    @staticmethod
    def fronts_walked(monkeypatch):
        """The per-set front sizes of each front walk, lower fronts first."""
        walks = []
        real = ranking._front_gains
        monkeypatch.setattr(ranking, "_front_gains", lambda cols, front: walks.append(
            front.sum(axis=1).tolist()) or real(cols, front))
        return walks

    @staticmethod
    def assert_fronts_are_the_plane(sets):
        for labels in (["pg"], ["kd:0.5+pg", "pr+pg"], ["pr", "pg", "kd:1+pg"]):
            specs = [MethodSpec.parse(label) for label in labels]
            fronts = ranking._score_batch(sets, specs)
            plane = ranking._score_batch(sets, [MethodSpec("gd"), *specs])[:, 1:]
            for s, c in enumerate(sets):
                vectors = [tuple(row) for row in c.matrix.tolist()]
                for label, got, want in zip(labels, fronts[s], plane[s]):
                    assert got.tobytes() == want.tobytes(), (s, label)
                    oracle = np.array(naive_scores(label, vectors))
                    assert got.tobytes() == oracle.tobytes(), (s, label)

    def test_sets_of_different_front_sizes_are_padded(self, monkeypatch):
        walks = self.fronts_walked(monkeypatch)
        sets = [candidate_set(f"u{s}", rows) for s, rows in enumerate(UNEVEN_FRONTS)]
        self.assert_fronts_are_the_plane(sets)
        assert walks == [[1, 3, 2, 1, 3, 2]] * 3

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_tiled_front_gains(self, monkeypatch, rows):
        # a cell budget of `rows` rows of a set against a front of width 3
        # also tiles the pass itself
        walks = self.fronts_walked(monkeypatch)
        monkeypatch.setattr(ranking, "_CHUNK_CELLS", rows * 3 * 2)
        assert ranking._tiling(8, 2, 3) == (1, rows)
        tilings = []
        real = ranking._tiling
        monkeypatch.setattr(ranking, "_tiling", lambda *args: tilings.append(args) or real(*args))
        sets = [candidate_set(f"u{s}", rows) for s, rows in enumerate(UNEVEN_FRONTS)]
        self.assert_fronts_are_the_plane(sets)
        assert walks == [[1, 3, 2, 1, 3, 2]] * 3
        assert tilings.count((8, 2, 3)) == 3

    @pytest.mark.parametrize("cells", [None, lambda n, m: 7 * m, lambda n, m: 3 * n * n * m])
    def test_correlated_sets_walk_small_fronts(self, monkeypatch, cells):
        walks = self.fronts_walked(monkeypatch)
        if cells is not None:
            monkeypatch.setattr(ranking, "_CHUNK_CELLS", cells(40, 3))
        x = correlated(np.random.default_rng(98), (5, 40, 3))
        self.assert_fronts_are_the_plane([candidate_set(f"u{s}", x[s]) for s in range(5)])
        assert len(walks) == 3 and all(0 < 2 * max(w) <= 40 for w in walks)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_no_candidate_dominates_another(self, monkeypatch, n):
        # every candidate on both fronts: the walk would cover 2n > n pairs
        # a row, so pg reads the plane after the dominance pass
        walks = self.fronts_walked(monkeypatch)
        x = equal_sums(np.random.default_rng(n), (3, n, 4))
        assert (x.sum(axis=2) == 6.0).all()
        sets = [candidate_set(f"u{s}", x[s]) for s in range(3)]
        sets.append(candidate_set("same", [(2.5, 1.0, 4.0, 0.5)] * n))
        self.assert_fronts_are_the_plane(sets)
        assert walks == []

    def test_more_criteria_than_int8_counts(self, monkeypatch):
        # a chain above rows that beat each other on all 130 criteria, or on
        # 129 of them: int32 counters mark one candidate on each front
        walks = self.fronts_walked(monkeypatch)
        rows = many_criteria_set().matrix[:3]
        chain = [rows[1] + t for t in range(1, 7)]
        sets = [candidate_set("u", [*rows, *chain]), candidate_set("v", [*chain, *rows])]
        self.assert_fronts_are_the_plane(sets)
        assert walks == [[1, 1, 1, 1]] * 3

    def test_tiny_values_and_signed_zeros(self, monkeypatch):
        walks = self.fronts_walked(monkeypatch)
        tiny = 2.0 ** -1000
        rows = [(0.0, -0.0), (tiny, 0.0), (tiny, tiny), (1.0, 1.0), (2.0, 2.0), (3.0, tiny)]
        sets = [candidate_set("u", rows),
                candidate_set("v", [(-a, -b) for a, b in rows]),
                candidate_set("w", [(-0.0, 1.0), (0.0, 1.0), (0.0, 2.0), (-0.0, 3.0),
                                    (-tiny, 3.0), (tiny, 3.0)])]
        self.assert_fronts_are_the_plane(sets)
        assert walks == [[1, 2, 3, 2, 1, 1]] * 3


class TestRankCandidatesOrder:
    """Lists are best first with ties by ascending item id, whatever order
    a candidate set's rows are given in: the set keeps them in id order."""

    @pytest.mark.parametrize("label", ["pr", "kd:0.5", "ar", "mr", "gd", "pg",
                                       "kd:0.5+ar", "pr+pg"])
    def test_unsorted_ids_rank_like_sorted_pairs(self, label):
        rng = np.random.default_rng(sum(map(ord, label)))
        spec = MethodSpec.parse(label)
        sign = -1.0 if spec.kind in ("ar", "mr") else 1.0
        for trial in range(30):
            drawn = random_candidate_set(rng, min_n=2, max_n=14, integer=trial % 3 > 0)
            # "i10" sorts before "i9": string order, not numeric
            ids = tuple(f"i{j}" for j in rng.permutation(drawn.n) + 8)
            c = CandidateSet(user_id="u", item_ids=ids, matrix=drawn.matrix)
            assert c.item_ids == tuple(sorted(ids))
            scores = (sign * method_scores(c, spec)).tolist()
            got = rank_candidates(c, spec)
            assert got.entries == ScoredList.from_pairs(zip(c.item_ids, scores)).entries
            assert top_n(got, 3).entries == got.entries[:3]

    def test_non_string_ids_order_as_strings(self):
        c = CandidateSet(user_id="u", item_ids=(9, 10, 11),
                         matrix=np.array([[1.0], [1.0], [2.0]]))
        assert rank_candidates(c, MethodSpec("pr")).entries == \
            (("11", 2.0), ("10", 0.0), ("9", 0.0))

    @pytest.mark.parametrize("rows", [[(1.0,), (2.0,)], [(1.0,), (1.0,)]],
                             ids=["by-score", "ties-by-id"])
    def test_order_is_checked(self, monkeypatch, rows):
        # the invariant check after the sort catches a wrong order
        c = CandidateSet.from_pairs("u", [(f"i{j}", r) for j, r in enumerate(rows)])
        real = np.argsort
        monkeypatch.setattr(np, "argsort", lambda a, **kw: real(a, **kw)[..., ::-1])
        with pytest.raises(DomainError, match="non-increasing"):
            rank_candidates(c, MethodSpec("pr"))


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

    @pytest.mark.parametrize("label", ["gd", "pg", "pr+gd", "kd:0.5+pg"])
    @pytest.mark.parametrize("finite, overflowing", [
        ([(1.0, 2.0), (2.0, 1.0)], [(1e308, -1e308), (-1e308, 1e308)]),
        ([(j, j) for j in range(5)],
         [(1e308, 1e308), (0.0, 0.0), (1.0, 1.0), (-1e308, -1e308), (2.0, 2.0)]),
    ], ids=["no-dominance", "chain"])
    def test_only_the_second_set_overflows(self, monkeypatch, label, finite, overflowing):
        # pg without gd walks the one-member fronts of the chains, and reads
        # the plane of the sets where no candidate dominates another
        walks = TestParetoFronts.fronts_walked(monkeypatch)
        sets = [candidate_set("u0", finite), candidate_set("u1", overflowing)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="for user 'u1'"):
                ranking._score_batch(sets, [MethodSpec.parse(label)])
            assert np.isfinite(ranking._score_batch(sets[:1], [MethodSpec.parse(label)])).all()
        walked = label.endswith("pg") and len(finite) == 5
        assert walks == ([[1, 1, 1, 1], [1, 1]] if walked else [])

    def test_dominance_alone_is_defined_on_any_finite_values(self):
        c = CandidateSet.from_pairs("u7", [("a", (1e308, -1e308)),
                                           ("b", (-1e308, -1e308))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scores_of(c, "pr") == [1.0, 0.0]
            assert scores_of(c, "kd:0.5") == [1.0, 0.0]


class TestStructuralProperties:
    def test_shuffled_set_is_the_same_set(self):
        rng = np.random.default_rng(17)
        specs = [MethodSpec.parse(s) for s in
                 ("pr", "kd:0.5", "ar", "mr", "gd", "pg", "pr+gd", "kd:0.5+pg")]
        for trial in range(80):
            c = random_candidate_set(rng, min_n=2, integer=trial % 2 == 0)
            perm = rng.permutation(c.n)
            shuffled = CandidateSet(user_id=c.user_id,
                                    item_ids=tuple(c.item_ids[j] for j in perm),
                                    matrix=c.matrix[perm])
            assert shuffled.item_ids == c.item_ids
            assert shuffled.matrix.tobytes() == c.matrix.tobytes()
            for spec in specs:
                assert np.array_equal(method_scores(c, spec),
                                      method_scores(shuffled, spec)), spec.label
                assert rank_candidates(c, spec) == rank_candidates(shuffled, spec)

    def test_pr_ar_mr_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            c = random_candidate_set(rng, min_n=2)
            transformed = CandidateSet(user_id=c.user_id, item_ids=c.item_ids,
                                       matrix=np.exp(c.matrix / 2.0))
            # every one of these reads only each criterion's order
            for label in ("pr", "kd:0.25", "kd:0.5", "kd:1", "ar", "mr",
                          "pr+ar", "kd:0.5+mr"):
                assert scores_of(c, label) == scores_of(transformed, label), label

    def test_kd_scores_nondecreasing_in_k(self):
        rng = np.random.default_rng(31)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        for _ in range(50):
            c = random_candidate_set(rng)
            rows = [method_scores(c, MethodSpec("kd", k=k)) for k in grid]
            for lo, hi in zip(rows, rows[1:]):
                assert np.all(hi >= lo)

    def test_hybrid_preserves_major_and_refines_ties(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            c = random_candidate_set(rng, min_n=2)
            major_spec = MethodSpec("kd", k=0.5)
            for sub_kind in ("ar", "mr", "gd", "pg"):
                major = method_scores(c, major_spec)
                sub = method_scores(c, MethodSpec(sub_kind))
                hybrid = method_scores(
                    c, MethodSpec("hybrid", major=major_spec, sub=MethodSpec(sub_kind)))
                for i in range(c.n):
                    for j in range(c.n):
                        if major[i] > major[j]:
                            assert hybrid[i] > hybrid[j]
                        if hybrid[i] == hybrid[j]:
                            assert major[i] == major[j] and sub[i] == sub[j]

    def test_lower_better_methods_negated_in_list(self):
        c = CandidateSet.from_pairs("u", [("a", (5.0,)), ("b", (3.0,)), ("c", (4.0,))])
        ranked = rank_candidates(c, MethodSpec("ar"))
        assert ranked.item_ids == ["a", "c", "b"]
        assert ranked.scores == [-1.0, -2.0, -3.0]

    def test_kd_zero_list_equals_pr_list(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            c = random_candidate_set(rng)
            assert rank_candidates(c, MethodSpec("kd", k=0.0)) == \
                rank_candidates(c, MethodSpec("pr"))

    def test_hybrid_with_constant_sub_is_major_plus_offset(self):
        # identical candidates: every sub score ties, so the hybrid is the
        # major score shifted by one constant and the ordering is unchanged
        c = identical_set(4, (2.0, 3.0))
        spec = MethodSpec("hybrid", major=MethodSpec("pr"), sub=MethodSpec("ar"))
        hybrid = method_scores(c, spec).tolist()
        major = scores_of(c, "pr")
        offset = (4 - 2.5) / 4
        assert hybrid == [m + offset for m in major]
        assert rank_candidates(c, spec).item_ids == \
            rank_candidates(c, MethodSpec("pr")).item_ids
