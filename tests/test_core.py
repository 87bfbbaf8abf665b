import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mcrank import (
    CandidateSet,
    Dataset,
    DimensionError,
    DomainError,
    ExperimentConfig,
    MethodSpec,
    RatingRecord,
    ScoredList,
    validate_dataset,
)


def make_dataset(rows, names=("food", "service", "ambience")):
    records = tuple(RatingRecord(u, i, o, c) for u, i, o, c in rows)
    return Dataset(criteria_names=names, records=records)


class TestCriteriaVector:
    """A candidate's criteria vector, as ``CandidateSet`` checks and keeps it."""

    @staticmethod
    def one_candidate(vector):
        return CandidateSet.from_pairs("u", [("a", vector)])

    def test_valid(self):
        matrix = self.one_candidate([4, 5, 3]).matrix
        assert matrix.dtype == np.float64 and matrix.tolist() == [[4.0, 5.0, 3.0]]
        assert not matrix.flags.writeable

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            self.one_candidate([])

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DimensionError):
                self.one_candidate([1.0, bad])

    def test_rejects_matrix(self):
        with pytest.raises(DimensionError):
            self.one_candidate([[1.0, 2.0]])


class TestDataset:
    def test_needs_a_criterion(self):
        with pytest.raises(DomainError):
            Dataset(criteria_names=())

    def test_users_items_in_first_appearance_order(self):
        d = make_dataset([
            ("u2", "i1", 3, (3, 3, 3)),
            ("u1", "i2", 4, (4, 4, 4)),
            ("u2", "i2", 5, (5, 5, 5)),
        ])
        assert d.users() == ["u2", "u1"]
        assert d.items() == ["i1", "i2"]
        assert len(d.by_user()["u2"]) == 2


class TestValidateDataset:
    def test_clean_dataset_passes(self):
        d = make_dataset([
            ("u1", "i1", 4, (4, 3, 4)),
            ("u1", "i2", 3, (3, 3, 3)),
        ])
        assert validate_dataset(d) == ()

    def test_out_of_range_flagged_with_location(self):
        d = make_dataset([
            ("u1", "i1", 4, (4, 3, 4)),
            ("u1", "i2", 3, (6, 3, 3)),
        ])
        (v,) = validate_dataset(d)
        assert v.kind == "out_of_range"
        assert v.record_index == 1
        assert v.item_id == "i2"

    def test_duplicate_pair_flagged(self):
        d = make_dataset([
            ("u1", "i1", 4, (4, 3, 4)),
            ("u1", "i1", 3, (3, 3, 3)),
        ])
        kinds = {v.kind for v in validate_dataset(d)}
        assert kinds == {"duplicate_pair"}

    def test_criteria_length_mismatch_is_refused(self):
        with pytest.raises(DimensionError, match=re.escape(
                "record 0 (u1, i1): expected 3 criteria values, got 2")):
            make_dataset([("u1", "i1", 4, (4, 3))])
        # ragged records: the first one with the wrong count is named
        with pytest.raises(DimensionError, match=re.escape(
                "record 1 (u1, i2): expected 2 criteria values, got 1")):
            make_dataset([("u1", "i1", 4, (4, 3)), ("u1", "i2", 3, (3,))],
                         names=("food", "service"))

    def test_every_broken_invariant_is_caught(self):
        # mutate a valid dataset one invariant at a time
        rows = [(f"u{i}", f"i{j}", 3.0, (3.0, 3.0, 3.0))
                for i in range(4) for j in range(4)]
        rng = np.random.default_rng(7)
        for _ in range(50):
            mutated = [[r[0], r[1], r[2], list(r[3])] for r in rows]
            idx = int(rng.integers(len(mutated)))
            kind = rng.choice(["range_overall", "range_criterion", "dup", "length"])
            if kind == "range_overall":
                mutated[idx][2] = 6.5
            elif kind == "range_criterion":
                mutated[idx][3][int(rng.integers(3))] = 0.0
            elif kind == "dup":
                mutated[idx][0], mutated[idx][1] = mutated[idx - 1][0], mutated[idx - 1][1]
            else:
                mutated[idx][3] = mutated[idx][3][:2]
            records = [(u, i, o, tuple(c)) for u, i, o, c in mutated]
            if kind == "length":  # refused when the dataset is built
                with pytest.raises(DimensionError, match=f"record {idx} "):
                    make_dataset(records)
            else:
                assert validate_dataset(make_dataset(records)), kind


class TestCandidateSet:
    def test_from_pairs(self):
        c = CandidateSet.from_pairs("u", [("a", (1, 2)), ("b", (3, 4))])
        assert c.n == 2 and c.n_criteria == 2
        item, vector = list(zip(c.item_ids, c.matrix))[1]
        assert item == "b" and vector.tolist() == [3.0, 4.0]

    def test_duplicate_item_ids_rejected(self):
        with pytest.raises(DomainError):
            CandidateSet.from_pairs("u", [("a", (1, 2)), ("a", (3, 4))])

    def test_ragged_vectors_rejected(self):
        with pytest.raises(DimensionError, match="'u7'"):
            CandidateSet.from_pairs("u7", [("a", (1, 2)), ("b", (3, 4, 5))])

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            CandidateSet.from_pairs("u", [])

    def test_ids_and_rows_must_match(self):
        with pytest.raises(DimensionError, match="2 item ids but 1 criteria rows"):
            CandidateSet(user_id="u", item_ids=("a", "b"), matrix=np.ones((1, 2)))

    @pytest.mark.parametrize("ids", [("a", "b", "c"), ("c", "a", "b")])
    def test_caller_array_stays_its_own(self, ids):
        given = np.arange(6.0).reshape(3, 2)
        c = CandidateSet("u", ids, given)
        assert given.flags.writeable and given.tolist() == [[0, 1], [2, 3], [4, 5]]
        assert not np.shares_memory(given, c.matrix) and not c.matrix.flags.writeable
        assert c.item_ids == ("a", "b", "c")
        assert c.matrix.tolist() == [given[ids.index(i)].tolist() for i in c.item_ids]
        with pytest.raises(DomainError, match=re.escape(
                "duplicate item ids in candidate set for user 'u'")):
            CandidateSet("u", (*ids, ids[1]), np.vstack([given, given[:1]]))

    def test_non_numeric_value_is_not_a_shape_error(self):
        with pytest.raises(ValueError, match="could not convert") as caught:
            CandidateSet.from_pairs("u", [("a", ("x",))])
        assert type(caught.value) is ValueError


class TestMethodSpec:
    def test_kd_range_enforced(self):
        MethodSpec("kd", k=0.0)
        MethodSpec("kd", k=1.0)
        with pytest.raises(DomainError):
            MethodSpec("kd", k=1.5)
        with pytest.raises(DomainError):
            MethodSpec("kd", k=-0.1)

    def test_hybrid_combination_enforced(self):
        MethodSpec("hybrid", major=MethodSpec("kd", k=0.5), sub=MethodSpec("pg"))
        with pytest.raises(DomainError):
            MethodSpec("hybrid", major=MethodSpec("ar"), sub=MethodSpec("pg"))
        with pytest.raises(DomainError):
            MethodSpec("hybrid", major=MethodSpec("pr"), sub=MethodSpec("kd", k=0.5))

    @pytest.mark.parametrize("build, message", [
        (lambda: MethodSpec("hybrid", k=0.5, major=MethodSpec("pr"), sub=MethodSpec("ar")),
         "k belongs on the major spec, not the hybrid"),
        (lambda: MethodSpec("kd"), "kd requires a relaxation factor k"),
        (lambda: MethodSpec("ar", k=0.5), "method ar does not take k"),
        (lambda: MethodSpec("pr", major=MethodSpec("pr")), "method pr does not take major/sub"),
        (lambda: MethodSpec("zz"), "unknown ranking method 'zz'"),
    ], ids=["hybrid-with-k", "kd-without-k", "ar-with-k", "pr-with-major", "unknown-kind"])
    def test_malformed_spec_refused(self, build, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("label", ["pr", "ar", "mr", "gd", "pg",
                                       "kd:0.5", "kd:0.5+pg", "pr+ar",
                                       "kd:0", "kd:1", "kd:0.25",
                                       "kd:0.1234567", "kd:0.1234567+ar"])
    def test_parse_label_round_trip(self, label):
        assert MethodSpec.parse(label).label == label

    @pytest.mark.parametrize("k", [0.0, 0.25, 1.0, 0.1234567, 0.1234568,
                                   1 / 3, 0.1, 1e-7, 0.9999999999])
    def test_kd_label_round_trips_k(self, k):
        # a k that six significant digits would round keeps its repr
        spec = MethodSpec("kd", k=k)
        assert MethodSpec.parse(spec.label).k == k
        hybrid = MethodSpec("hybrid", major=spec, sub=MethodSpec("pg"))
        assert MethodSpec.parse(hybrid.label) == hybrid

    @pytest.mark.parametrize("spec", [MethodSpec("kd", k=-0.0), MethodSpec.parse("kd:-0"),
                                      MethodSpec.parse("kd:-0+ar").major])
    def test_negative_zero_k_is_zero(self, spec):
        assert spec == MethodSpec("kd", k=0.0) and spec.label == "kd:0"
        assert not np.signbit(spec.k)

    def test_k_values_equal_to_six_digits_are_distinct_methods(self):
        cfg = ExperimentConfig(methods=(MethodSpec.parse("kd:0.1234567"),
                                        MethodSpec.parse("kd:0.1234568")))
        assert [m.label for m in cfg.methods] == ["kd:0.1234567", "kd:0.1234568"]

    def test_parse_rejects_garbage(self):
        for text in ["nope", "kd", "kd:2", "kd:x", "ar+pg", "kd:0.5+kd:0.5", "kdx:0.5",
                     "pr:0.5"]:
            with pytest.raises(DomainError):
                MethodSpec.parse(text)

    @pytest.mark.parametrize("label", ["kd:0.1+ar+pg", "pr+ar+", "pr++ar"])
    def test_parse_rejects_more_than_one_plus(self, label):
        message = f"hybrid {label!r} must be <major>+<sub>, with one '+'"
        with pytest.raises(DomainError, match=re.escape(message)):
            MethodSpec.parse(label)


class TestScoredList:
    def test_from_pairs_sorts_desc_then_id(self):
        sl = ScoredList.from_pairs([("b", 1.0), ("c", 2.0), ("a", 1.0)])
        assert sl.entries == (("c", 2.0), ("a", 1.0), ("b", 1.0))

    def test_invariant_enforced_on_construction(self):
        with pytest.raises(DomainError):
            ScoredList((("a", 1.0), ("b", 2.0)))
        with pytest.raises(DomainError):
            ScoredList((("b", 1.0), ("a", 1.0)))

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(-5, 5)), max_size=30)
           .map(lambda pairs: [(f"i{a:02d}-{j}", float(s)) for j, (a, s) in enumerate(pairs)]))
    def test_pure_function_of_multiset(self, pairs):
        rng = np.random.default_rng(0)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert ScoredList.from_pairs(pairs) == ScoredList.from_pairs(shuffled)
