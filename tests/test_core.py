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

    def test_scale_must_be_ordered(self):
        with pytest.raises(DomainError):
            Dataset(criteria_names=("a",), scale_min=5, scale_max=1)

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
        assert validate_dataset(d).ok

    def test_out_of_range_flagged_with_location(self):
        d = make_dataset([
            ("u1", "i1", 4, (4, 3, 4)),
            ("u1", "i2", 3, (6, 3, 3)),
        ])
        result = validate_dataset(d)
        assert not result.ok
        (v,) = result.violations
        assert v.kind == "out_of_range"
        assert v.record_index == 1
        assert v.item_id == "i2"

    def test_duplicate_pair_flagged(self):
        d = make_dataset([
            ("u1", "i1", 4, (4, 3, 4)),
            ("u1", "i1", 3, (3, 3, 3)),
        ])
        kinds = {v.kind for v in validate_dataset(d).violations}
        assert kinds == {"duplicate_pair"}

    def test_criteria_length_mismatch_flagged(self):
        d = make_dataset([("u1", "i1", 4, (4, 3))])
        kinds = {v.kind for v in validate_dataset(d).violations}
        assert kinds == {"criteria_length"}

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
            d = make_dataset([(u, i, o, tuple(c)) for u, i, o, c in mutated])
            assert not validate_dataset(d).ok, kind


class TestCandidateSet:
    def test_from_pairs(self):
        c = CandidateSet.from_pairs("u", [("a", (1, 2)), ("b", (3, 4))])
        assert c.n == 2 and c.n_criteria == 2
        assert c.candidates[1][0] == "b"
        assert c.candidates[1][1].tolist() == [3.0, 4.0]

    def test_duplicate_item_ids_rejected(self):
        with pytest.raises(DomainError):
            CandidateSet.from_pairs("u", [("a", (1, 2)), ("a", (3, 4))])

    def test_ragged_vectors_rejected(self):
        with pytest.raises(DimensionError, match="'u7'"):
            CandidateSet.from_pairs("u7", [("a", (1, 2)), ("b", (3, 4, 5))])

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            CandidateSet.from_pairs("u", [])


class TestMethodSpec:
    def test_kd_range_enforced(self):
        MethodSpec.kd(0.0)
        MethodSpec.kd(1.0)
        with pytest.raises(DomainError):
            MethodSpec.kd(1.5)
        with pytest.raises(DomainError):
            MethodSpec.kd(-0.1)

    def test_hybrid_combination_enforced(self):
        MethodSpec.hybrid(MethodSpec.kd(0.5), MethodSpec.pg())
        with pytest.raises(DomainError):
            MethodSpec.hybrid(MethodSpec.ar(), MethodSpec.pg())
        with pytest.raises(DomainError):
            MethodSpec.hybrid(MethodSpec.pr(), MethodSpec.kd(0.5))

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
        spec = MethodSpec.kd(k)
        assert MethodSpec.parse(spec.label).k == k
        hybrid = MethodSpec.hybrid(spec, MethodSpec.pg())
        assert MethodSpec.parse(hybrid.label) == hybrid

    def test_k_values_equal_to_six_digits_are_distinct_methods(self):
        cfg = ExperimentConfig(methods=(MethodSpec.parse("kd:0.1234567"),
                                        MethodSpec.parse("kd:0.1234568")))
        assert [m.label for m in cfg.methods] == ["kd:0.1234567", "kd:0.1234568"]

    def test_parse_rejects_garbage(self):
        for text in ["nope", "kd", "kd:2", "ar+pg", "kd:0.5+kd:0.5"]:
            with pytest.raises(DomainError):
                MethodSpec.parse(text)


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
