from dataclasses import replace

import numpy as np
import pytest

from mcrank import (
    Dataset,
    DomainError,
    ExperimentConfig,
    MethodSpec,
    PredictorModel,
    Protocol,
    RatingRecord,
    SplitError,
    TrainConfig,
    build_candidates,
    confusion,
    f1,
    fit,
    kfold_split,
    method_scores,
    ndcg,
    predict_many,
    rank_candidates,
    run_experiment,
    sweep_k,
    synth_generate,
    top_n,
    validate_dataset,
)
from mcrank import pipeline

FAST_TRAIN = TrainConfig(latent_dim=4, epochs=3, seed=5)


def small_dataset(seed=0):
    return synth_generate(20, 12, 3, 0.6, seed=seed)


def small_config(methods, **kwargs):
    defaults = dict(folds=3, seed=9, n_values=(3, 5), train=FAST_TRAIN)
    defaults.update(kwargs)
    return ExperimentConfig(methods=tuple(MethodSpec.parse(m) for m in methods),
                            **defaults)


class TestKfoldSplit:
    def test_balanced_partition(self):
        ds = small_dataset()
        n = len(ds.records)
        splits = kfold_split(ds, 5, seed=1)
        sizes = [len(test.records) for _, test in splits]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        seen = [r for _, test in splits for r in test.records]
        assert len(seen) == len(set((r.user_id, r.item_id) for r in seen)) == n
        for train, test in splits:
            assert len(train.records) + len(test.records) == n
            overlap = {(r.user_id, r.item_id) for r in train.records} & \
                {(r.user_id, r.item_id) for r in test.records}
            assert not overlap

    def test_ten_records_five_folds(self):
        ds = Dataset(criteria_names=("a",),
                     records=tuple(RatingRecord(f"u{i}", "i0", 3, (3,))
                                   for i in range(10)))
        sizes = [len(t.records) for _, t in kfold_split(ds, 5, seed=0)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_eleven_records_two_folds(self):
        ds = Dataset(criteria_names=("a",),
                     records=tuple(RatingRecord(f"u{i}", "i0", 3, (3,))
                                   for i in range(11)))
        sizes = sorted(len(t.records) for _, t in kfold_split(ds, 2, seed=0))
        assert sizes == [5, 6]

    def test_same_seed_same_split(self):
        ds = small_dataset()
        a = kfold_split(ds, 4, seed=7)
        b = kfold_split(ds, 4, seed=7)
        assert all(x[1].records == y[1].records for x, y in zip(a, b))

    def test_too_few_records(self):
        ds = Dataset(criteria_names=("a",),
                     records=tuple(RatingRecord(f"u{i}", "i0", 3, (3,))
                                   for i in range(3)))
        with pytest.raises(SplitError):
            kfold_split(ds, 5, seed=0)

    def test_fold_count_validated(self):
        with pytest.raises(DomainError):
            kfold_split(small_dataset(), 1, seed=0)


class TestBuildCandidates:
    def test_test_items_protocol(self):
        ds = small_dataset(3)
        train, test = kfold_split(ds, 4, seed=2)[0]
        model = fit(train, FAST_TRAIN)
        cands, truths, skipped = build_candidates(model, test)
        assert not skipped
        test_by_user = {}
        for r in test.records:
            test_by_user.setdefault(r.user_id, {})[r.item_id] = r.overall
        assert set(cands) == set(test_by_user)
        for user, cset in cands.items():
            assert list(cset.item_ids) == sorted(test_by_user[user])
            expected = predict_many(model, user, list(cset.item_ids))
            assert np.array_equal(cset.matrix, expected)
            for item, overall in test_by_user[user].items():
                assert truths[user].rating(item) == overall

    def test_train_only_users_are_not_evaluated(self):
        ds = small_dataset(4)
        train, test = kfold_split(ds, 4, seed=3)[0]
        model = fit(train, FAST_TRAIN)
        cands, _, _ = build_candidates(model, test)
        test_users = {r.user_id for r in test.records}
        train_only = {r.user_id for r in train.records} - test_users
        assert train_only  # the fixture actually exercises the case
        assert not (set(cands) & train_only)

    def test_all_unrated_protocol(self):
        ds = small_dataset(5)
        train, test = kfold_split(ds, 4, seed=4)[0]
        model = fit(train, FAST_TRAIN)
        cands, truths, _ = build_candidates(
            model, test, Protocol.ALL_UNRATED, train=train)
        universe = {r.item_id for r in train.records} | \
            {r.item_id for r in test.records}
        rated_in_train = {}
        for r in train.records:
            rated_in_train.setdefault(r.user_id, set()).add(r.item_id)
        for user, cset in cands.items():
            expected = sorted(universe - rated_in_train.get(user, set()))
            assert list(cset.item_ids) == expected
            # the user's test items are candidates; unrated ones count
            # as non-relevant with zero rating
            truth = truths[user]
            unrated = [i for i in expected if i not in truth.ratings]
            if unrated:
                assert truth.rating(unrated[0]) == 0.0
                assert not truth.is_relevant(unrated[0])

    def test_all_unrated_requires_train(self):
        ds = small_dataset(6)
        train, test = kfold_split(ds, 4, seed=5)[0]
        model = fit(train, FAST_TRAIN)
        with pytest.raises(DomainError):
            build_candidates(model, test, Protocol.ALL_UNRATED)


class TestRunExperiment:
    def test_pr_improvement_ratios_are_exactly_zero(self):
        report = run_experiment(small_dataset(7), small_config(["pr"]))
        pr_cells = [c for c in report.cells if c.method == "pr"]
        assert pr_cells
        for cell in pr_cells:
            assert cell.improvement_f1 == 0.0
            assert cell.improvement_ndcg == 0.0

    def test_kd_zero_equals_pr_everywhere(self):
        report = run_experiment(small_dataset(8),
                                small_config(["pr", "kd:0"]))
        for cell in report.cells:
            if cell.method == "kd:0":
                twin = report.cell("pr", cell.n, cell.fold)
                assert cell.f1 == twin.f1
                assert cell.ndcg == twin.ndcg

    def test_deterministic_given_seed(self):
        ds = small_dataset(9)
        cfg = small_config(["pr", "kd:0.5", "kd:0.5+pg"])
        assert run_experiment(ds, cfg) == run_experiment(ds, cfg)

    def test_baseline_added_when_missing(self):
        report = run_experiment(small_dataset(11), small_config(["kd:0.5"]))
        methods = {c.method for c in report.cells}
        assert methods == {"pr", "kd:0.5"}
        assert report.metadata["methods"] == ["pr", "kd:0.5"]
        assert report.metadata["config"]["methods"] == ["kd:0.5"]

    def test_every_configured_cell_present(self):
        cfg = small_config(["pr", "kd:0.5", "kd:0.5+gd"])
        report = run_experiment(small_dataset(12), cfg)
        folds = {str(f) for f in range(cfg.folds)} | {"avg"}
        expected = {(m.label, n, f) for m in cfg.methods
                    for n in cfg.n_values for f in folds}
        assert {(c.method, c.n, c.fold) for c in report.cells} == expected
        assert len(report.cells) == len(expected)

    def test_hybrid_cells_carry_k_and_sub(self):
        report = run_experiment(small_dataset(13),
                                small_config(["kd:0.5+pg"]))
        cell = report.cell("kd:0.5+pg", 3)
        assert cell.k == 0.5 and cell.sub == "pg"
        assert report.cell("pr", 3).k is None

    def test_hybrid_list_refines_major_list(self):
        ds = small_dataset(14)
        train, test = kfold_split(ds, 3, seed=9)[0]
        model = fit(train, FAST_TRAIN)
        cands, _, _ = build_candidates(model, test)
        major = MethodSpec.kd(0.5)
        hybrid = MethodSpec.hybrid(major, MethodSpec.pg())
        for cset in cands.values():
            major_rank = {i: p for p, i in
                          enumerate(rank_candidates(cset, major).item_ids)}
            major_score = dict(zip(cset.item_ids,
                                   method_scores(cset, major).tolist()))
            hybrid_ids = rank_candidates(cset, hybrid).item_ids
            for earlier, later in zip(hybrid_ids, hybrid_ids[1:]):
                assert major_score[earlier] >= major_score[later]

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("threshold", [3.0, 0.0])
    def test_every_cell_equals_per_list_evaluation(self, protocol, threshold):
        # the oracle scores each (fold, method, user, N) list on its own
        # with the per-list metrics; at threshold 0 an unrated candidate
        # must still count as non-relevant
        ds = small_dataset(15)
        cfg = small_config(["kd:0.5", "ar", "mr", "gd", "kd:0.5+pg"],
                           protocol=protocol, relevance_threshold=threshold,
                           n_values=(1, 2, 3, 5, 8, 12, 40))
        report = run_experiment(ds, cfg)
        methods = [MethodSpec.parse(m) for m in report.metadata["methods"]]
        per_fold = []
        for fold, (train, test) in enumerate(kfold_split(ds, cfg.folds, cfg.seed)):
            model = fit(train, replace(cfg.train, seed=cfg.train.seed + fold))
            cands, truths, _ = build_candidates(model, test, protocol, train=train,
                                                threshold=threshold)
            users = sorted(cands)
            means = {}
            for spec in methods:
                ranked = [rank_candidates(cands[u], spec) for u in users]
                for n in cfg.n_values:
                    tops = [top_n(r, n).item_ids for r in ranked]
                    f1s = [f1(confusion(t, truths[u])) for t, u in zip(tops, users)]
                    nds = [ndcg(t, truths[u]) for t, u in zip(tops, users)]
                    means[(spec.label, n)] = (sum(f1s) / len(users),
                                              sum(nds) / len(users))
            per_fold.append(means)
        for spec in methods:
            for n in cfg.n_values:
                for fold, means in enumerate(per_fold):
                    cell = report.cell(spec.label, n, str(fold))
                    assert (cell.f1, cell.ndcg) == means[(spec.label, n)]
                avg = report.cell(spec.label, n)
                assert avg.f1 == sum(m[(spec.label, n)][0] for m in per_fold) / cfg.folds
                assert avg.ndcg == sum(m[(spec.label, n)][1] for m in per_fold) / cfg.folds

    def test_config_validation(self):
        with pytest.raises(DomainError):
            small_config([])
        with pytest.raises(DomainError):
            small_config(["pr"], folds=1)
        with pytest.raises(DomainError):
            small_config(["pr"], n_values=(3, 3))
        with pytest.raises(DomainError):
            small_config(["pr"], n_values=(0,))
        with pytest.raises(DomainError):
            small_config(["pr", "pr"])


class TestBenchmarkContract:
    def test_candidates_built_once_per_fold_from_model_and_test(self, monkeypatch):
        # bench/workloads.pass_recorder wraps pipeline.build_candidates and
        # reads each fold's model and test part from its first two
        # positional arguments, one call per fold
        calls = []
        real = pipeline.build_candidates

        def recorder(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_candidates", recorder)
        ds = small_dataset(19)
        cfg = small_config(["pr", "kd:0.5+pg", "ar"], folds=4)
        run_experiment(ds, cfg)
        assert len(calls) == cfg.folds
        for args, (_, test) in zip(calls, kfold_split(ds, cfg.folds, cfg.seed)):
            assert len(args) >= 2
            assert isinstance(args[0], PredictorModel)
            assert args[1] == test


class TestSweepK:
    def test_k_zero_row_equals_pr(self):
        ds = small_dataset(15)
        report = sweep_k(ds, [0.0], small_config(["pr"]))
        for cell in report.cells:
            if cell.method == "kd:0":
                twin = report.cell("pr", cell.n, cell.fold)
                assert (cell.f1, cell.ndcg) == (twin.f1, twin.ndcg)

    def test_three_values_three_rows(self):
        ds = small_dataset(16)
        report = sweep_k(ds, [0.0, 0.5, 1.0], small_config(["pr"]))
        assert {c.method for c in report.cells} == {"pr", "kd:0", "kd:0.5", "kd:1"}

    def test_kd_scores_nondecreasing_in_k_on_real_candidates(self):
        ds = small_dataset(17)
        train, test = kfold_split(ds, 3, seed=9)[0]
        model = fit(train, FAST_TRAIN)
        cands, _, _ = build_candidates(model, test)
        for cset in list(cands.values())[:10]:
            previous = None
            for k in (0.0, 0.25, 0.5, 0.75, 1.0):
                scores = method_scores(cset, MethodSpec.kd(k))
                if previous is not None:
                    assert np.all(scores >= previous)
                previous = scores

    def test_invalid_k_rejected(self):
        ds = small_dataset(18)
        with pytest.raises(DomainError):
            sweep_k(ds, [0.5, 1.5], small_config(["pr"]))
        with pytest.raises(DomainError):
            sweep_k(ds, [], small_config(["pr"]))
        with pytest.raises(DomainError):
            sweep_k(ds, [0.5, 0.5], small_config(["pr"]))


class TestSynthGenerate:
    def test_full_density_is_the_full_matrix(self):
        ds = synth_generate(7, 5, 2, 1.0, seed=0)
        assert len(ds.records) == 35

    def test_expected_record_count(self):
        users, items, density = 300, 80, 0.2
        ds = synth_generate(users, items, 4, density, seed=1)
        expected = density * users * items
        spread = np.sqrt(users * items * density * (1 - density))
        assert abs(len(ds.records) - expected) < 5 * spread

    def test_deterministic(self):
        assert synth_generate(30, 10, 3, 0.4, seed=9) == \
            synth_generate(30, 10, 3, 0.4, seed=9)

    def test_output_is_valid(self):
        ds = synth_generate(25, 12, 3, 0.5, seed=2)
        assert validate_dataset(ds).ok
        values = [v for r in ds.records for v in (r.overall, *r.criteria)]
        assert set(values) <= {1.0, 2.0, 3.0, 4.0, 5.0}

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            synth_generate(0, 5, 2, 0.5, seed=0)
        with pytest.raises(DomainError):
            synth_generate(5, 5, 2, 0.0, seed=0)
        with pytest.raises(DomainError):
            synth_generate(5, 5, 2, 1.5, seed=0)
