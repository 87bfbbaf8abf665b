import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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
    synth_generate,
    top_n,
    validate_dataset,
)
from mcrank import metrics, pipeline, ranking
from mcrank.io import experiment_config_from_dict
from naive import ordered_sum

FAST_TRAIN = TrainConfig(latent_dim=4, epochs=3, seed=5)


def small_dataset(seed=0):
    return synth_generate(20, 12, 3, 0.6, seed=seed)


def dataset_with_a_full_rater():
    """48 users: 47 synth users with records, plus ``u99``, who rates every
    item. With ``small_config``'s split, one fold's test part holds just
    one of u99's records, so under ``all_unrated`` that fold ranks a pool
    of one item for u99."""
    ds = synth_generate(48, 10, 3, 0.3, seed=6)
    full = [RatingRecord(user_id="u99", item_id=item, overall=float(1 + j % 5),
                         criteria=(float(1 + j % 5), float(1 + (j * 3) % 5), 3.0))
            for j, item in enumerate(ds.items())]
    return replace(ds, records=ds.records + tuple(full))


def small_config(methods, **kwargs):
    defaults = dict(folds=3, seed=9, n_values=(3, 5), train=FAST_TRAIN)
    defaults.update(kwargs)
    return ExperimentConfig(methods=tuple(MethodSpec.parse(m) for m in methods),
                            **defaults)


class TestKfoldSplit:
    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_bad_seed_is_a_domain_error_naming_it(self, seed):
        with pytest.raises(DomainError, match="seed"):
            kfold_split(small_dataset(), 2, seed)

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
            # each pool's rows are the model's predictions of its ids, in id order
            assert cset.matrix.tobytes() == predict_many(model, user, expected).tobytes()
            # the user's test items are candidates; unrated ones count
            # as non-relevant with zero rating
            truth = truths[user]
            unrated = [i for i in expected if i not in truth.ratings]
            if unrated:
                assert truth.rating(unrated[0]) == 0.0
                assert unrated[0] not in truth.relevant

    def test_a_user_with_an_empty_pool_is_skipped(self):
        # a test record that repeats a training pair, which load_dataset
        # refuses but a Dataset built in code may hold, leaves u1, who
        # rated every item in training, nothing unrated to rank
        def record(user, item, value):
            return RatingRecord(user_id=user, item_id=item, overall=value,
                                criteria=(value, value, value))

        names = ("c1", "c2", "c3")
        train = Dataset(criteria_names=names, records=(
            *(record("u1", f"i{j}", 1.0 + j) for j in range(4)), record("u2", "i0", 3.0)))
        test = Dataset(criteria_names=names,
                       records=(record("u1", "i2", 4.0), record("u2", "i1", 2.0)))
        cands, truths, skipped = build_candidates(
            fit(train, FAST_TRAIN), test, Protocol.ALL_UNRATED, train=train)
        assert skipped == ["u1"]
        assert set(cands) == set(truths) == {"u2"}
        assert cands["u2"].item_ids == ("i1", "i2", "i3")

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
        with pytest.raises(KeyError, match="no cell for method='kd:0.5' n=4 fold='avg'"):
            report.cell("kd:0.5", 4)

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
        major = MethodSpec("kd", k=0.5)
        hybrid = MethodSpec("hybrid", major=major, sub=MethodSpec("pg"))
        for cset in cands.values():
            major_rank = {i: p for p, i in
                          enumerate(rank_candidates(cset, major).item_ids)}
            major_score = dict(zip(cset.item_ids,
                                   method_scores(cset, major).tolist()))
            hybrid_ids = rank_candidates(cset, hybrid).item_ids
            for earlier, later in zip(hybrid_ids, hybrid_ids[1:]):
                assert major_score[earlier] >= major_score[later]

    @pytest.mark.parametrize("threshold, protocol, methods, folds, ds, split", [
        *(pytest.param(t, p, ["kd:0.5", "ar", "mr", "gd", "kd:0.5+pg"], 3,
                       small_dataset(15), False, id=f"{t}-{p}")
          for t in (3.0, 0.0) for p in Protocol),
        # past 8 folds, where a pairwise sum would no longer add in fold
        # order, and with the baseline row last
        pytest.param(3.0, Protocol.TEST_ITEMS, ["kd:0.5", "ar", "gd", "pr"], 9,
                     small_dataset(15), False, id="nine-folds-pr-last"),
        # under one cell budget: size groups split over several slices,
        # sets scored several to a chunk and in row chunks, and a
        # one-item pool
        pytest.param(3.0, Protocol.ALL_UNRATED, ["kd:0.5", "ar", "mr", "gd", "kd:0.5+pg"],
                     3, dataset_with_a_full_rater(), True, id="all_unrated-split")])
    def test_every_cell_equals_per_list_evaluation(self, monkeypatch, threshold, protocol,
                                                   methods, folds, ds, split):
        # the oracle scores each (fold, method, user, N) list on its own
        # with the per-list metrics; at threshold 0 an unrated candidate
        # must still count as non-relevant
        cfg = small_config(methods, folds=folds,
                           protocol=protocol, relevance_threshold=threshold,
                           n_values=(1, 2, 3, 5, 8, 12, 40))
        cells = 200
        if split:
            batches = []
            real = ranking._score_batch

            def recorder(sets, *args):
                batches.append((len(sets), *sets[0].matrix.shape))
                return real(sets, *args)

            monkeypatch.setattr(ranking, "_score_batch", recorder)
            monkeypatch.setattr(ranking, "_CHUNK_CELLS", cells)
        report = run_experiment(ds, cfg)
        if split:
            sizes = [n for _, n, _ in batches]
            assert 1 in sizes and len(ds.users()) >= 40
            assert len(sizes) > len(set(sizes)) + 5  # groups span several slices
            # every slice's score table fits the budget; slices of sets that
            # fit a chunk span several chunks, and slices of larger sets are
            # scored in row chunks
            specs = len(report.metadata["methods"])
            assert all(b == 1 or b * specs * n <= cells for b, n, _ in batches)
            assert any(1 <= cells // (n * n * m) < b for b, n, m in batches)
            assert any(b > 1 and n * n * m > cells for b, n, m in batches)
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
                    means[(spec.label, n)] = (ordered_sum(f1s) / len(users),
                                              ordered_sum(nds) / len(users))
            per_fold.append(means)
        per_fold.append({key: tuple(ordered_sum(m[key][i] for m in per_fold) / cfg.folds
                                    for i in range(2))
                         for key in per_fold[0]})

        def ratio(value, base):
            return (value - base) / base if base else (0.0 if value == base else None)

        for spec in methods:
            for n in cfg.n_values:
                for fold, means in zip([*map(str, range(cfg.folds)), "avg"], per_fold):
                    cell = report.cell(spec.label, n, fold)
                    (f1v, ndv), (bf1, bnd) = means[(spec.label, n)], means[("pr", n)]
                    assert (cell.f1, cell.ndcg) == (f1v, ndv)
                    assert cell.improvement_f1 == ratio(f1v, bf1)
                    assert cell.improvement_ndcg == ratio(ndv, bnd)

    def test_reported_sums_do_not_use_the_builtin_sum(self, monkeypatch):
        # Python 3.12's sum() compensates; a report must not depend on it
        ds = synth_generate(40, 25, 3, 0.4, seed=2)
        cfg = ExperimentConfig(methods=(MethodSpec("pr"), MethodSpec.parse("kd:0.5+pg")),
                               folds=3, n_values=(2, 5),
                               train=TrainConfig(latent_dim=2, epochs=2))
        plain = run_experiment(ds, cfg).cells
        for module in (metrics, pipeline):
            monkeypatch.setattr(module, "sum", math.fsum, raising=False)
        assert run_experiment(ds, cfg).cells == plain

    def test_evaluate_leaves_numpy_ma_unimported(self):
        # numpy imports numpy.ma on the first np.unique call, which costs
        # about 1 MB of RSS; a fresh process shows whether evaluate does
        code = """if True:
            import sys
            from mcrank import ExperimentConfig, MethodSpec, Protocol, TrainConfig
            from mcrank import run_experiment, synth_generate
            ds = synth_generate(20, 12, 3, 0.6, seed=0)
            labels = ["pr", "kd:0.5", "ar", "mr", "gd", "pg", "kd:0.5+pg", "kd:0.5+ar"]
            for protocol in Protocol:
                run_experiment(ds, ExperimentConfig(
                    methods=tuple(map(MethodSpec.parse, labels)), folds=2,
                    protocol=protocol, train=TrainConfig(latent_dim=2, epochs=1)))
            assert "numpy.ma" not in sys.modules
        """
        src = str(Path(pipeline.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

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


class TestConfigTypes:
    @pytest.mark.parametrize("build, key", [
        (lambda: TrainConfig(epochs=2.5), "'train.epochs'"),
        (lambda: TrainConfig(latent_dim=True), "'train.latent_dim'"),
        (lambda: TrainConfig(epochs=True), "'train.epochs'"),
        (lambda: TrainConfig(learning_rate="0.1"), "'train.learning_rate'"),
        (lambda: small_config(["pr"], n_values=(2.7,)), "'n_values'"),
        (lambda: small_config(["pr"], folds=2.5), "'folds'"),
        (lambda: small_config(["pr"], seed=None), "'seed'"),
        (lambda: small_config(["pr"], relevance_threshold=True), "'relevance_threshold'"),
        (lambda: kfold_split(small_dataset(), 2.5, 0), "'folds'"),
        (lambda: kfold_split(small_dataset(), 2, -1), "seed must be non-negative"),
        (lambda: kfold_split(small_dataset(), 2, 2.5), "'seed'"),
        (lambda: kfold_split(small_dataset(), 2, True), "'seed'"),
    ], ids=["float-epochs", "bool-latent_dim", "bool-epochs", "str-learning_rate",
            "float-n_values", "float-folds", "none-seed", "bool-threshold",
            "kfold_split-float-folds", "kfold_split-negative-seed",
            "kfold_split-float-seed", "kfold_split-bool-seed"])
    def test_mistyped_value_names_its_key(self, build, key):
        with pytest.raises(DomainError, match=key):
            build()

    def test_numpy_scalars_are_accepted_and_dump_to_json(self):
        train = TrainConfig(latent_dim=np.int64(2), learning_rate=np.float32(0.5),
                            epochs=np.int16(1), seed=np.uint8(3))
        cfg = small_config(["pr"], folds=np.int64(3), seed=np.int32(4),
                           n_values=(np.int64(3), np.int8(5)),
                           relevance_threshold=np.int64(4), train=train)
        doc = pipeline.config_to_dict(cfg)
        assert json.loads(json.dumps(doc)) == doc
        assert doc["folds"] == 3 and type(doc["folds"]) is int
        assert doc["n_values"] == [3, 5] and {type(n) for n in doc["n_values"]} == {int}
        assert type(doc["relevance_threshold"]) is float
        assert doc["train"] == {"latent_dim": 2, "learning_rate": 0.5, "reg": 0.02,
                                "epochs": 1, "seed": 3}
        assert len(kfold_split(small_dataset(), np.int64(3), 0)) == 3

    def test_integer_valued_floats_echo_as_floats(self):
        def echo(train):
            doc = pipeline.config_to_dict(
                experiment_config_from_dict({"methods": ["pr"], "train": train}))
            return doc, json.dumps(doc, sort_keys=True)  # what config_hash digests

        ints, floats = echo({"reg": 0, "learning_rate": 1}), \
            echo({"reg": 0.0, "learning_rate": 1.0})
        assert ints == floats
        assert type(ints[0]["train"]["reg"]) is float
        assert type(ints[0]["relevance_threshold"]) is float


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


    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_each_candidate_set_is_predicted_by_one_predict_many_call(
            self, monkeypatch, protocol):
        # bench/traced.py times pipeline.predict_many as predictor.predict_many;
        # a pool path that bypasses it reads 0 there
        calls = []
        real = pipeline.predict_many

        def recorder(model, user, items):
            calls.append((user, list(items)))
            return real(model, user, items)

        monkeypatch.setattr(pipeline, "predict_many", recorder)
        train, test = kfold_split(small_dataset(29), 3, 9)[0]
        cands, _, _ = build_candidates(fit(train, FAST_TRAIN), test, protocol, train=train)
        assert calls == [(user, list(c.item_ids)) for user, c in cands.items()]

    def test_each_fold_model_is_fit_on_its_training_part_with_seed_plus_fold(
            self, monkeypatch):
        # bench/run.py's heldout_rmse reads these models: every fold's must be
        # the one `fit` trains on that fold alone
        models = []
        real = pipeline.build_candidates

        def recorder(model, *args, **kwargs):
            models.append(model)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(pipeline, "build_candidates", recorder)
        ds = small_dataset(23)
        cfg = small_config(["pr"], folds=5)
        run_experiment(ds, cfg)
        assert len(models) == cfg.folds
        for fold, (model, (train, _)) in enumerate(
                zip(models, kfold_split(ds, cfg.folds, cfg.seed))):
            alone = fit(train, replace(cfg.train, seed=cfg.train.seed + fold))
            for attr in ("global_means", "user_biases", "item_biases",
                         "user_factors", "item_factors"):
                assert getattr(model, attr).tobytes() == getattr(alone, attr).tobytes()
            assert (model.user_ids, model.item_ids, model.loss_history) == \
                (alone.user_ids, alone.item_ids, alone.loss_history)


class TestSweepK:
    def test_k_zero_row_equals_pr(self):
        ds = small_dataset(15)
        report = run_experiment(ds, replace(small_config(["pr"]), methods=tuple(
            MethodSpec("kd", k=k) for k in [0.0])))
        for cell in report.cells:
            if cell.method == "kd:0":
                twin = report.cell("pr", cell.n, cell.fold)
                assert (cell.f1, cell.ndcg) == (twin.f1, twin.ndcg)

    def test_three_values_three_rows(self):
        ds = small_dataset(16)
        report = run_experiment(ds, replace(small_config(["pr"]), methods=tuple(
            MethodSpec("kd", k=k) for k in [0.0, 0.5, 1.0])))
        assert {c.method for c in report.cells} == {"pr", "kd:0", "kd:0.5", "kd:1"}

    def test_kd_scores_nondecreasing_in_k_on_real_candidates(self):
        ds = small_dataset(17)
        train, test = kfold_split(ds, 3, seed=9)[0]
        model = fit(train, FAST_TRAIN)
        cands, _, _ = build_candidates(model, test)
        for cset in list(cands.values())[:10]:
            previous = None
            for k in (0.0, 0.25, 0.5, 0.75, 1.0):
                scores = method_scores(cset, MethodSpec("kd", k=k))
                if previous is not None:
                    assert np.all(scores >= previous)
                previous = scores

    def test_invalid_k_rejected(self):
        ds = small_dataset(18)
        for ks in ([0.5, 1.5], [], [0.5, 0.5]):
            with pytest.raises(DomainError):
                run_experiment(ds, replace(small_config(["pr"]), methods=tuple(
                    MethodSpec("kd", k=k) for k in ks)))


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
        assert validate_dataset(ds) == ()
        values = [v for r in ds.records for v in (r.overall, *r.criteria)]
        assert set(values) <= {1.0, 2.0, 3.0, 4.0, 5.0}

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            synth_generate(0, 5, 2, 0.5, seed=0)
        with pytest.raises(DomainError):
            synth_generate(5, 5, 2, 0.0, seed=0)
        with pytest.raises(DomainError):
            synth_generate(5, 5, 2, 1.5, seed=0)
