import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive import naive_fit, naive_levels

from mcrank import predictor
from mcrank.pipeline import kfold_split
from mcrank.predictor import fit_folds
from mcrank import (
    Dataset,
    DomainError,
    PredictorModel,
    RatingRecord,
    TrainConfig,
    TrainingError,
    fit,
    load_model,
    predict_many,
    save_model,
)

FAST = TrainConfig(latent_dim=4, epochs=5, seed=11)


def constant_dataset(value=3.0, users=6, items=5, m=2):
    records = tuple(
        RatingRecord(f"u{u}", f"i{i}", value, (value,) * m)
        for u in range(users) for i in range(items)
    )
    return Dataset(criteria_names=tuple(f"c{j}" for j in range(m)), records=records)


def random_dataset(seed, users=12, items=10, m=3, density=0.7):
    rng = np.random.default_rng(seed)
    records = []
    for u in range(users):
        for i in range(items):
            if rng.random() < density:
                criteria = tuple(float(v) for v in rng.integers(1, 6, size=m))
                records.append(RatingRecord(f"u{u:02d}", f"i{i:02d}",
                                            float(rng.integers(1, 6)), criteria))
    return Dataset(criteria_names=tuple(f"c{j}" for j in range(m)),
                   records=tuple(records))


def single_record_dataset(m=4):
    return Dataset(criteria_names=("a", "b", "c", "d")[:m],
                   records=(RatingRecord("u", "i", 4.0, (5.0, 4.0, 3.0, 2.0)[:m]),))


SINGLE_RECORD = single_record_dataset()


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(latent_dim=0)
        with pytest.raises(DomainError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(DomainError):
            TrainConfig(epochs=0)


class TestFit:
    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            fit(Dataset(criteria_names=("a",)), FAST)

    def test_constant_data_converges_to_the_mean(self):
        ds = constant_dataset()
        model = fit(ds, FAST)
        for rec in ds.records:
            pred = predict_many(model, rec.user_id, [rec.item_id])[0]
            assert np.all(np.abs(pred - 3.0) <= 0.05)

    def test_single_record_fits_the_observation(self):
        model = fit(SINGLE_RECORD, FAST)
        pred = predict_many(model, "u", ["i"])[0]
        assert np.all(np.abs(pred - np.array([5.0, 4.0, 3.0, 2.0])) <= 0.1)

    def test_seeded_determinism_is_bitwise(self):
        ds = random_dataset(3)
        a = fit(ds, FAST)
        b = fit(ds, FAST)
        for attr in ("global_means", "user_biases", "item_biases",
                     "user_factors", "item_factors"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr
        assert a.loss_history == b.loss_history

    def test_training_reduces_the_loss(self):
        ds = random_dataset(5)
        model = fit(ds, TrainConfig(latent_dim=4, epochs=10, seed=2))
        for history in model.loss_history:
            assert history[-1] < history[0]

    def test_criteria_are_independent(self):
        base = random_dataset(7)
        bumped_records = tuple(
            RatingRecord(r.user_id, r.item_id, r.overall,
                         (r.criteria[0], 6.0 - r.criteria[1], r.criteria[2]))
            for r in base.records
        )
        bumped = Dataset(criteria_names=base.criteria_names, records=bumped_records)
        a = fit(base, FAST)
        b = fit(bumped, FAST)
        pairs = [(r.user_id, r.item_id) for r in base.records[:20]]
        changed = 0
        for user, item in pairs:
            pa = predict_many(a, user, [item])[0]
            pb = predict_many(b, user, [item])[0]
            assert pa[0] == pb[0] and pa[2] == pb[2]
            changed += pa[1] != pb[1]
        assert changed > 0

    def test_rmse_on_uniform_noise_approaches_the_spread(self):
        ds = random_dataset(13, users=30, items=20, density=0.8)
        holdout = ds.records[::5]
        train = Dataset(criteria_names=ds.criteria_names,
                        records=tuple(r for i, r in enumerate(ds.records) if i % 5))
        model = fit(train, TrainConfig(latent_dim=4, epochs=10, seed=4))
        errs = []
        for rec in holdout:
            pred = predict_many(model, rec.user_id, [rec.item_id])[0]
            errs.extend((pred - np.asarray(rec.criteria)) ** 2)
        rmse = float(np.sqrt(np.mean(errs)))
        sigma = np.std([v for r in ds.records for v in r.criteria])
        assert 0.5 * sigma < rmse < 2.0 * sigma


def everything_user_dataset(m=2):
    """Sparse data plus one user who rates every item: the longest chains."""
    base = random_dataset(41, users=8, items=15, m=m, density=0.3)
    rng = np.random.default_rng(43)
    full = tuple(RatingRecord("u_all", f"i{i:02d}", 3.0,
                              tuple(float(v) for v in rng.integers(1, 6, size=m)))
                 for i in range(15))
    return Dataset(criteria_names=base.criteria_names, records=base.records + full)


def single_user_dataset(m=3):
    records = tuple(RatingRecord("u", f"i{i:02d}", 3.0,
                                 tuple(float((i + j) % 5 + 1) for j in range(m)))
                    for i in range(12))
    return Dataset(criteria_names=tuple(f"c{j}" for j in range(m)), records=records)


def single_item_dataset(m=3):
    """Every user rates the one item: one item row chains every update."""
    records = tuple(RatingRecord(f"u{u:02d}", "i", 3.0,
                                 tuple(float((2 * u + j) % 5 + 1) for j in range(m)))
                    for u in range(12))
    return Dataset(criteria_names=tuple(f"c{j}" for j in range(m)), records=records)


def assert_matches_sequential_sgd(ds, cfg):
    model = fit(ds, cfg)
    means, ub, ib, uf, itf, history = naive_fit(
        ds.records, ds.n_criteria, cfg.latent_dim, cfg.learning_rate,
        cfg.reg, cfg.epochs, cfg.seed)
    assert np.array_equal(model.global_means, means)
    assert np.array_equal(model.user_biases, ub)
    assert np.array_equal(model.item_biases, ib)
    assert np.array_equal(model.user_factors, uf)
    assert np.array_equal(model.item_factors, itf)
    assert model.loss_history == history


class TestFitMatchesSequentialSgd:
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("latent_dim", [1, 5, 16])
    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_data(self, seed, epochs, latent_dim, m):
        cfg = TrainConfig(latent_dim=latent_dim, epochs=epochs, seed=seed)
        assert_matches_sequential_sgd(random_dataset(seed + 50, m=m), cfg)

    # With one criterion, a single user's (or item's) records are the whole
    # sequence: one row chains every update, and each record is the only one
    # on its other row.
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("shape", [everything_user_dataset, single_user_dataset,
                                       single_item_dataset, single_record_dataset],
                             ids=["user_rates_every_item", "single_user",
                                  "every_user_rates_one_item", "single_record"])
    def test_edge_shapes(self, shape, m):
        assert_matches_sequential_sgd(shape(m), TrainConfig(latent_dim=5, epochs=3, seed=7))


@st.composite
def update_sequences(draw):
    """(2, N) int32 user and item rows of updates over disjoint blocks of one
    table, and a sequence that visits every update once. Blocks of one user
    or one item chain all their updates on that row, and a drawn repeat
    puts the same pair back to back."""
    pairs, row0 = [], 0
    for _ in range(draw(st.integers(1, 4))):
        n_u, n_i = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        for u, i, repeats in draw(st.lists(st.tuples(
                st.integers(0, n_u - 1), st.integers(0, n_i - 1), st.integers(1, 3)),
                min_size=1, max_size=20)):
            pairs += [(row0 + u, row0 + n_u + i)] * repeats
        row0 += n_u + n_i
    sequence = draw(st.permutations(range(len(pairs))))
    return np.array(pairs, dtype=np.int32).T.copy(), np.array(sequence, dtype=np.intp)


class TestSchedule:
    @settings(max_examples=300, deadline=None)
    @given(update_sequences())
    def test_levels_are_the_naive_loops(self, drawn):
        e_rows, sequence = drawn
        n = len(sequence)
        expected = dict(zip(sequence.tolist(), naive_levels(*e_rows[:, sequence].tolist())))
        # scratch space as the caller leaves it: holding anything
        links = np.full((2, n), n - 1, dtype=np.int32)
        need = np.full(n, 1, dtype=np.int8)
        key = np.full(n, -1, dtype=np.int64)
        row_ends = [np.cumsum(np.unique(rows, return_counts=True)[1]) - 1 for rows in e_rows]
        shuffled = sequence.copy()
        ends = predictor._schedule(e_rows, row_ends, shuffled, links, need, key)
        assert sorted(shuffled.tolist()) == list(range(n))  # every update, once
        assert len(ends) == max(expected.values()) + 1 and ends[-1] == n
        for level, (start, end) in enumerate(zip([0, *ends], ends)):
            on_level = shuffled[start:end]
            assert len(on_level) > 0
            assert [expected[e] for e in on_level.tolist()] == [level] * len(on_level)
            rows = e_rows[:, on_level].ravel()
            assert len(np.unique(rows)) == len(rows)  # no row twice on a level


def assert_same_model(a, b):
    assert (a.criteria_names, a.user_ids, a.item_ids, a.latent_dim) == \
        (b.criteria_names, b.user_ids, b.item_ids, b.latent_dim)
    for attr in ("global_means", "user_biases", "item_biases",
                 "user_factors", "item_factors"):
        x, y = getattr(a, attr), getattr(b, attr)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), attr
    assert a.loss_history == b.loss_history


def training_parts(folds, m, seed=3):
    """Training parts of a seeded split; ``u_once`` has one record, so one
    fold's training part lacks that user."""
    ds = random_dataset(70 + m, users=10, items=8, m=m)
    ds = replace(ds, records=ds.records + (RatingRecord("u_once", "i00", 3.0, (2.0,) * m),))
    if folds == 1:
        return [ds]
    trains = [train for train, _ in kfold_split(ds, folds, seed)]
    assert sum("u_once" not in train.users() for train in trains) == 1
    return trains


class TestFitFolds:
    @pytest.mark.parametrize("latent_dim", [1, 16])
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("folds", [1, 2, 5])
    def test_each_fold_equals_its_own_fit_and_sequential_sgd(self, folds, m, latent_dim):
        cfg = TrainConfig(latent_dim=latent_dim, epochs=2, seed=4)
        trains = training_parts(folds, m)
        models = fit_folds(trains, cfg)
        assert len(models) == folds
        for f, (train, model) in enumerate(zip(trains, models)):
            own = replace(cfg, seed=cfg.seed + f)
            assert_same_model(model, fit(train, own))
            assert_matches_sequential_sgd(train, own)

    def test_a_stack_past_2_to_the_16_entries_keeps_each_folds_bits(self):
        # each fold alone has fewer entries than the stack, whose entry ids
        # need more than 16 bits
        trains = [random_dataset(80 + f, users=150, items=120, m=4) for f in range(2)]
        entries = [4 * len(train.records) for train in trains]
        assert max(entries) < 2**16 < sum(entries)
        cfg = TrainConfig(latent_dim=2, epochs=1, seed=1)
        for f, (train, model) in enumerate(zip(trains, fit_folds(trains, cfg))):
            assert_same_model(model, fit(train, replace(cfg, seed=cfg.seed + f)))

    def test_a_stack_past_memory_is_a_training_error_naming_its_table(self):
        trains = training_parts(5, 3)
        rows = sum(3 * (len(t.users()) + len(t.items())) for t in trains)
        d = predictor.MAX_FLOATS // rows  # one stack of every fold, ~2^63 bytes
        with pytest.raises(TrainingError) as caught:
            fit_folds(trains, TrainConfig(latent_dim=d))
        assert str(caught.value) == (f"train.latent_dim {d} needs a ({rows}, {d}) factor "
                                     "table, more than fits in memory")
        assert isinstance(caught.value.__cause__, MemoryError)

    @pytest.mark.parametrize("users", [[12, 30, 6], [6, 12, 30]],
                             ids=["later-fold-diverges-first", "first-fold-converges"])
    def test_divergence_names_the_same_fold_and_epoch_as_a_loop_of_fits(self, users):
        trains = [random_dataset(60 + f, users=n, items=10, m=2) for f, n in enumerate(users)]
        cfg = TrainConfig(latent_dim=3, epochs=12, learning_rate=0.3, seed=0)
        epochs, first = [], None
        for f, train in enumerate(trains):
            try:
                fit(train, replace(cfg, seed=f))
                epochs.append(None)
            except TrainingError as exc:
                epochs.append(int(re.search(r"epoch (\d+);", str(exc))[1]))
                first = first or str(exc)
        assert first is not None
        with pytest.raises(TrainingError) as caught:
            fit_folds(trains, cfg)
        assert str(caught.value) == first
        # the case this guards: a later fold goes non-finite in an earlier epoch
        reported = next(e for e in epochs if e is not None)
        assert min(e for e in epochs if e is not None) < reported

    def test_empty_and_oversized_folds_are_refused_before_any_training(self, monkeypatch):
        trained = []
        monkeypatch.setattr(predictor, "_fit_stack",
                            lambda part, *_: trained.append(part) or [None] * len(part))
        good = random_dataset(3)
        with pytest.raises(TrainingError, match="cannot train on an empty dataset"):
            fit_folds([good, good, Dataset(criteria_names=good.criteria_names)], FAST)
        wide = random_dataset(5, users=30)
        rows = 3 * (len(good.users()) + len(good.items()))
        wide_rows = 3 * (len(wide.users()) + len(wide.items()))
        d = predictor.MAX_FLOATS // rows
        assert wide_rows * d > predictor.MAX_FLOATS
        # the limit is checked once, on the stacked table, which is past it
        # even where each fold's table fits alone
        for folds, stacked in (([good, wide], rows + wide_rows), ([good, good], 2 * rows)):
            with pytest.raises(TrainingError) as caught:
                fit_folds(folds, TrainConfig(latent_dim=d))
            assert str(caught.value) == (
                f"train.latent_dim {d} needs a ({stacked}, {d}) factor table, "
                f"past numpy's limit of {predictor.MAX_FLOATS} values")
        assert trained == []


class TestPredict:
    def test_unseen_user_and_item_fall_back_to_global_means(self):
        ds = random_dataset(17)
        model = fit(ds, FAST)
        expected = np.clip(model.global_means, 1.0, 5.0)
        assert predict_many(model, "ghost", ["nowhere"])[0].tolist() == expected.tolist()

    def test_unseen_item_uses_the_user_bias(self):
        ds = random_dataset(19)
        model = fit(ds, FAST)
        user = ds.records[0].user_id
        u = model.user_ids.index(user)
        expected = np.clip(model.global_means + model.user_biases[:, u], 1.0, 5.0)
        assert predict_many(model, user, ["nowhere"])[0].tolist() == expected.tolist()

    def test_unseen_user_uses_the_item_bias(self):
        ds = random_dataset(23)
        model = fit(ds, FAST)
        item = ds.records[0].item_id
        i = model.item_ids.index(item)
        expected = np.clip(model.global_means + model.item_biases[:, i], 1.0, 5.0)
        assert predict_many(model, "ghost", [item])[0].tolist() == expected.tolist()

    def test_predictions_respect_the_scale(self):
        ds = random_dataset(29)
        model = fit(ds, FAST)
        for rec in ds.records[:30]:
            pred = predict_many(model, rec.user_id, [rec.item_id])[0]
            assert np.all(pred >= 1.0) and np.all(pred <= 5.0)

    def test_predict_many_matches_predict(self):
        ds = random_dataset(31)
        model = fit(ds, FAST)
        user = ds.records[0].user_id
        items = [r.item_id for r in ds.records[:8]] + ["nowhere"]
        batch = predict_many(model, user, items)
        for row, item in zip(batch, items):
            assert row.tolist() == predict_many(model, user, [item])[0].tolist()

    @pytest.mark.parametrize("seed", [3, 41])
    def test_batch_is_bitwise_the_per_pair_fallback_rules(self, seed):
        ds = random_dataset(seed, users=30, items=20, density=0.08)
        train = Dataset(criteria_names=ds.criteria_names,
                        records=ds.records[:len(ds.records) * 2 // 3])
        model = fit(train, FAST)
        users = sorted({r.user_id for r in ds.records}) + ["ghost"]
        items = sorted({r.item_id for r in ds.records}) + ["nowhere"]
        assert set(users) - set(model.user_ids) and set(items) - set(model.item_ids)
        for user in users:
            expected = [reference_prediction(model, user, item) for item in items]
            assert predict_many(model, user, items).tobytes() == \
                np.array(expected).tobytes()
            assert predict_many(model, user, []).shape == (0, 3)

    @pytest.mark.parametrize("n_users, n_items", [(0, 2), (2, 0), (0, 0)])
    def test_model_with_no_users_or_no_items_predicts_the_fallbacks(self, n_users,
                                                                    n_items):
        rng = np.random.default_rng(5)
        model = PredictorModel(
            criteria_names=("a", "b"),
            user_ids=tuple(f"u{n}" for n in range(n_users)),
            item_ids=tuple(f"i{n}" for n in range(n_items)),
            latent_dim=3, global_means=np.array([2.0, 3.5]),
            user_biases=rng.normal(size=(2, n_users)),
            item_biases=rng.normal(size=(2, n_items)),
            user_factors=rng.normal(size=(2, n_users, 3)),
            item_factors=rng.normal(size=(2, n_items, 3)))
        for user in [*model.user_ids, "ghost"]:
            items = [*model.item_ids, "nowhere"]
            expected = [reference_prediction(model, user, item) for item in items]
            assert predict_many(model, user, items).tobytes() == \
                np.array(expected).tobytes()


def reference_prediction(model, user, item):
    """One pair by the cold-start rules: the global means, plus the user's
    bias if the user was seen, plus the item's bias if the item was seen,
    plus the factor product if both were."""
    value = model.global_means.copy()
    u = model.user_ids.index(user) if user in model.user_ids else None
    i = model.item_ids.index(item) if item in model.item_ids else None
    if u is not None:
        value += model.user_biases[:, u]
    if i is not None:
        value += model.item_biases[:, i]
        if u is not None:
            value += np.einsum("mkd,md->mk", model.item_factors[:, [i], :],
                               model.user_factors[:, u, :])[:, 0]
    return np.clip(value, 1.0, 5.0)


class TestModelRoundTrip:
    def test_save_load_preserves_predictions_exactly(self, tmp_path):
        ds = random_dataset(37)
        model = fit(ds, FAST)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.criteria_names == model.criteria_names
        assert loaded.user_ids == model.user_ids
        assert np.array_equal(loaded.user_factors, model.user_factors)
        assert loaded.loss_history == model.loss_history
        for rec in ds.records[:10]:
            assert predict_many(loaded, rec.user_id, [rec.item_id])[0].tolist() == \
                predict_many(model, rec.user_id, [rec.item_id])[0].tolist()

    def test_load_rejects_foreign_files(self, tmp_path):
        import mcrank.io
        from mcrank import ParseError
        assert save_model is mcrank.io.save_model and load_model is mcrank.io.load_model
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ParseError):
            load_model(path)
        path.write_text("not json at all")
        with pytest.raises(ParseError):
            load_model(path)
        # each malformed file is a ParseError naming it
        path.write_bytes(b'{"format": "mcrank-model", "\xff": 1}')
        with pytest.raises(ParseError, match="junk.json: not UTF-8"):
            load_model(path)
        path.write_text('{"format": "mcrank-model", "version": 1}')
        with pytest.raises(ParseError, match="junk.json: model scale None"):
            load_model(path)
        path.write_text('{"format": "mcrank-model", "version": 1, "scale": [1.0, 5.0]}')
        with pytest.raises(ParseError, match="junk.json: not a model file: .*'criteria'"):
            load_model(path)
        save_model(fit(constant_dataset(), FAST), path)
        path.write_text(path.read_text().replace('"scale": [1.0, 5.0]',
                                                 '"scale": [0.0, 10.0]'))
        with pytest.raises(ParseError, match=r"junk.json: model scale \[0.0, 10.0\]"):
            load_model(path)
        with pytest.raises(ParseError, match="absent.json: cannot read"):
            load_model(tmp_path / "absent.json")
        # each id list must hold strings, and each array the shape they give
        save_model(fit(constant_dataset(users=5), FAST), path)
        saved = json.loads(path.read_text())
        for key, value, message in [
            ("user_factors", [rows[:2] for rows in saved["user_factors"]],
             r"model user_factors has shape \(2, 2, 4\), expected \(2, 5, 4\)"),
            ("global_means", saved["global_means"][:1],
             r"model global_means has shape \(1,\), expected \(2,\)"),
            ("criteria", "abc", "model criteria must be a list of strings"),
            ("users", [0, 1, 2, 3, 4], "model users must be a list of strings"),
            ("users", saved["users"][:1] + saved["users"][:4],
             re.escape(f"model users repeats the id {saved['users'][0]!r}"))]:
            path.write_text(json.dumps({**saved, key: value}))
            with pytest.raises(ParseError, match="junk.json: " + message):
                load_model(path)
