import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import random_candidate_set

from mcrank import (
    Dataset,
    DatasetValidationError,
    ParseError,
    RatingRecord,
    synth_generate,
)
from mcrank.cli import cli_main
from mcrank.io import (
    emit_report,
    experiment_config_from_dict,
    load_candidate_sets,
    load_dataset,
    load_report,
    save_dataset,
)
from mcrank.pipeline import run_experiment

GOLDEN_CSV = """user_id,item_id,overall,food,service,ambience,value
U1,T3,4,4,3,4,4
U2,T2,3,3,3,3,3
"""

VECTORS_CSV = """user_id,item_id,food,service,ambience
u1,T1,5,5,5
u1,T2,4,4,4
u1,T3,3,3,3
u1,T4,4,3,3
u1,T5,4,5,3
"""


class TestLoadDataset:
    def test_golden_rows(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(GOLDEN_CSV)
        ds = load_dataset(path)
        assert ds.criteria_names == ("food", "service", "ambience", "value")
        assert len(ds.records) == 2
        assert ds.records[0] == RatingRecord("U1", "T3", 4.0, (4.0, 3.0, 4.0, 4.0))

    def test_missing_column_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,item_id,overall,food,service\nU1,T1,4,4\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="no header"):
            load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(ParseError, match="header"):
            load_dataset(path)

    def test_non_numeric_rating(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("user_id,item_id,overall,food\nU1,T1,four,4\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_validation_errors_list_everything(self, tmp_path):
        path = tmp_path / "invalid.csv"
        path.write_text(
            "user_id,item_id,overall,food\n"
            "U1,T1,9,4\n"
            "U1,T1,3,3\n")
        with pytest.raises(DatasetValidationError) as err:
            load_dataset(path)
        kinds = {v.kind for v in err.value.violations}
        assert kinds == {"out_of_range", "duplicate_pair"}

    def test_round_trip_identity(self, tmp_path):
        ds = synth_generate(10, 8, 3, 0.5, seed=3)
        # give one record a continuous predicted-style value via rebuild
        records = list(ds.records)
        records[0] = RatingRecord(records[0].user_id, records[0].item_id,
                                  3.25, (1.5, 4.75, 2.0))
        ds = Dataset(criteria_names=ds.criteria_names, records=tuple(records))
        path = tmp_path / "out.csv"
        save_dataset(ds, path)
        assert load_dataset(path) == ds


class TestLoadCandidateSets:
    def test_vectors_without_overall(self, tmp_path):
        path = tmp_path / "vectors.csv"
        path.write_text(VECTORS_CSV)
        sets = load_candidate_sets(path)
        assert set(sets) == {"u1"}
        assert sets["u1"].n == 5 and sets["u1"].n_criteria == 3

    def test_dataset_shaped_file_accepted(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(GOLDEN_CSV)
        sets = load_candidate_sets(path)
        assert sets["U1"].candidates[0][1].tolist() == [4.0, 3.0, 4.0, 4.0]

    def test_duplicate_item_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("user_id,item_id,food\nu1,T1,4\nu1,T1,5\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_candidate_sets(path)

    def test_duplicate_error_names_the_first_duplicate_line(self, tmp_path):
        path = tmp_path / "dups.csv"
        path.write_text("user_id,item_id,food\n"
                        "u1,T1,4\nu2,T1,3\nu1,T2,5\nu2,T1,2\nu1,T1,1\n")
        with pytest.raises(ParseError) as err:
            load_candidate_sets(path)
        assert str(err.value) == f"{path}: line 5: duplicate item 'T1' for user 'u2'"

    def test_finite_cells_whose_sum_overflows_are_accepted(self, tmp_path):
        path = tmp_path / "large.csv"
        path.write_text("user_id,item_id,a,b\nu1,T1,1e308,1e308\n")
        assert load_candidate_sets(path)["u1"].matrix.tolist() == [[1e308, 1e308]]


class TestExperimentConfig:
    def test_from_dict_defaults(self):
        cfg = experiment_config_from_dict({})
        assert [m.label for m in cfg.methods] == ["pr"]
        assert cfg.folds == 5
        assert cfg.n_values == (5, 10, 15, 20, 25, 30, 35, 40)
        assert cfg.relevance_threshold == 3.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParseError, match="unknown"):
            experiment_config_from_dict({"foldz": 3})
        with pytest.raises(ParseError, match="unknown"):
            experiment_config_from_dict({"train": {"lr": 1}})


def tiny_report(seed=21):
    ds = synth_generate(14, 8, 2, 0.7, seed=seed)
    cfg = experiment_config_from_dict({
        "methods": ["pr", "kd:0.5"],
        "folds": 5,
        "seed": 4,
        "n_values": [5, 10, 15, 20, 25, 30, 35, 40],
        "train": {"latent_dim": 2, "epochs": 2},
    })
    return run_experiment(ds, cfg)


class TestReportFiles:
    def test_cell_count_and_round_trip(self, tmp_path):
        report = tiny_report()
        assert len(report.cells) == 2 * 8 * 6  # methods x N x (folds + avg)
        path = tmp_path / "report.json"
        emit_report(report, path)
        assert load_report(path) == report
        assert (tmp_path / "report.csv").exists()
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header == "method,k,sub,n,fold,f1,ndcg,improvement_f1,improvement_ndcg"

    def test_pr_improvements_serialized_as_zero(self, tmp_path):
        report = tiny_report(22)
        path = tmp_path / "report.json"
        emit_report(report, path)
        doc = json.loads(path.read_text())
        pr_rows = [c for c in doc["cells"] if c["method"] == "pr"]
        assert pr_rows and all(c["improvement_f1"] == 0 and c["improvement_ndcg"] == 0
                               for c in pr_rows)

    def test_numbers_keep_full_precision(self, tmp_path):
        report = tiny_report(23)
        path = tmp_path / "report.json"
        emit_report(report, path)
        reloaded = load_report(path)
        for a, b in zip(report.cells, reloaded.cells):
            assert a.f1 == b.f1 and a.ndcg == b.ndcg  # bitwise equal floats


def run_cli(*argv):
    return cli_main(list(argv))


class TestCliRank:
    @pytest.fixture
    def vectors_file(self, tmp_path):
        path = tmp_path / "vectors.csv"
        path.write_text(VECTORS_CSV)
        return str(path)

    def test_kd_ranking_puts_the_dominating_item_first(self, vectors_file, capsys):
        assert run_cli("rank", "--input", vectors_file, "--method", "kd",
                       "--k", "0.5", "--predicted") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t")[:2] == ["u1", "T1"]
        assert len(lines) == 5

    def test_kd_zero_output_matches_pr(self, vectors_file, capsys):
        run_cli("rank", "--input", vectors_file, "--method", "kd", "--k", "0",
                "--predicted")
        kd_out = capsys.readouterr().out
        run_cli("rank", "--input", vectors_file, "--method", "pr", "--predicted")
        pr_out = capsys.readouterr().out
        assert kd_out == pr_out

    def test_hybrid_and_top_n(self, vectors_file, capsys):
        assert run_cli("rank", "--input", vectors_file, "--method", "kd",
                       "--k", "0.5", "--sub", "pg", "--top-n", "2",
                       "--predicted") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2

    def test_file_order_does_not_change_the_list(self, tmp_path, capsys):
        # the loader keeps file order; ties still break by ascending id
        path = tmp_path / "vectors.csv"
        path.write_text("user_id,item_id,a,b\nu1,T3,3,3\nu1,T10,3,3\n"
                        "u1,T1,5,5\nu1,T2,3,3\n")
        assert cli_main(["rank", "--input", str(path), "--predicted",
                         "--method", "pr"]) == 0
        listed = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()]
        assert listed == ["T1", "T10", "T2", "T3"]

    def test_rank_from_rating_file(self, tmp_path, capsys):
        path = tmp_path / "ratings.csv"
        path.write_text(GOLDEN_CSV)
        assert run_cli("rank", "--input", str(path), "--method", "ar",
                       "--user", "U1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("U1\tT3\t")

    def test_missing_k_is_a_usage_error(self, vectors_file):
        assert run_cli("rank", "--input", vectors_file, "--method", "kd",
                       "--predicted") == 1

    def test_k_with_non_kd_is_a_usage_error(self, vectors_file):
        assert run_cli("rank", "--input", vectors_file, "--method", "pr",
                       "--k", "0.5", "--predicted") == 1

    def test_unknown_flag_is_a_usage_error(self, vectors_file):
        assert run_cli("rank", "--input", vectors_file, "--method", "pr",
                       "--frobnicate") == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_non_finite_value_names_its_cell(self, tmp_path, capsys, cell):
        path = tmp_path / "vectors.csv"
        path.write_text(VECTORS_CSV.replace("u1,T4,4,3,3", f"u1,T4,4,{cell},3"))
        assert run_cli("rank", "--input", str(path), "--predicted",
                       "--method", "pr") == 2
        err = capsys.readouterr().err
        assert f"error: {path}: line 5: service value '{cell}' is not finite" in err
        assert "Traceback" not in err

    def test_unknown_user_is_a_data_error(self, vectors_file):
        assert run_cli("rank", "--input", vectors_file, "--method", "pr",
                       "--user", "nobody", "--predicted") == 2

    def test_missing_file_is_a_data_error(self):
        assert run_cli("rank", "--input", "/does/not/exist.csv",
                       "--method", "pr") == 2

    def test_overflowing_gains_are_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("user_id,item_id,a,b\n"
                        "u9,T1,1e308,-1e308\nu9,T2,-1e308,1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("rank", "--input", str(path), "--predicted",
                           "--method", "pg") == 2
        captured = capsys.readouterr()
        assert "'u9'" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_invalid_ratings_are_a_data_error(self, tmp_path):
        path = tmp_path / "invalid.csv"
        path.write_text("user_id,item_id,overall,food\nU1,T1,9,4\n")
        assert run_cli("rank", "--input", str(path), "--method", "pr") == 2


@pytest.mark.parametrize("role", ["dataset", "predicted", "config"])
def test_non_utf8_input_is_a_data_error(tmp_path, capsys, role):
    data = tmp_path / "data.csv"
    save_dataset(synth_generate(8, 6, 2, 0.6, seed=1), data)
    cfg = tmp_path / "config.json"
    cfg.write_text('{"methods": ["pr"], "folds": 2}')
    bad = {"dataset": data, "predicted": data, "config": cfg}[role]
    bad.write_bytes(b"\xff" + bad.read_bytes())
    if role == "predicted":
        argv = ["rank", "--input", str(data), "--predicted", "--method", "pr"]
    else:
        argv = ["evaluate", "--input", str(data), "--config", str(cfg),
                "--out", str(tmp_path / "r.json")]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: not UTF-8" in err and "Traceback" not in err


class TestCliPipelines:
    @pytest.fixture
    def data_file(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(synth_generate(16, 10, 3, 0.6, seed=6), path)
        return str(path)

    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "methods": ["pr", "kd:0.5"],
            "folds": 2,
            "seed": 3,
            "n_values": [3, 5],
            "train": {"latent_dim": 2, "epochs": 2},
        }))
        return str(path)

    def test_synth_is_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("synth", "--users", "12", "--items", "8",
                           "--criteria", "3", "--density", "0.5",
                           "--seed", "7", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(load_dataset(a).records) > 0

    def test_evaluate_end_to_end(self, data_file, config_file, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("evaluate", "--input", data_file, "--config",
                       config_file, "--out", str(out)) == 0
        report = load_report(out)
        assert {c.method for c in report.cells} == {"pr", "kd:0.5"}
        first = out.read_bytes()
        assert run_cli("evaluate", "--input", data_file, "--config",
                       config_file, "--out", str(out)) == 0
        assert out.read_bytes() == first

    def test_sweep_k_end_to_end(self, data_file, config_file, tmp_path):
        out = tmp_path / "sweep.json"
        assert run_cli("sweep-k", "--input", data_file, "--k", "0,0.5",
                       "--config", config_file, "--out", str(out)) == 0
        report = load_report(out)
        assert {c.method for c in report.cells} == {"pr", "kd:0", "kd:0.5"}

    def test_sweep_k_bad_list_is_usage_error(self, data_file, config_file, tmp_path):
        assert run_cli("sweep-k", "--input", data_file, "--k", "0,zebra",
                       "--config", config_file, "--out",
                       str(tmp_path / "x.json")) == 1

    @pytest.mark.parametrize("command", ["evaluate", "sweep-k"])
    @pytest.mark.parametrize("out, flags", [
        ("data.json", ("the CSV next to --out", "--input")),
        ("data.csv", ("--out", "--input")),
        ("config.json", ("--out", "--config")),
        ("sub/../r.csv", ("the CSV next to --out", "--out")),
        ("link.json", ("the CSV next to --out", "--input")),
    ])
    def test_report_never_overwrites_its_inputs(self, data_file, config_file, tmp_path,
                                                capsys, command, out, flags):
        os.link(data_file, tmp_path / "link.csv")  # a hard link is the same file
        inputs = {path: Path(path).read_bytes() for path in (data_file, config_file)}
        argv = [command, "--input", data_file, "--config", config_file,
                "--out", str(tmp_path / out)]
        assert run_cli(*argv, *(["--k", "0,0.5"] if command == "sweep-k" else [])) == 1
        err = capsys.readouterr().err
        assert "usage error:" in err and all(flag in err for flag in flags)
        assert {path: Path(path).read_bytes() for path in inputs} == inputs
        assert not (tmp_path / "r.csv").exists()

    def test_bad_config_is_a_data_error(self, data_file, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"frobnicate": 1}')
        assert run_cli("evaluate", "--input", data_file, "--config", str(cfg),
                       "--out", str(tmp_path / "r.json")) == 2

    @pytest.mark.parametrize("doc, key", [
        ({"folds": "x"}, "'folds'"),
        ({"n_values": ["a"]}, "'n_values'"),
        ({"train": {"latent_dim": "a"}}, "'train.latent_dim'"),
        ({"relevance_threshold": None}, "'relevance_threshold'"),
        ({"folds": 2.7}, "'folds'"),
        ({"methods": "pr"}, "'methods'"),
    ])
    def test_mistyped_config_value_is_a_data_error(self, data_file, tmp_path,
                                                   capsys, doc, key):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("evaluate", "--input", data_file, "--config", str(cfg),
                       "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert key in err

    @pytest.mark.parametrize("text, key", [
        ('{"n_values": []}', "n_values"),
        ('{"relevance_threshold": 1e999}', "relevance_threshold"),
    ], ids=["empty-n_values", "infinite-threshold"])
    def test_out_of_domain_config_value_is_a_data_error(self, data_file, tmp_path,
                                                        capsys, text, key):
        cfg = tmp_path / "domain.json"
        cfg.write_text(text)
        out = tmp_path / "r.json"
        assert run_cli("evaluate", "--input", data_file, "--config", str(cfg),
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{cfg}: {key}" in err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [{"folds": "x"}, {"folds": 1}])
    def test_config_error_names_the_file(self, data_file, tmp_path, capsys, doc):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("evaluate", "--input", data_file, "--config", str(cfg),
                       "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}: " in err
        assert "Traceback" not in err

    def test_negative_synth_seed_is_a_data_error(self, tmp_path, capsys):
        assert run_cli("synth", "--users", "3", "--items", "3", "--criteria", "2",
                       "--density", "0.5", "--seed", "-1",
                       "--out", str(tmp_path / "s.csv")) == 2
        err = capsys.readouterr().err
        assert "error: seed must be non-negative, got -1" in err
        assert "Traceback" not in err

    def test_diverging_training_is_a_data_error(self, data_file, tmp_path, capsys):
        cfg = tmp_path / "diverge.json"
        cfg.write_text('{"methods": ["pr"], "folds": 2, '
                       '"train": {"learning_rate": 1e300}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails here
            assert run_cli("evaluate", "--input", data_file, "--config", str(cfg),
                           "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert "error: training diverged" in err and "learning_rate" in err
        assert "Traceback" not in err

    def test_predict_feeds_rank(self, data_file, tmp_path, capsys):
        out = tmp_path / "predicted.csv"
        assert run_cli("predict", "--input", data_file, "--out", str(out),
                       "--seed", "5") == 0
        sets = load_candidate_sets(out)
        ds = load_dataset(data_file)
        assert set(sets) == set(ds.users())
        assert all(c.n == len(ds.items()) for c in sets.values())
        capsys.readouterr()
        assert run_cli("rank", "--input", str(out), "--method", "kd",
                       "--k", "0.5", "--sub", "ar", "--top-n", "3",
                       "--predicted") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 * len(sets)

    def test_predict_observed_pairs_only(self, data_file, tmp_path):
        out = tmp_path / "observed.csv"
        assert run_cli("predict", "--input", data_file, "--out", str(out),
                       "--seed", "5", "--pairs", "observed") == 0
        sets = load_candidate_sets(out)
        ds = load_dataset(data_file)
        assert sum(c.n for c in sets.values()) == len(ds.records)

    def test_cli_stdout_is_deterministic(self, data_file, capsys):
        run_cli("rank", "--input", data_file, "--method", "gd")
        first = capsys.readouterr().out
        run_cli("rank", "--input", data_file, "--method", "gd")
        assert capsys.readouterr().out == first

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli() == 1

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0


class TestBenchTracerHooks:
    def test_every_traced_name_resolves(self, monkeypatch):
        # the benchmark's traced run swaps layer functions by name; a
        # renamed or removed one would fail it with a KeyError
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        import traced
        from mcrank import ranking

        original = ranking.method_scores
        with traced.instrument(traced.Tracer("t")):
            assert ranking.method_scores is not original
        assert ranking.method_scores is original


class TestBenchOracleGate:
    def test_method_scores_agree_with_the_oracle(self, monkeypatch):
        # the benchmark's --trace 1 run compares method_scores(...).tolist()
        # with tests/naive.py; a changed score contract would fail only there
        root = Path(__file__).parents[1]
        monkeypatch.syspath_prepend(str(root / "bench"))
        import checks
        import workloads

        rng = np.random.default_rng(20)
        sets = [random_candidate_set(rng, integer=j % 2 == 0) for j in range(20)]
        labels = workloads.WORKLOADS["unrated"].config["methods"]
        assert checks.oracle_failures(checks.load_naive(root), sets, labels) == []
