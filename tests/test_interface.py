import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import random_candidate_set

from mcrank import (
    Dataset,
    DatasetValidationError,
    MethodSpec,
    ParseError,
    RatingRecord,
    rank_candidates,
    synth_generate,
    top_n,
    validate_dataset,
)
from mcrank import io, pipeline
from mcrank.cli import cli_main
from mcrank.core import MAJOR_KINDS, MAX_FLOATS, RANKING_KINDS, SUB_KINDS
from mcrank.io import (
    emit_report,
    experiment_config_from_dict,
    load_candidate_sets,
    load_dataset,
    load_experiment_config,
    load_model,
    load_report,
    save_dataset,
    save_predictions,
)
from mcrank.pipeline import (MetricsReport, ReportCell, config_to_dict, kfold_split,
                             run_experiment)

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
        assert sets["U1"].matrix.tolist() == [[4.0, 3.0, 4.0, 4.0]]

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

    # with chunks of None (the shipped size) each file fits in one chunk, so
    # every fault meets the others before any number of the file is parsed;
    # with chunks of 2 the bad number fills a chunk, whose parse raises
    # before the next row is read
    @pytest.mark.parametrize("rows, message, chunk_rows", [
        ("u1,t1,3,3\nu1,t2,x,3\nu1,t3,3,3\nu1,t4,3\n", "line 3: a value 'x' is not a number",
         None),
        ("u1,t1,3,3\nu1,t1,3, x \n", "line 3: b value 'x' is not a number", None),
        ("u1,t1,3,nan\nu1,t2,x,3\n", "line 2: b value 'nan' is not finite", None),
        ('u1,t1,3,3\nu1,t2,3,-inf\nu1,"t3,' + "9" * 140_000 + "\n",
         "line 3: b value '-inf' is not finite", None),
        ("u1,t1,3,3\nu1,t2,x,3\nu1,t3,3\n", "line 3: a value 'x' is not a number", 2),
    ], ids=["number-before-width", "own-number-before-duplicate", "non-finite-before-number",
            "row-before-csv-error", "full-chunk-number-before-width"])
    def test_first_faulty_row_wins(self, tmp_path, monkeypatch, rows, message, chunk_rows):
        if chunk_rows is not None:
            monkeypatch.setattr(io, "_CHUNK_ROWS", chunk_rows)
        path = tmp_path / "vectors.csv"
        path.write_text("user_id,item_id,a,b\n" + rows)
        with pytest.raises(ParseError) as err:
            load_candidate_sets(path)
        assert str(err.value) == f"{path}: {message}"


class TestExperimentConfig:
    def test_from_dict_defaults(self):
        cfg = experiment_config_from_dict({})
        assert [m.label for m in cfg.methods] == ["pr"]
        assert cfg.folds == 5
        assert cfg.n_values == (5, 10, 15, 20, 25, 30, 35, 40)
        assert cfg.relevance_threshold == 3.0

    @pytest.mark.parametrize("doc", [{}, {
        "methods": ["kd:0.5+pg", "pr", "ar"], "folds": 3, "seed": 7,
        "n_values": [2, 4], "relevance_threshold": 3.5, "protocol": "all_unrated",
        "train": {"latent_dim": 3, "learning_rate": 0.01, "reg": 0.1,
                  "epochs": 4, "seed": 2}}], ids=["defaults", "every-key"])
    def test_config_to_dict_round_trips(self, doc):
        cfg = experiment_config_from_dict(doc, dataset_path="d.csv")
        out = config_to_dict(cfg)
        assert out.pop("dataset_path") == "d.csv"
        assert experiment_config_from_dict(out, dataset_path="d.csv") == cfg
        if doc:
            assert out == doc

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

    def test_undefined_improvement_is_an_empty_csv_field(self, tmp_path):
        # a method that scores where the baseline scores 0 has no ratio
        assert pipeline._ratio(0.25, 0.0) is None
        cell = ReportCell(method="kd:0.5", k=0.5, sub=None, n=5, fold="avg", f1=0.25,
                          ndcg=0.5, improvement_f1=None, improvement_ndcg=1.0)
        emit_report(MetricsReport(metadata={}, cells=(cell,)), tmp_path / "r.json")
        rows = (tmp_path / "r.csv").read_text().splitlines()
        assert rows[1] == "kd:0.5,0.5,,5,avg,0.25,0.5,,1.0"

    def test_numbers_keep_full_precision(self, tmp_path):
        report = tiny_report(23)
        path = tmp_path / "report.json"
        emit_report(report, path)
        reloaded = load_report(path)
        for a, b in zip(report.cells, reloaded.cells):
            assert a.f1 == b.f1 and a.ndcg == b.ndcg  # bitwise equal floats


class TestWrittenBytes:
    """The bytes of every CSV writer, pinned: ids quoted as ``csv`` quotes
    them, integral ratings bare, other floats in shortest round-trip form
    and an undefined ratio as an empty field."""

    def test_dataset(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(synth_generate(300, 80, 4, 0.2, 7), path)
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            90_666, "30a9fd0336ea8c991d74c8cdfc2ae8fe179d975f1ee9f8deb090acd242cef854")
        save_dataset(Dataset(criteria_names=("food",), records=(
            RatingRecord("u,1", 't"1', 3.25, (4.0,)),)), path)
        assert path.read_bytes() == b'user_id,item_id,overall,food\n"u,1","t""1",3.25,4\n'

    def test_predictions(self, tmp_path):
        path = tmp_path / "vectors.csv"
        save_predictions(path, ["food", "value"], [("u1", "t,1", [1 / 3, 5.0]),
                                                   ('u"2', "t2", np.array([1e-300, 4.25]))])
        assert path.read_bytes() == (b'user_id,item_id,food,value\n'
                                     b'u1,"t,1",0.3333333333333333,5.0\n'
                                     b'"u""2",t2,1e-300,4.25\n')

    def test_report_csv(self, tmp_path):
        cells = (ReportCell(method="pr", k=0.0, sub=None, n=5, fold=0, f1=0.1, ndcg=2 / 3,
                            improvement_f1=0.0, improvement_ndcg=0.0),
                 ReportCell(method="kd:0.5+pg", k=0.5, sub="pg", n=10, fold="avg", f1=0.25,
                            ndcg=0.5, improvement_f1=None, improvement_ndcg=-0.125))
        emit_report(MetricsReport(metadata={}, cells=cells), tmp_path / "r.json")
        assert (tmp_path / "r.csv").read_bytes() == (
            b"method,k,sub,n,fold,f1,ndcg,improvement_f1,improvement_ndcg\n"
            b"pr,0.0,,5,0,0.1,0.6666666666666666,0.0,0.0\n"
            b"kd:0.5+pg,0.5,pg,10,avg,0.25,0.5,,-0.125\n")


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
        # the loader orders each set by item id; ties break by ascending id
        path = tmp_path / "vectors.csv"
        path.write_text("user_id,item_id,a,b\nu1,T3,3,3\nu1,T10,3,3\n"
                        "u1,T1,5,5\nu1,T2,3,3\n")
        assert cli_main(["rank", "--input", str(path), "--predicted",
                         "--method", "pr"]) == 0
        listed = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()]
        assert listed == ["T1", "T10", "T2", "T3"]
        # gd and pg sum gains in candidate order, so continuous scores would
        # differ in their last digits if the set kept the file's row order
        rng = np.random.default_rng(5)
        rows = [f"u{u},i{i:02d},{','.join(map(repr, rng.uniform(1, 5, 3).tolist()))}"
                for u in range(3) for i in range(60)]
        shuffled = tmp_path / "shuffled.csv"
        path.write_text("user_id,item_id,a,b,c\n" + "\n".join(rows) + "\n")
        shuffled.write_text("user_id,item_id,a,b,c\n"
                            + "\n".join(rng.permutation(rows).tolist()) + "\n")
        for method in (["gd"], ["pg"], ["ar"], ["kd", "--k", "0.5", "--sub", "gd"]):
            outputs = []
            for source in (path, shuffled):
                assert cli_main(["rank", "--input", str(source), "--predicted",
                                 "--method", *method]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1], method

    def test_rank_from_rating_file(self, tmp_path, capsys):
        path = tmp_path / "ratings.csv"
        path.write_text(GOLDEN_CSV)
        assert run_cli("rank", "--input", str(path), "--method", "ar",
                       "--user", "U1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("U1\tT3\t")

    def test_non_positive_top_n_is_a_usage_error(self, vectors_file, capsys):
        assert run_cli("rank", "--input", vectors_file, "--method", "pr",
                       "--top-n", "0", "--predicted") == 1
        assert capsys.readouterr().err == "usage error: --top-n must be positive, got 0\n"

    def test_missing_k_is_a_usage_error(self, vectors_file, capsys):
        assert run_cli("rank", "--input", vectors_file, "--method", "kd",
                       "--predicted") == 1
        assert capsys.readouterr().err == "usage error: --method kd requires --k\n"

    def test_k_with_non_kd_is_a_usage_error(self, vectors_file, capsys):
        for method in ("pr", "ar"):
            assert run_cli("rank", "--input", vectors_file, "--method", method,
                           "--k", "0.5", "--predicted") == 1
            assert capsys.readouterr().err == "usage error: --k only applies to --method kd\n"

    def test_sub_with_non_major_method_is_a_usage_error(self, vectors_file, capsys):
        assert run_cli("rank", "--input", vectors_file, "--method", "ar",
                       "--sub", "pg", "--predicted") == 1
        assert capsys.readouterr().err == "usage error: hybrid major must be pr or kd\n"

    def test_every_method_flag_ranks_as_its_label(self, tmp_path, capsys):
        # the CLI flags and MethodSpec.parse read one vocabulary from core,
        # and rank prints what the public ScoredList route gives, cut to
        # --top-n (below, at and past the set size of 12) and to --user
        rng = np.random.default_rng(9)
        path = tmp_path / "vectors.csv"
        path.write_text("user_id,item_id,a,b,c\n" + "".join(
            f"u{u},i{i:02d},{','.join(map(str, rng.integers(1, 6, 3)))}\n"
            for u in range(2) for i in range(12)))
        sets = load_candidate_sets(path)
        cuts = [([], None, sorted(sets))] + [
            (["--top-n", str(n)], n, sorted(sets)) for n in (1, 5, 12, 15)] + [
            (["--user", "u1", "--top-n", "5"], 5, ["u1"])]
        for kind in RANKING_KINDS:
            k_flags, major = (["--k", "0.5"], "kd:0.5") if kind == "kd" else ([], kind)
            for sub in (None, *SUB_KINDS) if kind in MAJOR_KINDS else (None,):
                sub_flags, label = ([], major) if sub is None else (["--sub", sub],
                                                                    f"{major}+{sub}")
                for cut_flags, n, users in cuts:
                    assert run_cli("rank", "--input", str(path), "--predicted",
                                   "--method", kind, *k_flags, *sub_flags, *cut_flags) == 0
                    got = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
                    want = []
                    for user in users:
                        ranked = rank_candidates(sets[user], MethodSpec.parse(label))
                        want += [[user, item, repr(score)]
                                 for item, score in (ranked if n is None else top_n(ranked, n))]
                    assert got == want, (label, cut_flags)

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


@pytest.mark.parametrize("command, header", [
    ("rank", "user_id,item_id,overall,a,a"),
    ("rank", "user_id,item_id,overall,a,"),
    ("rank", "user_id,item_id,overall,a,,b"),
    ("rank-predicted", "user_id,item_id,overall,a,a"),
    ("rank-predicted", "user_id,item_id,overall,a,"),
    ("rank-predicted", "user_id,item_id,a,a"),
    ("rank-predicted", "user_id,item_id,,a"),
])
def test_criterion_names_must_be_distinct_and_non_empty(tmp_path, capsys, command, header):
    path = tmp_path / "data.csv"
    width = len(header.split(","))
    path.write_text(f"{header}\nu1,t1,{','.join(['3'] * (width - 2))}\n")
    predicted = ["--predicted"] if command == "rank-predicted" else []
    assert run_cli("rank", "--input", str(path), "--method", "pr", *predicted) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}: line 1: criterion names must be "
                            f"distinct and non-empty\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["rank", "rank-predicted"])
@pytest.mark.parametrize("row", [",t1,3,4", ",,3,2", "u1,,3,4", " ,t1,3,4"])
def test_empty_ids_are_a_data_error(tmp_path, capsys, command, row):
    path = tmp_path / "data.csv"
    if command == "rank":
        path.write_text(f"user_id,item_id,overall,a\nu1,t0,3,3\n{row}\n")
    else:  # the vectors format has no overall column
        row = ",".join(row.split(",")[:2] + row.split(",")[3:])
        path.write_text(f"user_id,item_id,a\nu1,t0,3\n{row}\n")
    predicted = ["--predicted"] if command == "rank-predicted" else []
    assert run_cli("rank", "--input", str(path), "--method", "pr", *predicted) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}: line 3: user_id and item_id "
                            f"must be non-empty\n")
    assert captured.out == ""


@pytest.mark.parametrize("load", [load_experiment_config, load_report, load_model],
                         ids=["config", "report", "model"])
@pytest.mark.parametrize("text", ['{"folds": ' + "1" * 5000 + "}", "[" * 200_000],
                         ids=["long-integer", "deep-nesting"])
def test_json_the_parser_refuses_is_a_parse_error(tmp_path, load, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ParseError, match="bad.json: invalid JSON: "):
        load(path)


@pytest.mark.parametrize("load, text, message", [
    (load_experiment_config, "[]", "config must be a JSON object"),
    (load_report, "{}", "not a report file: 'cells'"),
    (load_model, '{"format": "mcrank-model", "version": 2}', "unsupported model version 2"),
], ids=["config", "report", "model"])
def test_json_of_the_wrong_shape_is_a_parse_error(tmp_path, load, text, message):
    path = tmp_path / "other.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"other.json: {message}"):
        load(path)


@pytest.mark.parametrize("role", ["dataset", "predicted", "config"])
def test_utf8_bom_is_accepted(tmp_path, role):
    data = tmp_path / "data.csv"
    save_dataset(synth_generate(8, 6, 2, 0.6, seed=1), data)
    cfg = tmp_path / "config.json"
    cfg.write_text('{"methods": ["pr", "kd:0.5"], "folds": 2}')
    plain = {"dataset": data, "predicted": data, "config": cfg}[role]
    bom = tmp_path / f"bom{plain.suffix}"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    load = {"dataset": load_dataset, "config": load_experiment_config,
            "predicted": lambda p: {u: (c.item_ids, c.matrix.tolist())
                                    for u, c in load_candidate_sets(p).items()}}[role]
    assert load(bom) == load(plain)


def test_quoted_line_break_stays_in_its_cell(tmp_path, capsys):
    path = tmp_path / "vectors.csv"
    path.write_text('user_id,item_id,a,b\nu1,"t\n1",3,3\nu1,t2,2,2\n')
    assert run_cli("rank", "--input", str(path), "--predicted", "--method", "pr") == 0
    assert capsys.readouterr().out == 'u1\t"t\n1"\t1.0\nu1\tt2\t0.0\n'


def test_rank_quotes_an_id_holding_a_tab_or_quote(tmp_path, capsys):
    path = tmp_path / "vectors.csv"
    path.write_text('user_id,item_id,a,b\nu1,"t\t1",3,3\nu1,"t""2",2,2\n')
    assert run_cli("rank", "--input", str(path), "--predicted", "--method", "pr") == 0
    assert capsys.readouterr().out == 'u1\t"t\t1"\t1.0\nu1\t"t""2"\t0.0\n'


@pytest.mark.parametrize("command", ["rank", "rank-predicted"])
def test_rows_are_numbered_by_the_file_line_they_start_on(tmp_path, capsys, command):
    # a quoted cell spans lines 2-3 and line 4 is blank, so the bad cell is on line 5
    overall = "overall," if command == "rank" else ""
    path = tmp_path / "data.csv"
    path.write_text(f'user_id,item_id,{overall}a\nu1,"t\n1",{overall and "3,"}3\n'
                    f'\nu1,t2,{overall and "3,"}x\n')
    predicted = ["--predicted"] if command == "rank-predicted" else []
    assert run_cli("rank", "--input", str(path), "--method", "pr", *predicted) == 2
    assert capsys.readouterr().err == f"error: {path}: line 5: a value 'x' is not a number\n"
    path.write_text(f"\nuser_id,item_id,{overall}a,a\n")  # the header is on line 2
    assert run_cli("rank", "--input", str(path), "--method", "pr", *predicted) == 2
    assert capsys.readouterr().err == (f"error: {path}: line 2: criterion names must be "
                                       f"distinct and non-empty\n")


def test_unclosed_quote_is_a_data_error(tmp_path, capsys):
    # the rest of the file becomes one cell, longer than the csv field limit
    path = tmp_path / "vectors.csv"
    path.write_text('user_id,item_id,a\nu1,"t1,3\n' + "u1,t2,3\n" * 20000)
    assert run_cli("rank", "--input", str(path), "--predicted", "--method", "pr") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 2: field larger than field limit")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["rank", "evaluate"])
def test_validation_errors_name_the_file_and_line(tmp_path, capsys, command):
    path = tmp_path / "d.csv"
    path.write_text("user_id,item_id,overall,a\nu1,t1,3,3\n\nu1,t1,3,3\nu2,t1,9,3\n")
    cfg = tmp_path / "c.json"
    cfg.write_text('{"folds": 2}')
    argv = {"rank": ["--method", "pr"],
            "evaluate": ["--config", str(cfg), "--out", str(tmp_path / "r.json")]}
    assert run_cli(command, "--input", str(path), *argv[command]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 4 (u1, t1): duplicate (user, item) pair; "
        f"line 5 (u2, t1): overall rating 9.0 outside [1.0, 5.0]\n")
    # an in-memory dataset has no lines; its violations keep record indices
    records = (RatingRecord("u1", "t1", 3, (3,)), RatingRecord("u1", "t1", 3, (3,)))
    violations = validate_dataset(Dataset(criteria_names=("a",), records=records))
    assert str(DatasetValidationError(violations)) == (
        "dataset failed validation: record 1 (u1, t1): duplicate (user, item) pair")


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Experiment config\n", 1)[1].split("\n### ", 1)[0]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(example, encoding="utf-8")
    assert config_to_dict(load_experiment_config(path)) == {
        **json.loads(example), "dataset_path": None}


_CPU_PATH_RUN = """if True:
    import contextlib, json
    from mcrank.cli import cli_main
    methods = ["pr", "kd:0.5", "ar", "mr", "gd", "pg", "kd:0.5+pg", "kd:0.5+ar"]
    assert cli_main(["synth", "--users", "30", "--items", "15", "--criteria", "3",
                     "--density", "0.5", "--seed", "2", "--out", "data.csv"]) == 0
    for protocol in ("test_items", "all_unrated"):
        with open(f"{protocol}.json", "w") as fh:
            json.dump({"methods": methods, "folds": 3, "seed": 4, "n_values": [3, 5],
                       "protocol": protocol, "train": {"epochs": 3}}, fh)
        assert cli_main(["evaluate", "--input", "data.csv", "--config", f"{protocol}.json",
                         "--out", f"{protocol}-report.json"]) == 0
    for label, method in [("pr", ["pr"]), ("mr", ["mr"]), ("gd", ["gd"]),
                          ("kd-pg", ["kd", "--k", "0.5", "--sub", "pg"]),
                          ("kd-ar", ["kd", "--k", "0.5", "--sub", "ar"])]:
        with open(f"rank-{label}.tsv", "w") as fh, contextlib.redirect_stdout(fh):
            assert cli_main(["rank", "--input", "vectors.csv", "--predicted",
                             "--method", *method]) == 0
"""


def test_report_and_rank_bytes_do_not_depend_on_the_cpu_path(tmp_path):
    # rank reads one file of continuous vectors written here, so each run
    # ranks the same input; evaluate fits and predicts in every run. The
    # fitted parameters themselves are not covered: the SGD dot products
    # go through BLAS ddot, whose last bit can move with the core type.
    # Fold means summed by np.dot, a ddot, fail this test under Prescott.
    rng = np.random.default_rng(3)
    vectors = tmp_path / "vectors.csv"
    save_predictions(vectors, ["a", "b", "c"],
                     [(f"u{u}", f"t{t:02}", 1 + 4 * rng.random(3))
                      for u in range(6) for t in range(40)])
    # numpy refuses to disable a baseline feature, so the dispatch targets
    # are read here, and only those this machine runs are turned off
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    dispatched = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    settings = {"default": {}, "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
                "one-thread": {"OPENBLAS_NUM_THREADS": "1"},
                "no-dispatch": {"NPY_DISABLE_CPU_FEATURES": dispatched}}
    src = str(Path(pipeline.__file__).parents[1])
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "NPY_DISABLE_CPU_FEATURES")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = {}
    for name, extra in settings.items():
        run = tmp_path / name
        run.mkdir()
        (run / "vectors.csv").write_bytes(vectors.read_bytes())
        done = subprocess.run([sys.executable, "-c", _CPU_PATH_RUN], cwd=run,
                              env={**base, **extra}, capture_output=True, text=True)
        assert done.returncode == 0, (name, done.stderr)
        outputs[name] = {path.name: path.read_bytes() for path in run.iterdir()}
    assert len(outputs["default"]) == 13 and all(outputs["default"].values())
    for name in settings:
        assert outputs[name] == outputs["default"], name


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

    def test_sweep_k_bad_list_is_usage_error(self, tmp_path, capsys):
        # checked before any file is read, as rank --method kd --k checks it
        for k, message in [
            ("0,zebra", "bad --k list '0,zebra'"),
            (",", "--k needs at least one value"),
            ("2", "relaxation factor k must lie in [0, 1], got 2.0"),
            ("nan", "relaxation factor k must lie in [0, 1], got nan"),
            ("0.5,-0.5", "relaxation factor k must lie in [0, 1], got -0.5"),
        ]:
            assert run_cli("sweep-k", "--input", str(tmp_path / "absent.csv"), "--k", k,
                           "--config", str(tmp_path / "absent.json"), "--out",
                           str(tmp_path / "x.json")) == 1
            assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_sweep_k_repeated_value_is_a_data_error(self, data_file, config_file,
                                                     tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert run_cli("sweep-k", "--input", data_file, "--k", "0.5,0.5",
                       "--config", config_file, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: duplicate ranking methods configured: ['kd:0.5', 'kd:0.5']\n")
        assert not out.exists()

    def test_sweep_k_negative_zero_repeats_zero(self, data_file, config_file,
                                                tmp_path, capsys):
        # k = -0.0 is stored as 0.0, so kd:-0 is the method kd:0 once more
        out = tmp_path / "sweep.json"
        assert run_cli("sweep-k", "--input", data_file, "--k=0,-0",
                       "--config", config_file, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: duplicate ranking methods configured: ['kd:0', 'kd:0']\n")
        assert not out.exists()

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
        ({"n_values": [2.7]}, "'n_values'"),
        ({"train": {"epochs": True}}, "'train.epochs'"),
        ({"relevance_threshold": "3"}, "'relevance_threshold'"),
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
        ('{"relevance_threshold": 1e999}', "config key 'relevance_threshold'"),
        ('{"train": {"reg": NaN}}',
         "config key 'train.reg' must be a finite number, got nan"),
        ('{"train": {"learning_rate": 1e999}}',
         "config key 'train.learning_rate' must be a finite number, got inf"),
        ('{"train": {"seed": -1}}', "train.seed must be non-negative, got -1"),
        ('{"folds": 1}', "folds must be >= 2, got 1"),
        ('{"n_values": [5, 0]}', "n_values must be positive, got [5, 0]"),
        ('{"train": {"epochs": 0}}', "train.epochs must be >= 1, got 0"),
        ('{"train": {"reg": -1}}', "train.reg must be non-negative, got -1"),
        ('{"seed": -1}', "seed must be non-negative, got -1"),
        ('{"protocol": "bogus"}', "unknown candidate protocol 'bogus'"),
        ('{"folds": ' + "1" * 5000 + "}", "invalid JSON: Exceeds the limit"),
        ("[" * 200_000, "invalid JSON: maximum recursion depth exceeded"),
    ], ids=["empty-n_values", "infinite-threshold", "nan-reg", "infinite-learning_rate",
            "negative-train.seed", "one-fold", "zero-n_values", "zero-train.epochs",
            "negative-train.reg", "negative-seed", "unknown-protocol",
            "long-integer", "deep-nesting"])
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

    def test_label_with_two_pluses_names_the_file_and_label(self, data_file, tmp_path,
                                                            capsys):
        cfg = tmp_path / "plus.json"
        cfg.write_text('{"methods": ["pr", "kd:0.1+ar+pg"]}')
        message = f"{cfg}: hybrid 'kd:0.1+ar+pg' must be <major>+<sub>, with one '+'"
        with pytest.raises(ParseError) as caught:
            load_experiment_config(cfg)
        assert str(caught.value) == message
        assert run_cli("evaluate", "--input", data_file, "--config", str(cfg),
                       "--out", str(tmp_path / "r.json")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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

    # refused by the size arithmetic before any array is made
    @pytest.mark.parametrize("users, criteria, values", [
        (10**30, 2, 3 * 2 * 10**30), (3, 10**21, 3 * 3 * 10**21)])
    def test_synth_past_the_array_size_limit_is_a_data_error(self, tmp_path, capsys,
                                                             users, criteria, values):
        out = tmp_path / "s.csv"
        assert run_cli("synth", "--users", str(users), "--items", "3",
                       "--criteria", str(criteria), "--density", "0.5",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == (f"error: synth {users} x 3 x {criteria} needs an array of "
                       f"{values} values, past numpy's limit of {2**60 - 1}\n")
        assert not out.exists()

    def test_latent_dim_past_the_array_size_limit_is_a_data_error(self, data_file, tmp_path,
                                                                  capsys):
        cfg = tmp_path / "wide.json"
        cfg.write_text('{"train": {"latent_dim": 1' + "0" * 30 + "}}")
        assert run_cli("evaluate", "--input", data_file, "--config", str(cfg),
                       "--out", str(tmp_path / "r.json")) == 2
        rows = sum(3 * (len(train.users()) + len(train.items()))
                   for train, _ in kfold_split(load_dataset(data_file), 5, 0))
        assert capsys.readouterr().err == (
            f"error: train.latent_dim {10**30} needs a ({rows}, {10**30}) factor table, "
            f"past numpy's limit of {2**60 - 1} values\n")

    def test_latent_dim_past_the_limit_for_the_stacked_folds_is_a_data_error(
            self, data_file, tmp_path, capsys):
        # each fold's table alone is within numpy's limit, the five folds'
        # stacked table is not, and the stack is what is checked
        ds = load_dataset(data_file)
        rows = [len(train.users()) + len(train.items())
                for train, _ in kfold_split(ds, 5, 0)]
        d = MAX_FLOATS // (3 * max(rows))
        assert 3 * sum(rows) * d > MAX_FLOATS
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"methods": ["pr"], "folds": 5, "seed": 0,
                                   "train": {"latent_dim": d}}))
        assert run_cli("evaluate", "--input", data_file, "--config", str(cfg),
                       "--out", str(tmp_path / "r.json")) == 2
        assert capsys.readouterr().err == (
            f"error: train.latent_dim {d} needs a ({3 * sum(rows)}, {d}) factor table, "
            f"past numpy's limit of {MAX_FLOATS} values\n")

    def test_n_values_past_int64_read_every_list_whole(self, data_file, tmp_path):
        # max(N) is cut at the largest set before numpy sees it, and the
        # report keeps the N as configured
        cells = {}
        for n in (2**63 - 1, 2**63, 10**30):
            cfg, out = tmp_path / f"{n}.json", tmp_path / f"{n}-report.json"
            cfg.write_text(json.dumps({"methods": ["pr", "kd:0.5+ar"], "folds": 2,
                                       "n_values": [3, n], "train": {"epochs": 2}}))
            assert run_cli("evaluate", "--input", data_file, "--config", str(cfg),
                           "--out", str(out)) == 0
            report = load_report(out)
            assert report.metadata["config"]["n_values"] == [3, n]
            cells[n] = [(c.method, c.fold, c.f1, c.ndcg) for c in report.cells if c.n == n]
        assert cells[2**63] == cells[2**63 - 1] == cells[10**30]

    @pytest.mark.parametrize("folds", [10**12, 2**63])
    def test_folds_past_the_records_are_refused_before_any_allocation(
            self, data_file, tmp_path, capsys, folds):
        cfg = tmp_path / "folds.json"
        cfg.write_text(json.dumps({"methods": ["pr"], "folds": folds}))
        out = tmp_path / "r.json"
        assert run_cli("evaluate", "--input", data_file, "--config", str(cfg),
                       "--out", str(out)) == 2
        records = len(load_dataset(data_file).records)
        assert capsys.readouterr().err == \
            f"error: {records} records cannot fill {folds} folds\n"
        assert not out.exists()

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

    def test_predict_pairs_partition_all_pairs(self, data_file, tmp_path):
        vectors = {}
        for pairs in ("all", "observed", "unrated"):
            out = tmp_path / f"{pairs}.csv"
            assert run_cli("predict", "--input", data_file, "--out", str(out),
                           "--seed", "5", "--pairs", pairs) == 0
            vectors[pairs] = {(u, item): row.tolist()
                              for u, c in load_candidate_sets(out).items()
                              for item, row in zip(c.item_ids, c.matrix)}
        everything, observed, unrated = (vectors["all"], vectors["observed"],
                                         vectors["unrated"])
        ds = load_dataset(data_file)
        assert set(observed) == {(r.user_id, r.item_id) for r in ds.records}
        assert unrated and not set(observed) & set(unrated)
        assert set(observed) | set(unrated) == set(everything)
        assert {**observed, **unrated} == everything  # each vector identical

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


class TestBenchQualityContract:
    # the benchmark's quality metrics read records/by_user(), GroundTruth,
    # ndcg(ideal_pool=) and what pipeline.build_candidates and
    # io.load_candidate_sets return; a reshaped one would fail only there
    @pytest.fixture(autouse=True)
    def bench_on_path(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))

    def test_heldout_rmse_of_recorded_folds(self):
        import workloads

        cfg = experiment_config_from_dict({
            "methods": ["pr"], "folds": 3, "n_values": [3],
            "train": {"latent_dim": 2, "epochs": 3}})
        with workloads.pass_recorder(workloads.WORKLOADS["reference"]) as kept:
            run_experiment(synth_generate(20, 12, 3, 0.6, seed=0), cfg)
        assert len(kept) == cfg.folds
        rmse = workloads.heldout_rmse(kept)
        assert np.isfinite(rmse) and 0.0 < rmse < 4.0

    def test_tracer_hooks_exist(self):
        # bench/traced.py patches names in mcrank's modules (pipeline's
        # unused imports among them); a dropped one fails here, not only in
        # a traced benchmark run
        import traced

        with traced.instrument(traced.Tracer(run_id="guard")):
            pass

    def test_rank_quality_of_a_loaded_file(self, tmp_path, capsys):
        import workloads

        users, items = ["u1", "u2", "u3"], ["i1", "i2", "i3", "i4", "i5"]
        # item j rates 1 + j on every criterion, so it dominates items < j
        truth = np.broadcast_to(np.arange(1.0, 6.0)[None, :, None], (3, 5, 2))
        inputs = workloads.Inputs(data=tmp_path / "predicted.csv", user_ids=users,
                                  item_ids=items, predicted=truth - 0.25, truth=truth)
        save_predictions(inputs.data, ["c1", "c2"],
                         ((u, i, inputs.predicted[a, b]) for a, u in enumerate(users)
                          for b, i in enumerate(items)))
        loaded = load_candidate_sets(inputs.data)
        assert run_cli("rank", "--input", str(inputs.data), "--predicted",
                       "--method", "pr", "--top-n", "2") == 0
        rmse, ndcg10 = workloads.rank_quality(inputs, loaded, capsys.readouterr().out)
        assert rmse == 0.25 and ndcg10 == 1.0
