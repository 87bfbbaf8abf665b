"""Mutated inputs end with exit code 2 and a message, never a traceback.

Each example takes a valid dataset CSV, predicted-vector CSV or config
JSON, applies a few byte-level edits, and runs a subcommand on it in
process, so an uncaught exception fails the test with its traceback.
Other examples give the numeric flags, and the config's ``folds``,
``seed``, ``n_values`` and ``train.latent_dim``, drawn values on valid
files. ``train.epochs`` is left out: a huge value is a long run, not an
error. Exit code 1 is allowed only for a usage error.

``test_loaders_match_the_per_row_oracle`` writes fuzzed vector and
dataset files and checks both loaders, at several chunk sizes, against
the per-row loaders in ``tests/naive.py``: the same result or the same
error text.
"""

import contextlib
import csv
import functools
import io as textio
import json
import operator
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naive import naive_load_candidate_sets, naive_load_dataset

from mcrank import io, synth_generate
from mcrank.cli import cli_main
from mcrank.io import load_candidate_sets, load_dataset, save_dataset, save_predictions

CONFIG = {"methods": ["pr", "kd:0.5+pg", "ar"], "folds": 2, "seed": 1,
          "n_values": [2, 4], "train": {"latent_dim": 2, "epochs": 2}}

# fragments an edit inserts or overwrites with: separators, signs,
# exponents, non-finite spellings, JSON syntax, a byte that is not UTF-8
# and a UTF-8 byte order mark
FRAGMENTS = [b",", b".", b"\n", b"\r\n", b"-", b"e", b"0", b"9", b"1e400",
             b"nan", b"-inf", b'"', b":", b"[", b"]", b"{", b"}", b"x",
             b"\xff", b"  ", b"null", b"true", b"kd:2", b"+", b"\xef\xbb\xbf"]

COMMANDS = {
    "rank": ["rank", "--input", "data.csv", "--method", "kd", "--k", "0.5",
             "--sub", "pg"],
    "rank-predicted": ["rank", "--input", "predicted.csv", "--predicted",
                       "--method", "pr", "--sub", "ar", "--top-n", "3"],
    "evaluate": ["evaluate", "--input", "data.csv", "--config", "config.json",
                 "--out", "report.json"],
    "sweep-k": ["sweep-k", "--input", "data.csv", "--k", "0,0.5,1",
                "--config", "config.json", "--out", "report.json"],
    **{f"predict-{pairs}": ["predict", "--input", "data.csv", "--out", "out.csv",
                            "--pairs", pairs]
       for pairs in ("observed", "unrated", "all")},
}
MUTABLE = {"rank": ["data.csv"], "rank-predicted": ["predicted.csv"],
           "evaluate": ["data.csv", "config.json"],
           "sweep-k": ["data.csv", "config.json"],
           "predict-observed": ["data.csv"], "predict-unrated": ["data.csv"],
           "predict-all": ["data.csv"]}


# Whole numbers are small or far past any array size limit, never between,
# so no example allocates a large array. A flag value is a whole number,
# any float (nan and the infinities included) or a spelling no parser takes.
HUGE = st.integers(10**20, 10**40)
WHOLE = st.one_of(st.integers(-6, 6), HUGE, HUGE.map(operator.neg))
FLAG = st.one_of(WHOLE.map(str), st.floats().map(str),
                 st.sampled_from(["", "x", "0x10", "1e400", "-inf", "nan"]))
SIZE = st.one_of(WHOLE.map(str), FLAG)
UNIT = st.one_of(st.floats(0.0, 1.0).map(str), FLAG)  # a density or a k
NUMBER = st.one_of(WHOLE, st.floats())  # a config value


def evaluate_with(key: str, value):
    """evaluate on CONFIG with the config ``key`` (``train.`` keys nested)
    set to ``value``."""
    if key.startswith("train."):
        config = {**CONFIG, "train": {**CONFIG["train"], key[len("train."):]: value}}
    else:
        config = {**CONFIG, key: value}
    return COMMANDS["evaluate"], {"config.json": json.dumps(config).encode()}


def synth_argv(flag: str, value) -> list[str]:
    """synth with ``flag`` given ``value`` and every other flag valid."""
    values = {"users": 4, "items": 3, "criteria": 2, "density": 0.5, "seed": 0, flag: value}
    return ["synth", *(f"--{k}={v}" for k, v in values.items()), "--out", "out.csv"]


# (argv, {file: bytes} replacing a valid file); --flag=value passes a value
# that starts with "-" to the flag rather than reading it as an option
NUMERIC = {
    "synth": st.one_of(st.tuples(st.sampled_from(["users", "items", "criteria", "seed"]), SIZE),
                       st.tuples(st.just("density"), UNIT)).map(
        lambda drawn: (synth_argv(*drawn), {})),
    "rank --top-n": FLAG.map(lambda n: ([*COMMANDS["rank"], f"--top-n={n}"], {})),
    "sweep-k --k": st.lists(UNIT, max_size=3).map(lambda ks: (
        ["sweep-k", "--input", "data.csv", f"--k={','.join(ks)}", "--config", "config.json",
         "--out", "report.json"], {})),
    "predict --seed": FLAG.map(lambda seed: (
        [*COMMANDS["predict-all"], f"--seed={seed}"], {})),
    **{key: values.map(functools.partial(evaluate_with, key))
       for key, values in [("folds", NUMBER), ("seed", NUMBER),
                           ("n_values", st.lists(NUMBER, max_size=3)),
                           ("train.latent_dim", NUMBER)]},
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    save_dataset(synth_generate(10, 8, 2, 0.6, seed=4), root / "data.csv")
    rows = [(f"u{u}", f"i{i}", (float(1 + (u * i) % 5), 2.5 + (i % 3)))
            for u in range(3) for i in range(6)]
    save_predictions(root / "predicted.csv", ["c1", "c2"], rows)
    (root / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    return {name: (root / name).read_bytes()
            for name in ("data.csv", "predicted.csv", "config.json")}


@st.composite
def edits(draw):
    """Up to three (kind, position fraction, length, fragment) edits."""
    return draw(st.lists(st.tuples(
        st.sampled_from(["delete", "insert", "replace", "truncate", "repeat-line"]),
        st.floats(0.0, 1.0), st.integers(1, 8), st.sampled_from(FRAGMENTS)),
        min_size=1, max_size=3))


def apply_edits(data: bytes, steps) -> bytes:
    out = bytearray(data)
    for kind, where, length, fragment in steps:
        i = int(where * len(out))
        if kind == "delete":
            del out[i:i + length]
        elif kind == "insert":
            out[i:i] = fragment
        elif kind == "replace":
            out[i:i + 1] = fragment
        elif kind == "truncate":
            del out[i:]
        else:  # repeat the line holding position i
            start = out.rfind(b"\n", 0, i) + 1
            end = out.find(b"\n", i)
            end = len(out) if end < 0 else end + 1
            out[start:start] = out[start:end]
    return bytes(out)


def run_cli(argv, workdir: Path) -> tuple[int, str]:
    err = textio.StringIO()
    with contextlib.chdir(workdir), contextlib.redirect_stdout(textio.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_input_is_reported_not_raised(valid_files, command):
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(target=st.sampled_from(MUTABLE[command]), steps=edits())
    def check(target, steps):
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            for name, data in valid_files.items():
                (workdir / name).write_bytes(
                    apply_edits(data, steps) if name == target else data)
            code, err = run_cli(COMMANDS[command], workdir)
        assert_reported(code, err)

    check()


@pytest.mark.parametrize("case", sorted(NUMERIC))
def test_numeric_flag_is_reported_not_raised(valid_files, case):
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(example=NUMERIC[case])
    def check(example):
        argv, replaced = example
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            for name, data in {**valid_files, **replaced}.items():
                (workdir / name).write_bytes(data)
            code, err = run_cli(argv, workdir)
        assert_reported(code, err)

    check()


def assert_reported(code: int, err: str) -> None:
    assert "Traceback" not in err
    assert code in (0, 2) or (code == 1 and err.startswith("usage error")), (code, err)
    if code == 2:
        assert err.startswith("error: ") and len(err.strip()) > len("error:")


# The loader fuzz writes rows of distinct (user, item) pairs and good
# cells, then plants a few faults. Ids are padded, hold quoted line breaks
# and commas, or start with \x1c, which str.strip drops; so do padded
# cells, which float() refuses. Cells on the 1-5 scale are spelled with
# an underscore, an exponent or a non-ASCII digit; off it they are
# still numbers, and still good in a vector file.
USERS = ["u1", "u2", " u1 ", "\x1cu2", "u\n1"]
ITEMS = ["t{}", " t{} ", "t\n{}", "t,{}"]  # formats of the row's number
GOOD_CELLS = ["1", "3", " 4 ", "2.5", "4_0e-1", "2.5E0", "\xa02", "\u0663", "\x1c3",
              "5\x1f "]
OFF_SCALE = ["1_0", "-1e-2", "-0.0", "5.000001"]
BAD_CELLS = ["x", "", "1e", "0x1", "1,5"]
NON_FINITE = ["1e400", "-inf", "nan", "Infinity"]
FAULTS = ["off-scale", "bad", "non-finite", "duplicate", "duplicate-bad", "width",
          "blank-id", "blank-line"]
# a stray byte that is not UTF-8, an unclosed quote, and a cell past
# FIELD_LIMIT (a csv.Error)
STRAY = [b"\xff", b'"', b"9" * 60]
FIELD_LIMIT = 50


@st.composite
def loader_files(draw):
    """A vector or dataset-shaped CSV of up to 12 rows with up to three
    planted faults and perhaps one stray insert."""
    m = draw(st.integers(1, 3))
    header = ["user_id", "item_id", *(["overall"] if draw(st.integers(0, 7)) != 7 else []),
              *(f"c{j}" for j in range(m))]
    cell = st.sampled_from(GOOD_CELLS)
    rows = [[draw(st.sampled_from(USERS)), draw(st.sampled_from(ITEMS)).format(r),
             *(draw(cell) for _ in header[2:])] for r in range(draw(st.integers(0, 12)))]
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)) if rows else ():
        at = draw(st.integers(0, len(rows) - 1))
        row, column = rows[at], draw(st.integers(2, len(header) - 1))
        if len(row) != len(header):  # a blank line, or a row of the wrong width
            continue
        if fault.startswith("duplicate"):
            row[:2] = (f" {v} " for v in rows[draw(st.integers(0, at))][:2])
        if fault in ("bad", "duplicate-bad"):
            row[column] = draw(st.sampled_from(BAD_CELLS))
        elif fault == "off-scale":
            row[column] = draw(st.sampled_from(OFF_SCALE))
        elif fault == "non-finite":
            row[column] = draw(st.sampled_from(NON_FINITE))
        elif fault == "width":
            row[column:column + 1] = draw(st.sampled_from([[], ["3", "3"]]))
        elif fault == "blank-id":
            row[draw(st.integers(0, 1))] = draw(st.sampled_from(["", " "]))
        elif fault == "blank-line":
            rows.insert(at, [])
    text = textio.StringIO()
    csv.writer(text, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(
        [header, *rows])
    data = text.getvalue().encode()
    stray = draw(st.sampled_from([b""] * 6 + STRAY))
    at = int(draw(st.floats(0, 1)) * len(data))
    return data[:at] + stray + data[at:]


def loaded(load, path):
    """What ``load`` gives for ``path``: the sets in order with their ids
    and matrix bytes, the Dataset, or the error's type and text."""
    try:
        result = load(path)
    except Exception as exc:  # noqa: BLE001 - any error must match the oracle's
        return type(exc).__name__, str(exc)
    if isinstance(result, dict):
        return [(user, c.user_id, c.item_ids, c.matrix.shape, c.matrix.tobytes())
                for user, c in result.items()]
    return result


@pytest.mark.parametrize("chunk", [None, 1, 2, 3], ids=["default", "1", "2", "3"])
@pytest.mark.parametrize("load, oracle", [(load_candidate_sets, naive_load_candidate_sets),
                                          (load_dataset, naive_load_dataset)],
                         ids=["candidate-sets", "dataset"])
def test_loaders_match_the_per_row_oracle(tmp_path, monkeypatch, load, oracle, chunk):
    if chunk is not None:
        monkeypatch.setattr(io, "_CHUNK_ROWS", chunk)
    path = tmp_path / "input.csv"

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=loader_files())
    def check(data):
        path.write_bytes(data)
        assert loaded(load, path) == loaded(oracle, path)

    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        check()
    finally:
        csv.field_size_limit(limit)
