"""Mutated inputs end with exit code 2 and a message, never a traceback.

Each example takes a valid dataset CSV, predicted-vector CSV or config
JSON, applies a few byte-level edits, and runs a subcommand on it in
process, so an uncaught exception fails the test with its traceback.
Exit code 1 is allowed only for a usage error.
"""

import contextlib
import io as textio
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcrank import synth_generate
from mcrank.cli import cli_main
from mcrank.io import save_dataset, save_predictions

CONFIG = {"methods": ["pr", "kd:0.5+pg", "ar"], "folds": 2, "seed": 1,
          "n_values": [2, 4], "train": {"latent_dim": 2, "epochs": 2}}

# fragments an edit inserts or overwrites with: separators, signs,
# exponents, non-finite spellings, JSON syntax and a byte that is not UTF-8
FRAGMENTS = [b",", b".", b"\n", b"\r\n", b"-", b"e", b"0", b"9", b"1e400",
             b"nan", b"-inf", b'"', b":", b"[", b"]", b"{", b"}", b"x",
             b"\xff", b"  ", b"null", b"true", b"kd:2", b"+"]

COMMANDS = {
    "rank": ["rank", "--input", "data.csv", "--method", "kd", "--k", "0.5",
             "--sub", "pg"],
    "rank-predicted": ["rank", "--input", "predicted.csv", "--predicted",
                       "--method", "pr", "--sub", "ar", "--top-n", "3"],
    "evaluate": ["evaluate", "--input", "data.csv", "--config", "config.json",
                 "--out", "report.json"],
    "sweep-k": ["sweep-k", "--input", "data.csv", "--k", "0,0.5,1",
                "--config", "config.json", "--out", "report.json"],
}
MUTABLE = {"rank": ["data.csv"], "rank-predicted": ["predicted.csv"],
           "evaluate": ["data.csv", "config.json"],
           "sweep-k": ["data.csv", "config.json"]}


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
        assert "Traceback" not in err
        assert code in (0, 2) or (code == 1 and err.startswith("usage error")), \
            (code, err)
        if code == 2:
            assert err.startswith("error: ") and len(err.strip()) > len("error:")

    check()
