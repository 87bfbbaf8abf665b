"""Mutants of the ranking kernels, of ``rank``, of fold training, of the
metrics and the evaluation pipeline and of the CSV reader, each of which
named test files must kill.

Run from anywhere: ``python tests/mutants.py``. Each mutant replaces one
text, found exactly once, in one file of a copy of ``src``, ``tests``,
``bench``, ``pyproject.toml`` and ``README.md`` under a temporary
directory, and runs only its named test files there, stopping at the
first failure. A mutant is killed when they fail. The script first runs
every named file unmutated, then prints each mutant as killed or
survived. It exits 0 when every mutant is killed, 1 when one survives
and 2 when a run cannot tell (a text not found once, a failure without a
mutant, or pytest ending in an error). Its name keeps it out of pytest's
collection, which takes ``test_*.py``; ``tests/test_session.py`` checks
on every run that each mutant's text is still found once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

RANKING = "src/mcrank/ranking.py"
RANKING_TESTS = ["tests/test_ranking.py"]
CLI = "src/mcrank/cli.py"
CLI_TESTS = ["tests/test_interface.py"]
PREDICTOR = "src/mcrank/predictor.py"
PREDICTOR_TESTS = ["tests/test_predictor.py"]
METRICS = "src/mcrank/metrics.py"
PIPELINE = "src/mcrank/pipeline.py"
EVALUATE_TESTS = ["tests/test_metrics.py", "tests/test_pipeline.py", "tests/test_interface.py",
                  "tests/test_core.py"]
IO = "src/mcrank/io.py"
IO_TESTS = ["tests/test_interface.py", "tests/test_fuzz.py"]

# (what the mutant does, file, old text, new text, test files that kill it)
MUTANTS = [
    ("t(i) = ceil(k * i)", RANKING,
     "t = min(math.floor(Fraction(k) * i), m - i)",
     "t = min(math.ceil(Fraction(k) * i), m - i)", RANKING_TESTS),
    ("n_w <= t(i) - 1, as t(i) + 1 read as t(i)", RANKING,
     "_at_least(n_nw, m - t)", "_at_least(n_nw, m - t + 1)", RANKING_TESTS),
    ("63 bits a word", RANKING,
     "bits = np.uint64(1) << (np.arange(n) % 64)",
     "bits = np.uint64(1) << (np.arange(n) % 63)", RANKING_TESTS),
    ("better and not-worse planes swapped", RANKING,
     "at = lower[:, None, :, rows] + np.arange(2)[:, None, None]",
     "at = lower[:, None, :, rows] + np.arange(1, -1, -1)[:, None, None]", RANKING_TESTS),
    ("last column tile dropped", RANKING,
     "range(0, n, 64 * words)", "range(0, n - 1, 64 * words)", RANKING_TESTS),
    ("upper front read across sets, not rows", RANKING,
     "np.bitwise_or.reduce(beats, axis=1)", "np.bitwise_or.reduce(beats, axis=0)",
     RANKING_TESTS),
    ("lower and upper fronts swapped", RANKING,
     "front = np.concatenate([counts[0.0] == 0, ~dominated])",
     "front = np.concatenate([~dominated, counts[0.0] == 0])", RANKING_TESTS),
    ("front padding of zeros, not +inf", RANKING,
     "members[:, np.arange(width) >= sizes[:, None]] = np.inf",
     "members[:, np.arange(width) >= sizes[:, None]] = 0.0", RANKING_TESTS),
    ("front one member short", RANKING,
     "width = int(sizes.max())", "width = int(sizes.max()) - 1", RANKING_TESTS),
    ("fronts always walked", RANKING, "if 2 * width <= n:", "if True:", RANKING_TESTS),
    ("fronts never walked", RANKING, "if 2 * width <= n:", "if False:", RANKING_TESTS),
    ("plane's incoming gain maximum read along rows", RANKING,
     "g.max(axis=1)", "g.max(axis=2)", RANKING_TESTS),
    ("gain tile not zeroed before its sum", RANKING,
     "        g.fill(0.0)\n", "", RANKING_TESTS),
    ("a run of equal values does not restart at a row boundary", RANKING,
     "    run_start[:size:max(n, 1)] = True\n", "", RANKING_TESTS),
    ("hybrid share read from lower counts alone", RANKING,
     "(lo + up - 1) / (2 * n)", "(2 * lo) / (2 * n)", RANKING_TESTS),
    ("each bit-plane row chunk one row short", RANKING,
     "rows = slice(r, r + step_rows)", "rows = slice(r, r + step_rows - 1)", RANKING_TESTS),
    ("rank prints one line fewer than --top-n", CLI,
     "head = slice(args.top_n)", "head = slice(args.top_n and args.top_n - 1)", CLI_TESTS),
    ("every fold seeded with train.seed", PREDICTOR,
     "[cfg.seed + f, c]", "[cfg.seed, c]", PREDICTOR_TESTS),
    ("a row's last position linked to the sequence's last, within reach", PREDICTOR,
     "nxt[end] = end", "nxt[end] = len(shuffled) - 1", PREDICTOR_TESTS),
    ("ready lists read after both sides count down", PREDICTOR,
     """        ready = []
        for nxt in links:
            # intp once, where each index below would convert int32 again
            succ = nxt.take(front).astype(np.intp)
            left = need.take(succ) - 1
            need[succ] = left
            ready.append(succ[left == 0])
        front = np.concatenate(ready)
""", """        succs = [nxt.take(front).astype(np.intp) for nxt in links]
        for succ in succs:
            need[succ] -= 1
        front = np.concatenate([succ[need[succ] == 0] for succ in succs])
""", PREDICTOR_TESTS),
    ("item-side earlier links not counted", PREDICTOR,
     "need[key[np.concatenate(([0], last[:-1] + 1))]] -= 1",
     "need[key if last is row_ends[1] else key[np.concatenate(([0], last[:-1] + 1))]] -= 1",
     PREDICTOR_TESTS),
    ("recall over max(n_relevant, 2)", METRICS,
     "recall = tp / np.maximum(n_relevant, 1)", "recall = tp / np.maximum(n_relevant, 2)",
     EVALUATE_TESTS),
    ("precision over w rather than min(lengths, w)", METRICS,
     "precision = tp / np.minimum(lengths, w)", "precision = tp / w", EVALUATE_TESTS),
    ("relevance read as rating > threshold", METRICS,
     "if r >= self.threshold", "if r > self.threshold", EVALUATE_TESTS),
    ("_ratio reading 0.0 on a zero base whatever the value", PIPELINE,
     "return 0.0 if value == base else None", "return 0.0", EVALUATE_TESTS),
    ("padding not sorted last in the ideal key", METRICS,
     "ideal_key = np.where(padding, -np.inf, gains)", "ideal_key = gains", EVALUATE_TESTS),
    ("all_unrated pools keeping rated items", PIPELINE,
     "rated = {r.item_id for r in trains.get(user, ())}", "rated = set()", EVALUATE_TESTS),
    ("the discount log2(j + 1)", METRICS,
     "max(1.0, math.log2(j)) for j", "max(1.0, math.log2(j + 1)) for j", EVALUATE_TESTS),
    ("a row fault raised before the rows pending before it are parsed", IO,
     """            parsed(lines, cells)  # a bad number in a row read before it wins
            raise
""", """            raise
""", IO_TESTS),
    ("the last partial chunk never parsed", IO,
     """            raise
        yield lines, users, items, parsed(lines, cells)
""", """            raise
        yield lines, users, items, np.zeros((len(lines), width))
""", IO_TESTS),
    ("finiteness read with any in place of all", IO,
     "np.isfinite(values).all()", "np.isfinite(values).any()", IO_TESTS),
]


def run_tests(root: Path, files: list[str]) -> int:
    """pytest's exit code for ``files`` of the tree at ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *files], cwd=root, env=env, capture_output=True, text=True)
    return done.returncode


def main() -> int:
    repo = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for part in ("src", "tests", "bench"):
            shutil.copytree(repo / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for part in ("pyproject.toml", "README.md"):
            shutil.copy(repo / part, root)
        files = sorted({f for *_, tests in MUTANTS for f in tests})
        if run_tests(root, files) != 0:
            print(f"{' '.join(files)} fail without a mutant")
            return 2
        survived = 0
        for label, path, old, new, tests in MUTANTS:
            text = (repo / path).read_text()
            if text.count(old) != 1:
                print(f"{label}: {old!r} is not found exactly once in {path}")
                return 2
            (root / path).write_text(text.replace(old, new))
            code = run_tests(root, tests)
            (root / path).write_text(text)
            if code not in (0, 1):
                print(f"{label}: pytest ended with exit code {code}")
                return 2
            survived += code == 0
            print(f"{'survived' if code == 0 else 'killed':8}  {label}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
