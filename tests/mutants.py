"""Mutants of the ranking kernels and of ``rank``, each of which named test
files must kill.

Run from anywhere: ``python tests/mutants.py``. Each mutant replaces one
text, found exactly once, in one file of a copy of ``src``, ``tests``,
``bench``, ``pyproject.toml`` and ``README.md`` under a temporary
directory, and runs only its named test files there, stopping at the
first failure. A mutant is killed when they fail. The script first runs
every named file unmutated, then prints each mutant as killed or
survived. It exits 0 when every mutant is killed, 1 when one survives
and 2 when a run cannot tell (a text not found once, a failure without a
mutant, or pytest ending in an error). Its name keeps it out of pytest's
collection, which takes ``test_*.py``.
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
     "front = np.concatenate([~dominant, ~dominated])",
     "front = np.concatenate([~dominated, ~dominant])", RANKING_TESTS),
    ("front padding of zeros, not +inf", RANKING,
     "members[:, np.arange(width) >= sizes[:, None]] = np.inf",
     "members[:, np.arange(width) >= sizes[:, None]] = 0.0", RANKING_TESTS),
    ("front one member short", RANKING,
     "width = int(sizes.max())", "width = int(sizes.max()) - 1", RANKING_TESTS),
    ("fronts always walked", RANKING,
     "if 2 * int(front.sum(axis=1).max()) <= n:", "if True:", RANKING_TESTS),
    ("fronts never walked", RANKING,
     "if 2 * int(front.sum(axis=1).max()) <= n:", "if False:", RANKING_TESTS),
    ("each bit-plane row chunk one row short", RANKING,
     "rows = slice(r, r + step_rows)", "rows = slice(r, r + step_rows - 1)", RANKING_TESTS),
    ("rank prints one line fewer than --top-n", CLI,
     "head = slice(args.top_n)", "head = slice(args.top_n and args.top_n - 1)", CLI_TESTS),
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
