"""Correctness gates and deterministic counters. Nothing here is timed.

The rank_large outputs are checked against scores recomputed here from
the generated vectors, written independently of ``mcrank.ranking`` but
with the same arithmetic (so continuous scores must match bit for bit).
Every workload's outputs are checked against the digests pinned in
``pinned.json`` for the seeds listed there (``pin.py`` writes them).
The evaluate workloads' kernels are checked against the brute-force
oracle in ``tests/naive.py`` on a seeded sample of candidate sets.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from mcrank import MethodSpec, io, method_scores

PINNED = Path(__file__).with_name("pinned.json")

# Floating-point scores summed in another order may differ in the last
# digits; integer-valued ones (pr, kd) must match exactly.
ORACLE_REL_TOL = 1e-9


def tied_pairs(scores) -> int:
    """Unordered candidate pairs that share a final score."""
    _, counts = np.unique(np.asarray(scores, dtype=np.float64), return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def _average_ranks(values: np.ndarray, *, descending: bool) -> np.ndarray:
    """1-based positions; a group of equal values shares its mean position."""
    v = -values if descending else values
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(v)]
    ranks = np.empty(len(v))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def reference_scores(x: np.ndarray, label: str) -> np.ndarray:
    """Scores of one candidate matrix under pr, kd:K[+ar|+pg], from scratch."""
    n, m = x.shape
    major, _, sub = label.partition("+")
    better = np.zeros((n, n), dtype=np.int8)
    equal = np.zeros((n, n), dtype=np.int8)
    for j in range(m):
        a, b = x[:, j][:, None], x[:, j][None, :]
        better += a > b
        equal += a == b
    if major == "pr":
        wins = (better + equal == m) & (better > 0)
    else:
        k = float(major.partition(":")[2])
        wins = (equal < m) & (better * (k + 1.0) >= m - equal)
    scores = wins.sum(axis=1).astype(np.float64)
    if not sub:
        return scores
    if sub == "pg":
        gains = np.zeros((n, n))
        for j in range(m):
            diff = x[:, j][:, None] - x[:, j][None, :]
            np.maximum(diff, 0.0, out=diff)
            gains += diff
        np.fill_diagonal(gains, -np.inf)
        rho = _average_ranks(gains.max(axis=1) - gains.max(axis=0), descending=True)
    elif sub == "ar":
        total = np.zeros(n)
        for j in range(m):
            total += _average_ranks(x[:, j], descending=True)
        rho = _average_ranks(total, descending=False)
    else:
        raise ValueError(f"no reference for subsort {sub!r}")
    return scores + (n - rho) / n


def expected_rank_output(inputs, label: str, top: int) -> tuple[str, int]:
    """The `rank --top-n` text for one method, and its residual tied pairs."""
    lines, tied = [], 0
    for u, user in enumerate(inputs.user_ids):
        scores = reference_scores(inputs.predicted[u], label)
        tied += tied_pairs(scores)
        # best score first, ties by ascending item id (= generation order)
        order = np.lexsort((np.arange(len(scores)), -scores))[:top]
        lines += [f"{user}\t{inputs.item_ids[i]}\t{float(scores[i])}" for i in order]
    return "".join(line + "\n" for line in lines), tied


def pinned_digest(workload: str, seed: int) -> str | None:
    return json.loads(PINNED.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(out)
        h.update(b"\0")
    return h.hexdigest()


def report_failures(report_path: Path) -> list[str]:
    """The `pr` baseline must show exactly zero improvement over itself."""
    report = io.load_report(report_path)
    pr_cells = [c for c in report.cells if c.method == "pr"]
    if not pr_cells:
        return ["report has no pr cells"]
    return [f"pr cell n={c.n} fold={c.fold} improvement "
            f"({c.improvement_f1!r}, {c.improvement_ndcg!r}) is not 0"
            for c in pr_cells
            if c.improvement_f1 != 0.0 or c.improvement_ndcg != 0.0]


def load_naive(root: Path):
    path = root / "tests" / "naive.py"
    spec = importlib.util.spec_from_file_location("naive", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _naive_scores(naive, vectors, spec: MethodSpec) -> list[float]:
    if spec.kind == "pr":
        return naive.pr_list(vectors)
    if spec.kind == "kd":
        return naive.kd_list(vectors, spec.k)
    if spec.kind == "hybrid":
        return naive.hybrid_list(vectors, spec.major.kind, spec.major.k, spec.sub.kind)
    return naive.SUB_FNS[spec.kind](vectors)


def oracle_failures(naive, candidate_sets, labels) -> list[str]:
    """Library scores that disagree with the brute-force oracle."""
    failures = []
    for c in candidate_sets:
        vectors = [tuple(row) for row in c.matrix.tolist()]
        for label in labels:
            spec = MethodSpec.parse(label)
            got = method_scores(c, spec).tolist()
            want = _naive_scores(naive, vectors, spec)
            if spec.kind in ("pr", "kd"):
                ok = got == want
            else:
                ok = len(got) == len(want) and all(
                    abs(g - w) <= ORACLE_REL_TOL * max(1.0, abs(w))
                    for g, w in zip(got, want))
            if not ok:
                failures.append(f"oracle mismatch: {label} on user {c.user_id} "
                                f"(n={c.n})")
    return failures
