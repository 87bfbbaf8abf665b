"""Acceptance suite: one check per shipping criterion.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
PASS/FAIL lines. Criterion sizes (set counts, tolerances, time budgets)
are pinned here and are not tunable.
"""

import json
import time

import numpy as np
import pytest

import naive
from conftest import (
    GOLDEN_AR,
    GOLDEN_GD,
    GOLDEN_HYBRID_PR_AR,
    GOLDEN_KD1,
    GOLDEN_MR,
    GOLDEN_PG,
    GOLDEN_PR,
    GOLDEN_VECTORS,
    random_candidate_set,
)
from mcrank import (
    CandidateSet,
    ConfusionCounts,
    GroundTruth,
    MethodSpec,
    f1,
    method_scores,
    ndcg,
    rank_candidates,
)
from mcrank.cli import cli_main
from mcrank.io import load_report


def check(criterion: str, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {criterion} ({name}): {status}{suffix}")
    assert ok, f"criterion {criterion} ({name}) failed{suffix}"


def test_criterion_1_golden_pareto_scores(five_candidates):
    scores = method_scores(five_candidates, MethodSpec.pr()).tolist()
    ranked = rank_candidates(five_candidates, MethodSpec.pr())
    ok = (scores == GOLDEN_PR
          and ranked.item_ids[0] == "T1"
          and ranked.item_ids[-1] == "T3")
    check("1", "golden five-candidate pareto scores", ok, f"scores={scores}")


def test_criterion_2_kd_zero_reduces_to_pareto():
    rng = np.random.default_rng(20_001)
    mismatches = 0
    for _ in range(1000):
        c = random_candidate_set(rng, max_n=20, max_m=6)
        if rank_candidates(c, MethodSpec.kd(0.0)) != rank_candidates(c, MethodSpec.pr()):
            mismatches += 1
    check("2", "kd(0) produces identical lists to pr", mismatches == 0,
          f"{mismatches} mismatches in 1000 sets")


def test_criterion_3_oracle_equivalence():
    # the hand-derived fixtures must come out of the independent oracle
    # before they are trusted as expected values
    vectors = [v for _, v in GOLDEN_VECTORS]
    oracle_ok = (
        naive.pr_list(vectors) == GOLDEN_PR
        and naive.kd_list(vectors, 1.0) == GOLDEN_KD1
        and naive.ar_list(vectors) == GOLDEN_AR
        and naive.mr_list(vectors) == GOLDEN_MR
        and naive.gd_list(vectors) == GOLDEN_GD
        and naive.pg_list(vectors) == GOLDEN_PG
        and naive.hybrid_list(vectors, "pr", None, "ar")
        == pytest.approx(GOLDEN_HYBRID_PR_AR, abs=1e-12)
    )
    check("3", "oracle reproduces the derived fixtures", oracle_ok)

    rng = np.random.default_rng(30_001)
    checked = 0
    for _ in range(500):
        c = random_candidate_set(rng, max_n=15, max_m=5)
        vs = [tuple(row) for row in c.matrix]
        k = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
        exact = {
            "pr": naive.pr_list(vs),
            f"kd:{k:g}": naive.kd_list(vs, k),
        }
        real = {
            "ar": naive.ar_list(vs),
            "mr": naive.mr_list(vs),
            "gd": naive.gd_list(vs),
            "pg": naive.pg_list(vs),
        }
        for label, expected in exact.items():
            got = method_scores(c, MethodSpec.parse(label)).tolist()
            assert got == expected, (label, got, expected)
        for label, expected in real.items():
            got = method_scores(c, MethodSpec.parse(label)).tolist()
            assert got == pytest.approx(expected, abs=1e-12), label
        got = method_scores(c, MethodSpec.hybrid(MethodSpec.kd(k), MethodSpec.pg())).tolist()
        assert got == pytest.approx(
            naive.hybrid_list(vs, "kd", k, "pg"), abs=1e-12)
        checked += 1
    check("3", "library matches the naive oracle", checked == 500,
          f"{checked} random sets")


def test_criterion_4ab_hybrid_structure():
    rng = np.random.default_rng(40_001)
    order_violations = 0
    tie_violations = 0
    majors = [MethodSpec.pr(), MethodSpec.kd(0.5)]
    subs = [MethodSpec.ar(), MethodSpec.mr(), MethodSpec.gd(), MethodSpec.pg()]
    for _ in range(1000):
        c = random_candidate_set(rng, max_n=12, max_m=5)
        for major_spec in majors:
            major = method_scores(c, major_spec)
            for sub_spec in subs:
                sub = method_scores(c, sub_spec)
                hybrid = method_scores(c, MethodSpec.hybrid(major_spec, sub_spec))
                gt = major[:, None] > major[None, :]
                order_violations += int((gt & (hybrid[:, None] <= hybrid[None, :])).sum())
                tied = hybrid[:, None] == hybrid[None, :]
                joint = (major[:, None] == major[None, :]) & \
                    (sub[:, None] == sub[None, :])
                tie_violations += int((tied & ~joint).sum())
    check("4a", "hybrids preserve strict major order", order_violations == 0,
          f"{order_violations} violations")
    check("4b", "hybrid ties only where major and sub both tie",
          tie_violations == 0, f"{tie_violations} violations")


def _continuous_hybrid_tied_pairs(sub_spec: MethodSpec) -> int:
    tied = 0
    major = MethodSpec.kd(0.5)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(1.0, 5.0, size=(50, 4))
        c = CandidateSet(user_id="u",
                         item_ids=tuple(f"i{j:02d}" for j in range(50)),
                         matrix=matrix)
        h = method_scores(c, MethodSpec.hybrid(major, sub_spec))
        tied += int((h[:, None] == h[None, :]).sum() - 50) // 2
    return tied


def test_criterion_4c_gd_subsort_is_tie_free_on_continuous_data():
    tied = _continuous_hybrid_tied_pairs(MethodSpec.gd())
    check("4c", "gd-subsorted hybrid has zero tied pairs", tied == 0,
          f"{tied} tied pairs across 100 seeds")


def test_criterion_4c_ar_subsort_is_tie_free_on_continuous_data():
    # ar sums integer per-criterion positions, so different items can
    # collide on the sum even with continuous ratings; tied sums inside
    # one major-score class surface as hybrid ties
    tied = _continuous_hybrid_tied_pairs(MethodSpec.ar())
    check("4c", "ar-subsorted hybrid has zero tied pairs", tied == 0,
          f"{tied} tied pairs across 100 seeds")


def test_criterion_5_metric_golden_values():
    f1_value = f1(ConfusionCounts(tp=2, fp=3, fn=2))
    f1_ok = abs(f1_value - 4 / 9) <= 1e-12

    truth = GroundTruth(user_id="u", ratings={"a": 1.0, "b": 3.0, "c": 5.0})
    worst_first = ndcg(["a", "b", "c"], truth)
    ndcg_ok = abs(worst_first - 0.7134) <= 5e-4

    ideal_ok = ndcg(["c", "b", "a"], truth) == 1.0

    check("5", "f1 golden value", f1_ok, f"f1={f1_value!r}")
    check("5", "ndcg golden value", ndcg_ok, f"ndcg={worst_first!r}")
    check("5", "ideally ordered list scores exactly 1", ideal_ok)


def test_criterion_6_kd_monotone_in_k():
    rng = np.random.default_rng(60_001)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    violations = 0
    for _ in range(100):
        c = random_candidate_set(rng, max_n=15, max_m=5)
        rows = [method_scores(c, MethodSpec.kd(k)) for k in grid]
        for lo, hi in zip(rows, rows[1:]):
            violations += int((hi < lo).sum())
    check("6", "kd scores non-decreasing in k", violations == 0,
          f"{violations} violations in 100 sets")


def test_criterion_7_end_to_end_determinism_and_budget(tmp_path):
    data = tmp_path / "synth.csv"
    assert cli_main(["synth", "--users", "300", "--items", "80",
                     "--criteria", "4", "--density", "0.2",
                     "--seed", "7", "--out", str(data)]) == 0

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "methods": ["pr", "kd:0.5", "kd:0.5+pg", "kd:0.5+ar"],
        "folds": 5,
        "seed": 11,
        "n_values": [5, 10, 20, 40],
    }))

    outputs = []
    elapsed = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        started = time.perf_counter()
        assert cli_main(["evaluate", "--input", str(data), "--config",
                         str(config), "--out", str(out)]) == 0
        elapsed.append(time.perf_counter() - started)
        outputs.append((out.read_bytes(), out.with_suffix(".csv").read_bytes()))

    budget_ok = max(elapsed) < 120.0
    identical = outputs[0] == outputs[1]
    report = load_report(tmp_path / "report0.json")
    pr_cells = [c for c in report.cells if c.method == "pr"]
    pr_zero = pr_cells and all(c.improvement_f1 == 0.0 and c.improvement_ndcg == 0.0
                               for c in pr_cells)
    check("7", "evaluate finishes inside the budget", budget_ok,
          f"runs took {elapsed[0]:.1f}s and {elapsed[1]:.1f}s")
    check("7", "reruns are byte-identical", identical)
    check("7", "pr improvement cells are exactly zero", bool(pr_zero))


def test_criterion_8_pareto_scoring_scales():
    rng = np.random.default_rng(80_001)
    matrix = rng.integers(1, 6, size=(5000, 4)).astype(np.float64)
    c = CandidateSet(user_id="u",
                     item_ids=tuple(f"i{j:05d}" for j in range(5000)),
                     matrix=matrix)
    method_scores(CandidateSet(user_id="w", item_ids=("a", "b"),
                               matrix=np.ones((2, 4))), MethodSpec.pr())  # warm numpy up
    started = time.perf_counter()
    scores = method_scores(c, MethodSpec.pr())
    elapsed = time.perf_counter() - started
    check("8", "pareto scoring of 5000x4 under two seconds",
          elapsed < 2.0 and len(scores) == 5000, f"{elapsed:.2f}s")
