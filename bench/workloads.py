"""The three benchmark workloads: seeded inputs, untraced passes, quality.

Every workload is driven through the public entry points a user runs:
``cli_main`` for the ``evaluate`` and ``rank`` commands, with the
inputs written by the library's own writers (``synth_generate`` +
``save_dataset``) or by the seeded predicted-vector generator below.
"""

from __future__ import annotations

import contextlib
import io as textio
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mcrank import io, pipeline
from mcrank.cli import cli_main
from mcrank.metrics import GroundTruth, ndcg
from mcrank.predictor import predict_many

# Shared dataset of both evaluate workloads: the ROADMAP reference
# dataset, `synth --users 300 --items 80 --criteria 4 --density 0.2
# --seed 7`. The benchmark's --seed becomes the config's fold-split seed,
# so --seed 11 is the reference run itself. (A different synth seed per
# run would change the data's spread, and with it the held-out RMSE, by
# up to a quarter.)
SYNTH = {"users": 300, "items": 80, "n_criteria": 4, "density": 0.2, "seed": 7}

# The rank_large predicted-vector file: 16 users x 2,000 items x 4
# continuous criteria clamped to the 1-5 scale.
RANK_USERS, RANK_ITEMS, RANK_CRITERIA = 16, 2000, 4
RANK_METHODS = (
    ("pr", ["--method", "pr"]),
    ("kd:0.5+pg", ["--method", "kd", "--k", "0.5", "--sub", "pg"]),
    ("kd:0.5+ar", ["--method", "kd", "--k", "0.5", "--sub", "ar"]),
)
RANK_TOP_N = 10

# The method whose fold-averaged NDCG@10 is the quality metric.
QUALITY_METHOD, QUALITY_N = "kd:0.5+pg", 10


def metric_label(label: str) -> str:
    """A method label as it appears in a metric name (no ':' or '+')."""
    return label.replace(":", "_").replace("+", "-")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "evaluate" or "rank"
    description: dict
    config: dict = field(default_factory=dict)


WORKLOADS = {
    "reference": Workload(
        name="reference",
        kind="evaluate",
        config={"methods": ["pr", "kd:0.5", "kd:0.5+pg", "kd:0.5+ar"],
                "folds": 5, "n_values": [5, 10, 20, 40]},
        description={
            "inputs": "synth 300 users x 80 items x 4 criteria, density 0.2, "
                      "seed 7 (4,770 records); test_items protocol, 5 folds "
                      "split with the run's seed",
            "stresses": "predictor.fit (per-record SGD, about 90% of a pass)",
            "bypasses": "io.load_candidate_sets, cli.rank; ranking runs on "
                        "sets of about 3 candidates, so only per-call "
                        "overhead of the ranking kernels shows",
            "why": "the ROADMAP reference run (acceptance criterion 7); a "
                   "predictor swap shows here",
        },
    ),
    "unrated": Workload(
        name="unrated",
        kind="evaluate",
        config={"methods": ["pr", "kd:0.25", "kd:0.5", "kd:1", "ar", "mr",
                            "gd", "pg", "kd:0.5+pg", "kd:0.5+ar"],
                "folds": 5, "protocol": "all_unrated",
                "train": {"epochs": 1}},
        description={
            "inputs": "the reference dataset under the all_unrated protocol "
                      "(about 1,440 sets of about 67 candidates), 10 methods, "
                      "the default 8 list lengths, 1 training epoch",
            "stresses": "ranking.score, core.scored_list, ranking.top_n, "
                        "metrics.ndcg, metrics.f1",
            "bypasses": "io.load_candidate_sets, cli.rank; predictor.fit is "
                        "small",
            "why": "three k values expose per-k recomputation of the "
                   "dominance counts and the hybrids recompute their majors",
        },
    ),
    "rank_large": Workload(
        name="rank_large",
        kind="rank",
        description={
            "inputs": "predicted-vector CSV of 16 users x 2,000 items x 4 "
                      "continuous criteria clamped to [1, 5] (32,000 rows); "
                      "rank --predicted --top-n 10 with pr, kd:0.5+pg, "
                      "kd:0.5+ar",
            "stresses": "ranking.score at n = 2,000 (pairwise kernels, "
                        "compute and memory), io.load_candidate_sets, "
                        "cli.rank",
            "bypasses": "predictor, pipeline, metrics",
            "why": "the only workload on the candidate-file loader and on "
                   "large candidate sets",
        },
    ),
}


@dataclass
class Inputs:
    """What a workload's set-up wrote, plus what the checks need."""

    data: Path
    config: Path | None = None
    user_ids: list[str] = field(default_factory=list)
    item_ids: list[str] = field(default_factory=list)
    predicted: np.ndarray | None = None  # (users, items, M) as written
    truth: np.ndarray | None = None  # (users, items, M) before noise


def predicted_vectors(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (truth, predicted) criteria tensors for rank_large.

    Items share a latent quality with correlated criteria and users add
    a small per-criterion taste; the predicted vectors add noise to the
    truth, as an external predictor would. Clamping to the scale leaves
    exact ties at 1 and 5, as real predicted files have.
    """
    rng = np.random.default_rng([seed, 1])
    shape = (RANK_USERS, RANK_ITEMS, RANK_CRITERIA)
    quality = (rng.normal(0.0, 0.8, size=(RANK_ITEMS, RANK_CRITERIA))
               + rng.normal(0.0, 0.6, size=(RANK_ITEMS, 1)))
    taste = rng.normal(0.0, 0.4, size=(RANK_USERS, 1, RANK_CRITERIA))
    truth = np.clip(3.0 + quality[None, :, :] + taste, 1.0, 5.0)
    predicted = np.clip(truth + rng.normal(0.0, 0.5, size=shape), 1.0, 5.0)
    return truth, predicted


def setup(workload: Workload, workdir: Path, seed: int) -> Inputs:
    """Generate and write one workload's inputs from the seed."""
    if workload.kind == "evaluate":
        data = workdir / "dataset.csv"
        io.save_dataset(pipeline.synth_generate(**SYNTH), data)
        config = workdir / "config.json"
        config.write_text(json.dumps({**workload.config, "seed": seed}),
                          encoding="utf-8")
        return Inputs(data=data, config=config)
    truth, predicted = predicted_vectors(seed)
    users = [f"u{u + 1:02d}" for u in range(RANK_USERS)]
    items = [f"i{i + 1:04d}" for i in range(RANK_ITEMS)]
    data = workdir / "predicted.csv"
    io.save_predictions(
        data, [f"c{m + 1}" for m in range(RANK_CRITERIA)],
        ((user, item, predicted[u, i])
         for u, user in enumerate(users) for i, item in enumerate(items)))
    return Inputs(data=data, user_ids=users, item_ids=items,
                  predicted=predicted, truth=truth)


@dataclass
class Op:
    """One `evaluate` or `rank` call and what it produced."""

    label: str
    exit_code: int
    output: bytes = b""  # rank: stdout; evaluate: report JSON + CSV
    failures: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


def call_cli(argv: list[str], label: str) -> Op:
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    op = Op(label=label, exit_code=code, output=out.getvalue().encode())
    if code != 0:
        op.fail(f"{label}: exit code {code}: {err.getvalue().strip()}")
    return op


def report_bytes(report: Path) -> bytes:
    return report.read_bytes() + b"\0" + report.with_suffix(".csv").read_bytes()


def run_pass(workload: Workload, inputs: Inputs, workdir: Path) -> list[Op]:
    """One untraced pass: one evaluate call, or the three rank calls."""
    if workload.kind == "evaluate":
        # The report records the dataset path; relative paths keep its
        # bytes, and so its pinned digest, the same in every checkout.
        with contextlib.chdir(workdir):
            op = call_cli(["evaluate", "--input", inputs.data.name, "--config",
                           inputs.config.name, "--out", "report.json"], "evaluate")
        if op.exit_code == 0:
            op.output = report_bytes(workdir / "report.json")
        return [op]
    return [call_cli(["rank", "--input", str(inputs.data), "--predicted",
                      *flags, "--top-n", str(RANK_TOP_N)], label)
            for label, flags in RANK_METHODS]


@contextlib.contextmanager
def patched(owner, name: str, replacement):
    """``owner.name`` (a module global or a class attribute) replaced
    for the duration of the block."""
    original = vars(owner)[name]
    setattr(owner, name, staticmethod(replacement) if isinstance(owner, type)
            else replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextlib.contextmanager
def recording(owner, name: str, keep):
    """Wrap ``owner.name`` for the duration of the block.

    Yields a list that gets ``keep(result, *args)`` after each call. The
    wrapper only keeps what ``keep`` returns, so the timed pass does the
    same work.
    """
    kept: list = []
    real = getattr(owner, name)

    def recorder(*args, **kwargs):
        result = real(*args, **kwargs)
        kept.append(keep(result, *args))
        return result

    with patched(owner, name, recorder):
        yield kept


def pass_recorder(workload: Workload):
    """What a timed pass keeps for the quality metrics and counters.

    evaluate: (model, test fold, candidate-set sizes, users skipped) of
    each fold, from ``pipeline.build_candidates``. rank: the candidate
    sets each ``io.load_candidate_sets`` call returned.
    """
    if workload.kind == "evaluate":
        return recording(pipeline, "build_candidates",
                         lambda result, model, test, *_: (
                             model, test, [c.n for c in result[0].values()],
                             len(result[2])))
    return recording(io, "load_candidate_sets", lambda result, *_: result)


def heldout_rmse(fold_models) -> float:
    """Criteria RMSE of each fold's model on its test fold, fold-averaged."""
    per_fold = []
    for model, test, *_ in fold_models:
        squared, count = 0.0, 0
        for user, records in sorted(test.by_user().items()):
            predicted = predict_many(model, user, [r.item_id for r in records])
            truth = np.asarray([r.criteria for r in records])
            squared += float(((predicted - truth) ** 2).sum())
            count += truth.size
        per_fold.append(math.sqrt(squared / count))
    return sum(per_fold) / len(per_fold)


def report_ndcg_at_10(report_path: Path) -> float:
    return io.load_report(report_path).cell(QUALITY_METHOD, QUALITY_N).ndcg


def rank_quality(inputs: Inputs, loaded: dict, output: str) -> tuple[float, float]:
    """(criteria RMSE of the loaded vectors, mean NDCG@10) for rank_large.

    The RMSE compares the candidate sets ``io.load_candidate_sets``
    returned with the generator's true criteria, so a loader that drops
    or misreads values moves it. NDCG is taken against each user's true
    overall (the mean true criterion) with every candidate in the ideal
    pool, so it scores which ten items were picked as well as their
    order.
    """
    column = {item: i for i, item in enumerate(inputs.item_ids)}
    squared, count = 0.0, 0
    for u, user in enumerate(inputs.user_ids):
        c = loaded.get(user)
        if c is None:  # a missing user fails the output gate
            continue
        truth = inputs.truth[u, [column[i] for i in c.item_ids]]
        squared += float(((c.matrix - truth) ** 2).sum())
        count += truth.size
    rmse = math.sqrt(squared / count) if count else 0.0
    top: dict[str, list[str]] = {}
    for line in output.splitlines():
        user, item = line.split("\t")[:2]
        top.setdefault(user, []).append(item)
    overall = inputs.truth.mean(axis=2)
    values = []
    for u, user in enumerate(inputs.user_ids):
        truth = GroundTruth(user_id=user,
                            ratings=dict(zip(inputs.item_ids, overall[u].tolist())),
                            threshold=3.0)
        # a user missing from the output (a failed gate) scores 0
        listed = [i for i in top.get(user, []) if i in truth.universe]
        values.append(ndcg(listed, truth, ideal_pool=inputs.item_ids)
                      if listed else 0.0)
    return rmse, sum(values) / len(values)
