"""End-to-end experiment orchestration.

Splits a dataset into folds, trains the baseline predictor per fold,
builds per-user candidate sets, ranks them under every configured
method, and aggregates F1/NDCG at each list length with improvement
ratios over the plain Pareto-ranking baseline.

Everything is deterministic given (dataset, config): users are processed
in sorted order, folds by index, and all reductions happen in that fixed
order.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import CandidateSet, Dataset, MethodSpec, RatingRecord
from .errors import DomainError, SplitError
from .metrics import GroundTruth, dcg_gain, prefix_means
# unused here, but bench/traced.py patches these names in this module
from .metrics import confusion, f1, ndcg  # noqa: F401
from .predictor import PredictorModel, TrainConfig, fit, predict_many
from .ranking import _best_first, score_methods
# unused here, but bench/traced.py patches these names in this module
from .ranking import rank_candidates, top_n  # noqa: F401

BASELINE_LABEL = "pr"


class Protocol(enum.Enum):
    """How per-user candidate sets are built from a fold.

    TEST_ITEMS ranks exactly the items the user rated in the test fold.
    ALL_UNRATED ranks every item the user did not rate in training, with
    unrated items counting as non-relevant. The choice materially changes
    what the metrics measure, so it is echoed prominently in the report.
    """

    TEST_ITEMS = "test_items"
    ALL_UNRATED = "all_unrated"

    @classmethod
    def parse(cls, text: str) -> "Protocol":
        for p in cls:
            if p.value == text.strip().lower():
                return p
        raise DomainError(f"unknown candidate protocol {text!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple[MethodSpec, ...]
    folds: int = 5
    seed: int = 0
    n_values: tuple[int, ...] = (5, 10, 15, 20, 25, 30, 35, 40)
    relevance_threshold: float = 3.0
    protocol: Protocol = Protocol.TEST_ITEMS
    train: TrainConfig = TrainConfig()
    dataset_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if not self.methods:
            raise DomainError("at least one ranking method is required")
        if self.folds < 2:
            raise DomainError(f"fold count must be >= 2, got {self.folds}")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")
        if not self.n_values:
            raise DomainError("n_values must hold at least one top-N length")
        if any(n < 1 for n in self.n_values):
            raise DomainError("top-N values must be positive")
        if len(set(self.n_values)) != len(self.n_values):
            raise DomainError("top-N values must be distinct")
        if not math.isfinite(self.relevance_threshold):
            raise DomainError(
                f"relevance_threshold must be finite, got {self.relevance_threshold}")
        labels = [m.label for m in self.methods]
        if len(set(labels)) != len(labels):
            raise DomainError(f"duplicate ranking methods configured: {labels}")


@dataclass(frozen=True)
class ReportCell:
    """One (method, N, fold-or-average) measurement."""

    method: str
    k: float | None
    sub: str | None
    n: int
    fold: str  # "0".."F-1" or "avg"
    f1: float
    ndcg: float
    improvement_f1: float | None
    improvement_ndcg: float | None


@dataclass(frozen=True)
class MetricsReport:
    metadata: dict
    cells: tuple[ReportCell, ...]

    def cell(self, method: str, n: int, fold: str = "avg") -> ReportCell:
        for c in self.cells:
            if c.method == method and c.n == n and c.fold == fold:
                return c
        raise KeyError(f"no cell for method={method!r} n={n} fold={fold!r}")


def kfold_split(dataset: Dataset, folds: int, seed: int) -> list[tuple[Dataset, Dataset]]:
    """Seeded uniform partition into (train, test) pairs.

    Test parts are pairwise disjoint, cover the dataset, and differ in
    size by at most one record. Records keep their original dataset
    order within each part.
    """
    if folds < 2:
        raise DomainError(f"fold count must be >= 2, got {folds}")
    n = len(dataset.records)
    if n < folds:
        raise SplitError(f"{n} records cannot fill {folds} folds")
    perm = np.random.default_rng(seed).permutation(n)
    parts = np.array_split(perm, folds)
    pairs = []
    for f in range(folds):
        test_idx = set(parts[f].tolist())
        test = tuple(r for i, r in enumerate(dataset.records) if i in test_idx)
        train = tuple(r for i, r in enumerate(dataset.records) if i not in test_idx)
        pairs.append((replace(dataset, records=train), replace(dataset, records=test)))
    return pairs


def build_candidates(
    model: PredictorModel,
    test: Dataset,
    protocol: Protocol = Protocol.TEST_ITEMS,
    *,
    train: Dataset | None = None,
    threshold: float = 3.0,
) -> tuple[dict[str, CandidateSet], dict[str, GroundTruth], list[str]]:
    """Per-user candidate sets with predicted vectors, plus ground truth.

    Returns (candidates, truths, skipped_user_ids). Only users with at
    least one test record are evaluated; a user whose candidate pool
    comes up empty is skipped and reported.
    """
    if protocol is Protocol.ALL_UNRATED and train is None:
        raise DomainError("all_unrated protocol needs the training fold")

    test_by_user: dict[str, dict[str, float]] = {}
    for r in test.records:
        test_by_user.setdefault(r.user_id, {})[r.item_id] = r.overall

    if protocol is Protocol.ALL_UNRATED:
        universe = sorted({r.item_id for r in train.records}
                          | {r.item_id for r in test.records})
        rated_in_train: dict[str, set[str]] = {}
        for r in train.records:
            rated_in_train.setdefault(r.user_id, set()).add(r.item_id)

    candidates: dict[str, CandidateSet] = {}
    truths: dict[str, GroundTruth] = {}
    skipped: list[str] = []
    for user in sorted(test_by_user):
        overalls = test_by_user[user]
        if protocol is Protocol.TEST_ITEMS:
            items = sorted(overalls)
        else:
            items = [t for t in universe if t not in rated_in_train.get(user, ())]
        if not items:
            skipped.append(user)
            continue
        matrix = predict_many(model, user, items)
        candidates[user] = CandidateSet(user_id=user, item_ids=tuple(items),
                                        matrix=matrix)
        truths[user] = GroundTruth(user_id=user, ratings=overalls,
                                   threshold=threshold,
                                   universe=frozenset(items))
    return candidates, truths, skipped


def _cell_identity(spec: MethodSpec) -> tuple[str, float | None, str | None]:
    if spec.kind == "hybrid":
        return spec.label, spec.major.k, spec.sub.kind
    return spec.label, spec.k, None


def _ratio(value: float, base: float) -> float | None:
    """(value - base) / base; exact 0 at parity, undefined on a zero base."""
    if base == 0.0:
        return 0.0 if value == base else None
    return (value - base) / base


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "methods": [m.label for m in cfg.methods],
        "folds": cfg.folds,
        "seed": cfg.seed,
        "n_values": list(cfg.n_values),
        "relevance_threshold": cfg.relevance_threshold,
        "protocol": cfg.protocol.value,
        "train": {
            "latent_dim": cfg.train.latent_dim,
            "learning_rate": cfg.train.learning_rate,
            "reg": cfg.train.reg,
            "epochs": cfg.train.epochs,
            "seed": cfg.train.seed,
        },
        "dataset_path": cfg.dataset_path,
    }


def run_experiment(dataset: Dataset, cfg: ExperimentConfig) -> MetricsReport:
    """Cross-validated top-N evaluation of every configured method.

    The Pareto-ranking baseline is always evaluated (prepended when not
    configured) because improvement ratios are measured against it.
    Per-fold cells compare within the fold; "avg" cells compare the
    fold-averaged values.
    """
    methods = list(cfg.methods)
    if BASELINE_LABEL not in (m.label for m in methods):
        methods.insert(0, MethodSpec.pr())

    splits = kfold_split(dataset, cfg.folds, cfg.seed)
    kinds = [spec.kind for spec in methods]
    n_values = list(cfg.n_values)
    max_n = max(n_values)  # no list is read past max_n
    # (label, n, fold or "avg") -> (mean f1, mean ndcg) over users
    measured: dict[tuple[str, int, int | str], tuple[float, float]] = {}
    users_evaluated: list[int] = []
    users_skipped: list[int] = []

    for fold, (train_d, test_d) in enumerate(splits):
        fold_cfg = replace(cfg.train, seed=cfg.train.seed + fold)
        model = fit(train_d, fold_cfg)
        cands, truths, skipped = build_candidates(
            model, test_d, cfg.protocol, train=train_d,
            threshold=cfg.relevance_threshold)
        users = sorted(cands)
        users_evaluated.append(len(users))
        users_skipped.append(len(skipped))

        lengths = np.array([min(cands[u].n, max_n) for u in users], dtype=np.int64)
        n_relevant = np.empty(len(users), dtype=np.int64)
        # Per method, each user's ranked list as slots of the user's rated
        # items; slot 0 is any other candidate and the padding past the list.
        # Only a rated candidate can have a nonzero gain or be relevant (any
        # other rates 0, and dcg_gain(0.0) is 0.0), and small-int slots keep
        # the per-fold array far smaller than float64 gains would.
        n_rated = max((len(truths[u].ratings) for u in users), default=0)
        slot_gain = np.zeros((len(users), n_rated + 1))
        slot_hit = np.zeros(slot_gain.shape, dtype=bool)
        slots = np.zeros((len(methods), len(users), int(lengths.max(initial=0))),
                         dtype=np.min_scalar_type(n_rated))
        for row, user in enumerate(users):
            c, truth = cands[user], truths[user]
            order, _ = _best_first(score_methods(c, methods), kinds, c.item_ids)
            position = {item: j for j, item in enumerate(c.item_ids)}
            slot = np.zeros(c.n, dtype=slots.dtype)
            relevant = truth.relevant
            n_relevant[row] = len(relevant)
            for s, (item, rating) in enumerate(truth.ratings.items(), 1):
                if item in position:
                    slot[position[item]] = s
                slot_gain[row, s] = dcg_gain(rating)
                slot_hit[row, s] = item in relevant
            top = order[:, :max_n]
            slots[:, row, :top.shape[1]] = slot[top]

        for spec, ranked in zip(methods, slots):
            means = prefix_means(np.take_along_axis(slot_gain, ranked, axis=1),
                                 np.take_along_axis(slot_hit, ranked, axis=1),
                                 lengths, n_relevant, n_values)
            for n, mean in zip(n_values, means):
                measured[(spec.label, n, fold)] = mean

    folds = cfg.folds
    for spec in methods:
        for n in n_values:
            vals = [measured[(spec.label, n, f)] for f in range(folds)]
            measured[(spec.label, n, "avg")] = (
                sum(v[0] for v in vals) / folds,
                sum(v[1] for v in vals) / folds,
            )

    cells: list[ReportCell] = []
    for spec in methods:
        label, k, sub = _cell_identity(spec)
        for n in n_values:
            for fold in [*range(folds), "avg"]:
                f1v, ndv = measured[(label, n, fold)]
                bf1, bnd = measured[(BASELINE_LABEL, n, fold)]
                cells.append(ReportCell(
                    method=label, k=k, sub=sub, n=n, fold=str(fold),
                    f1=f1v, ndcg=ndv,
                    improvement_f1=_ratio(f1v, bf1),
                    improvement_ndcg=_ratio(ndv, bnd)))

    cfg_dict = config_to_dict(cfg)
    config_hash = hashlib.sha256(
        json.dumps(cfg_dict, sort_keys=True).encode()).hexdigest()
    metadata = {
        "format": "mcrank-report",
        "version": 1,
        "config": cfg_dict,
        "config_hash": config_hash,
        "baseline": BASELINE_LABEL,
        "methods": [m.label for m in methods],
        "candidate_protocol": cfg.protocol.value,
        "protocol_note": (
            "test_items ranks each user's own test-fold items; all_unrated "
            "ranks every item unseen in the user's training data, counting "
            "unrated items as non-relevant"),
        "dataset": {
            "path": cfg.dataset_path,
            "users": len(dataset.users()),
            "items": len(dataset.items()),
            "records": len(dataset.records),
            "criteria": list(dataset.criteria_names),
            "scale": [dataset.scale_min, dataset.scale_max],
        },
        "users_evaluated": users_evaluated,
        "users_skipped": users_skipped,
    }
    return MetricsReport(metadata=metadata, cells=tuple(cells))


def sweep_k(dataset: Dataset, k_values, cfg: ExperimentConfig) -> MetricsReport:
    """Evaluate a KD(k) variant per requested k, same protocol as run_experiment.

    ``MethodSpec.kd`` rejects a k outside [0, 1]; ``ExperimentConfig``
    rejects an empty or duplicated k list.
    """
    swept = replace(cfg, methods=tuple(MethodSpec.kd(k) for k in k_values))
    return run_experiment(dataset, swept)


def synth_generate(users: int, items: int, n_criteria: int,
                   density: float, seed: int) -> Dataset:
    """Seeded synthetic multi-criteria dataset on the 1-5 scale.

    Shared latent user/item factors with per-criterion emphasis vectors
    induce correlated criteria ratings; the overall rating is the rounded
    criteria mean plus noise. Each (user, item) pair is kept with
    probability ``density``, so the expected record count is
    density * users * items and density 1 yields the full matrix.
    """
    if users < 1 or items < 1 or n_criteria < 1:
        raise DomainError("users, items and criteria counts must be positive")
    if not 0.0 < density <= 1.0:
        raise DomainError(f"density must lie in (0, 1], got {density}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    d = 6
    u_fac = rng.normal(0.0, 1.0, size=(users, d))
    i_fac = rng.normal(0.0, 1.0, size=(items, d))
    c_fac = rng.normal(0.0, 1.0, size=(n_criteria, d))
    affinity = np.einsum("ud,id,cd->uic", u_fac, i_fac, c_fac) / np.sqrt(d)
    ratings = np.clip(np.rint(3.0 + affinity), 1.0, 5.0)
    noise = rng.normal(0.0, 0.3, size=(users, items))
    overall = np.clip(np.rint(ratings.mean(axis=2) + noise), 1.0, 5.0)
    keep = rng.random(size=(users, items)) < density

    uw = len(str(users))
    iw = len(str(items))
    user_ids = [f"u{n + 1:0{uw}d}" for n in range(users)]
    item_ids = [f"i{n + 1:0{iw}d}" for n in range(items)]
    records = [
        RatingRecord(user_id=user_ids[u], item_id=item_ids[i],
                     overall=float(overall[u, i]),
                     criteria=tuple(ratings[u, i]))
        for u in range(users) for i in range(items) if keep[u, i]
    ]
    names = tuple(f"c{m + 1}" for m in range(n_criteria))
    return Dataset(criteria_names=names, records=tuple(records),
                   scale_min=1.0, scale_max=5.0)
