"""End-to-end experiment orchestration.

Splits a dataset into folds, trains every fold's baseline predictor in
one ``fit_folds`` call, builds per-user candidate sets, ranks them under
every configured method, and aggregates F1/NDCG at each list length with
improvement ratios over the plain Pareto-ranking baseline.

Everything is deterministic given (dataset, config): users are processed
in sorted order, folds by index, and all reductions happen in that fixed
order.
"""

from __future__ import annotations

import enum
import hashlib
import json
from bisect import bisect_left
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import (MAX_FLOATS, SCALE, CandidateSet, Dataset, MethodSpec, RatingRecord,
                   check_config_fields, checked_number)
from .errors import DomainError, SplitError
from .metrics import RELEVANCE_THRESHOLD, GroundTruth, dcg_gain, prefix_means
from .predictor import PredictorModel, TrainConfig, fit_folds, predict_many
from .ranking import ranked_slices
# unused here, but bench/traced.py patches these names in this module
from .metrics import confusion, f1, ndcg  # noqa: F401
from .predictor import fit  # noqa: F401
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
    relevance_threshold: float = RELEVANCE_THRESHOLD
    protocol: Protocol = Protocol.TEST_ITEMS
    train: TrainConfig = TrainConfig()
    dataset_path: str | None = None

    def __post_init__(self):
        check_config_fields(self)
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "n_values",
                           tuple(checked_number("n_values", n) for n in self.n_values))
        if not self.methods:
            raise DomainError("at least one ranking method is required")
        if self.folds < 2:
            raise DomainError(f"folds must be >= 2, got {self.folds}")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")
        if not self.n_values:
            raise DomainError("n_values must hold at least one top-N length")
        if any(n < 1 for n in self.n_values):
            raise DomainError(f"n_values must be positive, got {list(self.n_values)}")
        if len(set(self.n_values)) != len(self.n_values):
            raise DomainError(f"n_values must be distinct, got {list(self.n_values)}")
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
    if checked_number("folds", folds) < 2:
        raise DomainError(f"folds must be >= 2, got {folds}")
    if checked_number("seed", seed) < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    n = len(dataset.records)
    if n < folds:
        raise SplitError(f"{n} records cannot fill {folds} folds")
    perm = np.random.default_rng(seed).permutation(n)
    pairs = []
    for part in np.array_split(perm, folds):
        test_idx = set(part.tolist())
        test = tuple(r for i, r in enumerate(dataset.records) if i in test_idx)
        train = tuple(r for i, r in enumerate(dataset.records) if i not in test_idx)
        pairs.append((replace(dataset, records=train), replace(dataset, records=test)))
    return pairs


def _candidate_pools(test: Dataset, protocol: Protocol, train: Dataset | None):
    """Yield (user, {rated test item: overall}, items to rank) in user order.

    Every user with a test record gets a pool, which may be empty: the
    user's test items (TEST_ITEMS), or every item of either fold that
    the user did not rate in ``train`` (ALL_UNRATED), in id order.
    """
    tests = test.by_user()
    if protocol is Protocol.ALL_UNRATED:
        if train is None:
            raise DomainError("all_unrated protocol needs the training fold")
        universe = sorted({*train.items(), *test.items()})
        trains = train.by_user()
    for user in sorted(tests):
        overalls = {r.item_id: r.overall for r in tests[user]}
        if protocol is Protocol.TEST_ITEMS:
            yield user, overalls, sorted(overalls)
        else:
            rated = {r.item_id for r in trains.get(user, ())}
            yield user, overalls, [t for t in universe if t not in rated]


def build_candidates(
    model: PredictorModel,
    test: Dataset,
    protocol: Protocol = Protocol.TEST_ITEMS,
    *,
    train: Dataset | None = None,
    threshold: float = RELEVANCE_THRESHOLD,
) -> tuple[dict[str, CandidateSet], dict[str, GroundTruth], list[str]]:
    """Per-user candidate sets with predicted vectors, plus ground truth.

    Returns (candidates, truths, skipped_user_ids). Only users with at
    least one test record are evaluated; a user whose candidate pool
    comes up empty is skipped and reported.
    """
    candidates: dict[str, CandidateSet] = {}
    truths: dict[str, GroundTruth] = {}
    skipped: list[str] = []
    for user, overalls, items in _candidate_pools(test, protocol, train):
        if not items:
            skipped.append(user)
            continue
        candidates[user] = CandidateSet(user_id=user, item_ids=tuple(items),
                                        matrix=predict_many(model, user, items))
        truths[user] = GroundTruth(user_id=user, ratings=overalls, threshold=threshold,
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
    return {**asdict(cfg), "methods": [m.label for m in cfg.methods],
            "n_values": list(cfg.n_values), "protocol": cfg.protocol.value}


def run_experiment(dataset: Dataset, cfg: ExperimentConfig) -> MetricsReport:
    """Cross-validated top-N evaluation of every configured method.

    The Pareto-ranking baseline is always evaluated (prepended when not
    configured) because improvement ratios are measured against it.
    Per-fold cells compare within the fold; "avg" cells compare the
    fold-averaged values.
    """
    methods = list(cfg.methods)
    if BASELINE_LABEL not in (m.label for m in methods):
        methods.insert(0, MethodSpec(BASELINE_LABEL))

    n_values = list(cfg.n_values)
    folds = cfg.folds
    splits = kfold_split(dataset, folds, cfg.seed)  # refuses folds past the records
    # (method, N, fold, f1 | ndcg) mean over users; fold slot `folds` is the average
    means = np.zeros((len(methods), len(n_values), folds + 1, 2))
    users_evaluated: list[int] = []
    users_skipped: list[int] = []
    models = fit_folds([train_d for train_d, _ in splits], cfg.train)  # fold f: seed + f

    for fold, (train_d, test_d) in enumerate(splits):
        # each model is dropped once its fold's candidates are built
        cands, truths, skipped = build_candidates(
            models.pop(0), test_d, cfg.protocol, train=train_d,
            threshold=cfg.relevance_threshold)
        users = sorted(cands)
        users_evaluated.append(len(users))
        users_skipped.append(len(skipped))

        sizes = np.array([cands[u].n for u in users], dtype=np.int64)
        largest = int(sizes.max(initial=0))
        # no list is read past max(N), cut in Python as an N may pass int64
        lengths = np.minimum(sizes, min(max(n_values), largest))
        n_relevant = np.array([len(truths[u].relevant) for u in users], dtype=np.int64)
        # Candidate table: user u's candidates in id order, as gain and relevance,
        # which only rated test items in the pool have; one more column stays 0.
        gain = np.zeros((len(users), largest + 1))
        hit = np.zeros(gain.shape, dtype=bool)
        for u, user in enumerate(users):
            ids, truth = cands[user].item_ids, truths[user]
            for item, rating in truth.ratings.items():
                i = bisect_left(ids, item)
                if i < len(ids) and ids[i] == item:
                    gain[u, i] = dcg_gain(rating)
                    hit[u, i] = rating >= truth.threshold
        # Order table: user u's list under method j as candidate columns, best
        # first and cut at max(N); the -1 past a shorter list reads that 0 column.
        order = np.full((len(users), len(methods), int(lengths.max(initial=0))), -1)
        for rows, ranked, _ in ranked_slices([cands[u] for u in users], methods):
            order[rows, :, :ranked.shape[2]] = ranked[..., :order.shape[2]]

        for j in range(len(methods)):
            gains, hits = (np.take_along_axis(t, order[:, j], axis=1) for t in (gain, hit))
            means[j, :, fold] = prefix_means(gains, hits, lengths, n_relevant, n_values)

    # np.cumsum adds the folds left to right, as prefix_means adds the users
    means[:, :, folds] = np.cumsum(means[:, :, :folds], axis=2)[:, :, -1] / folds
    base = means[[m.label for m in methods].index(BASELINE_LABEL)].tolist()
    fold_names = [*map(str, range(folds)), "avg"]
    cells: list[ReportCell] = []
    for spec, rows in zip(methods, means.tolist()):
        label, k, sub = _cell_identity(spec)
        for n, row, base_row in zip(n_values, rows, base):
            for fold, (f1v, ndv), (bf1, bnd) in zip(fold_names, row, base_row):
                cells.append(ReportCell(
                    method=label, k=k, sub=sub, n=n, fold=fold,
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
            "scale": list(SCALE),
        },
        "users_evaluated": users_evaluated,
        "users_skipped": users_skipped,
    }
    return MetricsReport(metadata=metadata, cells=tuple(cells))


def synth_generate(users: int, items: int, n_criteria: int,
                   density: float, seed: int) -> Dataset:
    """Seeded synthetic multi-criteria dataset on ``SCALE``.

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
    d = 6  # factor width; the largest array is (users, items, criteria) or (count, d)
    values = max(users * items * n_criteria, d * max(users, items, n_criteria))
    wanted = f"synth {users} x {items} x {n_criteria} needs an array of {values} values"
    if values > MAX_FLOATS:
        raise DomainError(f"{wanted}, past numpy's limit of {MAX_FLOATS}")
    rng = np.random.default_rng(seed)
    try:
        u_fac = rng.normal(0.0, 1.0, size=(users, d))
        i_fac = rng.normal(0.0, 1.0, size=(items, d))
        c_fac = rng.normal(0.0, 1.0, size=(n_criteria, d))
        affinity = np.einsum("ud,id,cd->uic", u_fac, i_fac, c_fac) / np.sqrt(d)
        ratings = np.clip(np.rint(3.0 + affinity), *SCALE)
        noise = rng.normal(0.0, 0.3, size=(users, items))
        overall = np.clip(np.rint(ratings.mean(axis=2) + noise), *SCALE)
        keep = rng.random(size=(users, items)) < density
    except MemoryError as exc:
        raise DomainError(f"{wanted}, more than fits in memory") from exc

    uw = len(str(users))
    iw = len(str(items))
    user_ids = [f"u{n + 1:0{uw}d}" for n in range(users)]
    item_ids = [f"i{n + 1:0{iw}d}" for n in range(items)]
    records = [
        RatingRecord(user_id=user_ids[u], item_id=item_ids[i],
                     overall=float(overall[u, i]),
                     criteria=tuple(ratings[u, i]))
        for u, i in zip(*keep.nonzero())
    ]
    names = tuple(f"c{m + 1}" for m in range(n_criteria))
    return Dataset(criteria_names=names, records=tuple(records))
