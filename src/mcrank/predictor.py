"""Baseline multi-criteria rating predictor.

One independent biased matrix-factorization model per criterion, trained
with plain SGD. The ranking layer only needs criteria vectors, so any
external predictor can substitute for this one; this baseline exists so
the pipeline runs end to end with no heavyweight dependencies and fully
deterministic output.

Training is level-scheduled: within an epoch, two SGD steps on disjoint
user rows and disjoint item rows commute, so each epoch's shuffled
sequence is cut into dependency levels and every level, for all criteria
at once, runs as one vectorised update (the conflict-free ordering of
Gemulla et al. 2011, "Large-scale Matrix Factorization with Distributed
Stochastic Gradient Descent"). The parameters are bitwise equal to those
of visiting the records one at a time; ``tests/naive.py`` holds that
sequential loop as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MAX_FLOATS, SCALE, Dataset, check_config_fields
from .errors import DomainError, TrainingError


@dataclass(frozen=True)
class TrainConfig:
    latent_dim: int = 16
    learning_rate: float = 0.005
    reg: float = 0.02
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        check_config_fields(self, "train.")
        if self.latent_dim < 1:
            raise DomainError(f"train.latent_dim must be >= 1, got {self.latent_dim}")
        if self.learning_rate <= 0:
            raise DomainError(f"train.learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise DomainError(f"train.epochs must be >= 1, got {self.epochs}")
        if self.reg < 0:
            raise DomainError(f"train.reg must be non-negative, got {self.reg}")
        if self.seed < 0:
            raise DomainError(f"train.seed must be non-negative, got {self.seed}")


@dataclass(frozen=True, eq=False)
class PredictorModel:
    """Per-criterion factor model parameters.

    Arrays are stacked along the criterion axis: biases are (M, U) and
    (M, I), factors are (M, U, d) and (M, I, d). ``loss_history`` holds
    the training MSE per criterion, entry 0 being the pre-training loss.
    Each table is kept with a zero row appended for ids unseen in training
    (index -1); the field is a view that leaves that row out.
    """

    criteria_names: tuple[str, ...]
    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    latent_dim: int
    global_means: np.ndarray = field(repr=False)
    user_biases: np.ndarray = field(repr=False)
    item_biases: np.ndarray = field(repr=False)
    user_factors: np.ndarray = field(repr=False)
    item_factors: np.ndarray = field(repr=False)
    loss_history: tuple[tuple[float, ...], ...] = field(repr=False, default=())

    def __post_init__(self):
        object.__setattr__(self, "_user_index",
                           {u: i for i, u in enumerate(self.user_ids)})
        object.__setattr__(self, "_item_index",
                           {t: i for i, t in enumerate(self.item_ids)})
        padded = []
        for name in ("user_biases", "item_biases", "user_factors", "item_factors"):
            a = getattr(self, name)  # np.zeros: zeros_like(a[:, :1]) is empty if a is
            padded.append(np.concatenate([a, np.zeros((a.shape[0], 1, *a.shape[2:]))], axis=1))
            object.__setattr__(self, name, padded[-1][:, :-1])
        object.__setattr__(self, "_padded", tuple(padded))

    @property
    def n_criteria(self) -> int:
        return len(self.criteria_names)


# A diverging run reports one TrainingError, not numpy's overflow warnings.
@np.errstate(over="ignore", invalid="ignore")
def fit(train: Dataset, cfg: TrainConfig) -> PredictorModel:
    """Train one biased-MF model per criterion with seeded SGD.

    Records are visited in a seeded shuffle each epoch; each criterion
    draws from its own seed stream so criteria stay fully independent.
    The result is bitwise equal to stepping through each criterion's
    shuffle one record at a time: each epoch is cut into dependency
    levels (see ``_levels``) and every level, for all criteria at once,
    is applied as one gather, update and scatter over flat parameter
    tables. Records on one level share no user row and no item row, and
    each row still receives its updates in shuffled order, with the same
    floating-point operations in the same order. A run whose loss goes
    non-finite raises TrainingError at the end of that epoch.
    """
    if not train.records:
        raise TrainingError("cannot train on an empty dataset")
    users = sorted({r.user_id for r in train.records})
    items = sorted({r.item_id for r in train.records})
    u_index = {u: i for i, u in enumerate(users)}
    i_index = {t: i for i, t in enumerate(items)}
    n_u, n_i, m = len(users), len(items), train.n_criteria
    d = cfg.latent_dim
    wanted = f"train.latent_dim {d} needs a {(m, max(n_u, n_i), d)} factor table"
    if m * max(n_u, n_i) * d > MAX_FLOATS:
        raise TrainingError(f"{wanted}, past numpy's limit of {MAX_FLOATS} values")

    u_idx = np.fromiter((u_index[r.user_id] for r in train.records), dtype=np.int32)
    i_idx = np.fromiter((i_index[r.item_id] for r in train.records), dtype=np.int32)
    ratings = np.asarray([r.criteria for r in train.records], dtype=np.float64)
    n_rec = len(train.records)

    # Entry e = c * n_rec + t is record t under criterion c. Criterion c
    # owns rows c*n_u.. of the user tables and c*n_i.. of the item tables.
    crit = np.arange(m, dtype=np.int32)[:, None]
    e_user = (crit * n_u + u_idx).ravel()
    e_item = (crit * n_i + i_idx).ravel()
    e_rating = np.ascontiguousarray(ratings.T).ravel()
    del crit, u_idx, i_idx, ratings
    global_means = np.array([float(e_rating[c * n_rec:(c + 1) * n_rec].mean())
                             for c in range(m)])
    e_mean = np.repeat(global_means, n_rec)

    rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, c]))
            for c in range(m)]
    try:  # each criterion's stream draws its user factors, then its item factors
        user_factors = np.stack([rng.normal(0.0, 0.05, size=(n_u, d)) for rng in rngs])
        item_factors = np.stack([rng.normal(0.0, 0.05, size=(n_i, d)) for rng in rngs])
    except MemoryError as exc:
        raise TrainingError(f"{wanted}, more than fits in memory") from exc
    user_biases = np.zeros((m, n_u))
    item_biases = np.zeros((m, n_i))
    p = user_factors.reshape(m * n_u, d)
    q = item_factors.reshape(m * n_i, d)
    bu = user_biases.reshape(m * n_u)
    bi = item_biases.reshape(m * n_i)

    def mse() -> list[float]:
        # One criterion at a time keeps the gathered (n_rec, d) copies small.
        out = []
        for c in range(m):
            cut = slice(c * n_rec, (c + 1) * n_rec)
            u, i = e_user[cut], e_item[cut]
            pred = e_mean[cut] + bu[u] + bi[i] + np.einsum("nd,nd->n", p[u], q[i])
            out.append(float(np.mean((e_rating[cut] - pred) ** 2)))
        return out

    history = [mse()]
    lr, reg = cfg.learning_rate, cfg.reg
    shuffled = np.empty(m * n_rec, dtype=np.int32)
    for epoch in range(1, cfg.epochs + 1):
        for c, rng in enumerate(rngs):
            part = shuffled[c * n_rec:(c + 1) * n_rec]
            part[:] = rng.permutation(n_rec)
            part += c * n_rec
        level = _levels(e_user[shuffled], e_item[shuffled], m * n_u, m * n_i)
        order = shuffled[np.argsort(level, kind="stable")]
        ends = np.cumsum(np.bincount(level)).tolist()
        del level
        users_o, items_o = e_user[order], e_item[order]
        ratings_o, means_o = e_rating[order], e_mean[order]
        del order
        start = 0
        for end in ends:
            u = users_o[start:end]
            i = items_o[start:end]
            pu, qi, bu_u, bi_i = p[u], q[i], bu[u], bi[i]
            # A stack of (1, d) @ (d, 1) products runs the same BLAS ddot as
            # a single `pu @ qi`; einsum would sum in another order.
            dot = np.matmul(pu[:, None, :], qi[:, :, None])[:, 0, 0]
            err = ratings_o[start:end] - (means_o[start:end] + bu_u + bi_i + dot)
            bu[u] = bu_u + lr * (err - reg * bu_u)
            bi[i] = bi_i + lr * (err - reg * bi_i)
            err = err[:, None]
            p[u] = pu + lr * (err * qi - reg * pu)
            q[i] = qi + lr * (err * pu - reg * qi)
            start = end
        del users_o, items_o, ratings_o, means_o
        history.append(mse())
        if not np.isfinite(history[-1]).all():
            raise TrainingError(
                f"training diverged: the loss is not finite after epoch {epoch}; "
                f"lower learning_rate (now {lr!r})")

    return PredictorModel(
        criteria_names=train.criteria_names,
        user_ids=tuple(users),
        item_ids=tuple(items),
        latent_dim=d,
        global_means=global_means,
        user_biases=user_biases,
        item_biases=item_biases,
        user_factors=user_factors,
        item_factors=item_factors,
        loss_history=tuple(zip(*history)),
    )


def _levels(user_rows: np.ndarray, item_rows: np.ndarray,
            n_user_rows: int, n_item_rows: int) -> np.ndarray:
    """Dependency level of each update in a sequence of (user row, item row).

    An update's level is one more than the higher level of the previous
    update on its user row and the previous update on its item row, so
    updates on one level touch disjoint rows and every row's updates
    keep their sequence order across levels.
    """
    last_user = [-1] * n_user_rows
    last_item = [-1] * n_item_rows
    level = []
    # memoryview iteration yields plain ints without materialising a list.
    for u, i in zip(memoryview(user_rows), memoryview(item_rows)):
        a = last_user[u]
        b = last_item[i]
        lv = (a if a > b else b) + 1
        last_user[u] = last_item[i] = lv
        level.append(lv)
    return np.array(level, dtype=np.int32)


def predict_many(model: PredictorModel, user_id: str, item_ids) -> np.ndarray:
    """Predicted criteria vectors for one user over many items, shape (n, M),
    clamped to ``SCALE``.

    One formula for every pair: global mean + user bias + item bias + dot
    product. An unseen id reads each table's zero row, and adding 0.0 leaves
    a finite sum bit-equal, so an unseen item falls back to the user's
    bias-adjusted mean, an unseen user to the item's, and a fully unseen
    pair to the per-criterion global means.
    """
    bu, bi, p, q = model._padded
    u = model._user_index.get(user_id, -1)
    i = np.fromiter((model._item_index.get(t, -1) for t in item_ids), dtype=np.int64)
    # (M, n, d) . (M, d) summed over d, transposed to (n, M)
    dots = np.einsum("mkd,md->mk", q[:, i, :], p[:, u, :])
    return np.clip((model.global_means + bu[:, u]) + bi[:, i].T + dots.T, *SCALE)
