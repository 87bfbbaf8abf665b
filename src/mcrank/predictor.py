"""Baseline multi-criteria rating predictor.

One independent biased matrix-factorization model per criterion, trained
with plain SGD. The ranking layer only needs criteria vectors, so any
external predictor can substitute for this one; this baseline exists so
the pipeline runs end to end with no heavyweight dependencies and fully
deterministic output.

Training is level-scheduled: within an epoch, two SGD steps on disjoint
user rows and disjoint item rows commute, so each epoch's shuffled
sequence is cut into dependency levels and every level runs as one
vectorised update (the conflict-free ordering of Gemulla et al. 2011,
"Large-scale Matrix Factorization with Distributed Stochastic Gradient
Descent"). ``fit_folds`` trains the models of every fold in one such
schedule: every (fold, criterion) block owns rows of one factor table and
one bias vector, so one level updates every block at once. The
parameters are bitwise equal to those of visiting each fold's records
one at a time; ``tests/naive.py`` holds that sequential loop as the
reference.
"""

from __future__ import annotations

from array import array
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


def fit(train: Dataset, cfg: TrainConfig) -> PredictorModel:
    """Train one biased-MF model per criterion with seeded SGD; see ``fit_folds``."""
    return fit_folds([train], cfg)[0]


# A diverging run reports one TrainingError, not numpy's overflow warnings.
@np.errstate(over="ignore", invalid="ignore")
def fit_folds(trains: list[Dataset], cfg: TrainConfig) -> list[PredictorModel]:
    """One model per training set; fold f trains with seed ``cfg.seed + f``.

    Each (fold, criterion) block visits its records in a seeded shuffle
    each epoch, drawn from its own seed stream, so blocks stay fully
    independent. Every fold trains in one stack; see ``_fit_stack``. Every
    model is bitwise equal to stepping through its shuffles one record at
    a time, as ``fit`` on that fold alone.

    Empty folds are refused in fold order, and then a stacked factor table
    past numpy's limit, before any training. If losses go non-finite, the
    lowest such fold raises TrainingError naming its first non-finite
    epoch, as a loop of ``fit`` calls would.
    """
    ids = [_ids(train) for train in trains]
    d = cfg.latent_dim
    rows = sum(t.n_criteria * (len(u) + len(i)) for t, (u, i) in zip(trains, ids))
    if rows * d > MAX_FLOATS:
        raise TrainingError(f"train.latent_dim {d} needs a {(rows, d)} factor table, "
                            f"past numpy's limit of {MAX_FLOATS} values")
    return _fit_stack(trains, ids, cfg)


def _ids(train: Dataset) -> tuple[list[str], list[str]]:
    """Sorted user and item ids of a non-empty training set."""
    if not train.records:
        raise TrainingError("cannot train on an empty dataset")
    users = sorted({r.user_id for r in train.records})
    items = sorted({r.item_id for r in train.records})
    return users, items


def _fit_stack(trains, ids, cfg: TrainConfig) -> list[PredictorModel]:
    """``fit_folds`` on every fold at once.

    Every block's user rows and item rows live in one factor table and one
    bias vector. Each epoch, the blocks' shuffles are cut into dependency
    levels together (see ``_levels``), and each level runs as one gather,
    update and scatter. Records on one level share no row, and each
    row still receives its updates in shuffled order, with the same
    floating-point operations in the same order.
    """
    d, lr, reg = cfg.latent_dim, cfg.learning_rate, cfg.reg
    # Block (f, c) is fold f under criterion c. It owns table rows row0..,
    # its users then its items, and entries e0.., its fold's records in order.
    blocks = []  # (f, c, row0, users, e0, records)
    n_rows = n_entries = 0
    for f, (train, (users, items)) in enumerate(zip(trains, ids)):
        for c in range(train.n_criteria):
            blocks.append((f, c, n_rows, len(users), n_entries, len(train.records)))
            n_rows += len(users) + len(items)
            n_entries += len(train.records)
    # Work space for three (2, cap, d) gathers, within the table's size for a
    # table of six rows or more: a level of more than `cap` records runs in
    # several steps, the same update as its rows are disjoint. Before an
    # epoch's steps it holds the (2, N) int32 rows of the shuffled entries,
    # then their N int64 sort keys.
    cap = max(1, n_rows // 6)
    e_rows = np.empty((2, n_entries), dtype=np.int32)  # each entry's user row, item row
    e_rating = np.empty(n_entries)
    row_mean = np.empty(n_rows)  # the global mean of each row's block
    rngs = []
    try:
        table = np.empty((n_rows, d))
        work = np.empty(max(6 * cap * d, n_entries))
        for f, c, row0, n_u, e0, n in blocks:
            train, (users, items) = trains[f], ids[f]
            if c == 0:
                u_index = {u: i for i, u in enumerate(users)}
                i_index = {t: i for i, t in enumerate(items)}
                u_idx = np.fromiter((u_index[r.user_id] for r in train.records),
                                    dtype=np.int32, count=n)
                i_idx = np.fromiter((i_index[r.item_id] for r in train.records),
                                    dtype=np.int32, count=n)
                ratings = np.asarray([r.criteria for r in train.records], dtype=np.float64)
            np.add(u_idx, row0, out=e_rows[0, e0:e0 + n])
            np.add(i_idx, row0 + n_u, out=e_rows[1, e0:e0 + n])
            e_rating[e0:e0 + n] = ratings[:, c]
            row_mean[row0:row0 + n_u + len(items)] = e_rating[e0:e0 + n].mean()
            # each block's stream draws its user factors, then its item factors
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed + f, c]))
            table[row0:row0 + n_u] = rng.normal(0.0, 0.05, size=(n_u, d))
            table[row0 + n_u:row0 + n_u + len(items)] = rng.normal(
                0.0, 0.05, size=(len(items), d))
            rngs.append(rng)
    except MemoryError as exc:
        raise TrainingError(f"train.latent_dim {d} needs a {(n_rows, d)} factor table, "
                            "more than fits in memory") from exc
    del u_idx, i_idx, ratings
    bias = np.zeros(n_rows)

    def mse(row0: int, e0: int, n: int) -> float:
        dots = np.empty(n)
        for a in range(0, n, 3 * cap):
            rows = e_rows[:, e0 + a:e0 + min(n, a + 3 * cap)]
            pq = work[:rows.size * d].reshape(2, -1, d)
            # mode "raise" would copy through a buffer; every row is in range
            table.take(rows, axis=0, out=pq, mode="clip")
            np.einsum("nd,nd->n", *pq, out=dots[a:a + 3 * cap])
        u, i = e_rows[:, e0:e0 + n]
        pred = row_mean[row0] + bias[u] + bias[i] + dots
        return float(np.mean((e_rating[e0:e0 + n] - pred) ** 2))

    history = [[mse(row0, e0, n)] for _, _, row0, _, e0, n in blocks]
    diverged: dict[int, int] = {}  # fold -> its first epoch with a non-finite loss
    # intp, as numpy's take would copy any other index type to it
    shuffled = np.empty(n_entries, dtype=np.intp)
    for epoch in range(1, cfg.epochs + 1):
        for (_, _, _, _, e0, n), rng in zip(blocks, rngs):
            part = shuffled[e0:e0 + n]
            part[:] = rng.permutation(n)
            part += e0
        # Blocks share no row, so one pass over every block gives each entry
        # its level within its own block's shuffle. The entries are then
        # sorted by (level, entry), packed in one int64 key, so level j is
        # the run shuffled[ends[j - 1]:ends[j]], ends[j] counting the keys
        # below (j + 1) << 32. Any order within a level will do, as its
        # records share no row. Rows and keys live in the work space, so an
        # epoch allocates no (N,) array but its levels.
        rows = work.view(np.int32)[:2 * n_entries].reshape(2, -1)
        e_rows.take(shuffled, axis=1, out=rows, mode="clip")
        level = _levels(rows[0], rows[1], n_rows)
        key = work.view(np.int64)[:n_entries]
        np.left_shift(level, 32, out=key, dtype=np.int64)
        key |= shuffled
        key.sort()
        ends = key.searchsorted(np.arange(1, level.max() + 2, dtype=np.int64) << 32).tolist()
        np.bitwise_and(key, 0xFFFFFFFF, out=shuffled)
        del rows, level, key
        for start, end in zip([0, *ends], ends):
            for a in range(start, end, cap):
                entry = shuffled[a:min(end, a + cap)]
                idx = e_rows.take(entry, axis=1).astype(np.intp)
                # g: the user rows, then the item rows; t and v: work space
                g, t, v = work[:6 * len(entry) * d].reshape(3, 2, -1, d)
                table.take(idx, axis=0, out=g, mode="clip")
                b = bias.take(idx)
                # A stack of (1, d) @ (d, 1) products runs the same BLAS ddot
                # as a single `pu @ qi`; einsum would sum in another order.
                dot = np.matmul(g[0][:, None, :], g[1][:, :, None])[:, 0, 0]
                err = e_rating.take(entry) - (row_mean.take(idx[0]) + b[0] + b[1] + dot)
                bias[idx] = b + lr * (err - reg * b)
                # g + lr * (err * g[::-1] - reg * g) by rows, as one record's
                # update; err spread along d keeps numpy's inner loop flat
                v[0] = err[:, None]
                np.multiply(v[0], g[::-1], out=t)
                np.multiply(reg, g, out=v)
                np.subtract(t, v, out=t)
                np.multiply(lr, t, out=t)
                g += t
                table[idx] = g
        for (f, _, row0, _, e0, n), losses in zip(blocks, history):
            losses.append(mse(row0, e0, n))
            if not np.isfinite(losses[-1]):
                diverged.setdefault(f, epoch)
        if 0 in diverged:  # no lower fold is left to diverge later
            break
    if diverged:
        raise TrainingError(
            f"training diverged: the loss is not finite after epoch "
            f"{diverged[min(diverged)]}; lower learning_rate (now {lr!r})")
    del e_rows, e_rating, work, shuffled

    models = []
    for f, (train, (users, items)) in enumerate(zip(trains, ids)):
        own = [k for k, block in enumerate(blocks) if block[0] == f]
        m, n_u, row0 = len(own), len(users), blocks[own[0]][2]
        span = slice(row0, row0 + m * (n_u + len(items)))
        factors = table[span].reshape(m, -1, d)
        biases = bias[span].reshape(m, -1)
        models.append(PredictorModel(
            criteria_names=train.criteria_names,
            user_ids=tuple(users),
            item_ids=tuple(items),
            latent_dim=d,
            global_means=row_mean[[blocks[k][2] for k in own]],
            user_biases=biases[:, :n_u],
            item_biases=biases[:, n_u:],
            user_factors=factors[:, :n_u],
            item_factors=factors[:, n_u:],
            loss_history=tuple(tuple(history[k]) for k in own),
        ))
    return models


def _levels(user_rows: np.ndarray, item_rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Dependency level of each update in a sequence of (user row, item row).

    User and item rows index one table, and no row is both. An update's
    level is one more than the higher level of the previous update on its
    user row and the previous update on its item row, so updates on one
    level touch disjoint rows and every row's updates keep their sequence
    order across levels.
    """
    last = [-1] * n_rows
    level = array("i")  # 4 bytes a level, where a list would hold 8
    # memoryview iteration yields plain ints without materialising a list.
    for u, i in zip(memoryview(user_rows), memoryview(item_rows)):
        a = last[u]
        b = last[i]
        lv = (a if a > b else b) + 1
        last[u] = last[i] = lv
        level.append(lv)
    return np.frombuffer(level, dtype=np.intc)


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
