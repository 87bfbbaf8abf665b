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
Descent"). The levels are found by a vectorised frontier walk over the
links from each update to the next one on its user row and on its item
row, a few numpy steps per level rather than a Python step per update
(see ``_schedule``). ``fit_folds`` trains the models of every fold in one
such schedule: every (fold, criterion) block owns rows of one factor
table and one bias vector, so one level updates every block at once. The
parameters are bitwise equal to those of visiting each fold's records
one at a time; ``tests/naive.py`` holds that sequential loop as the
reference.
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
    levels together by one frontier walk (see ``_schedule``), and each
    level runs as one gather, update and scatter. Records on one level
    share no row, and each row still receives its updates in shuffled
    order, with the same floating-point operations in the same order.
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
    # epoch's steps it holds the N int64 sort keys of its schedule.
    cap = max(1, n_rows // 6)
    e_rows = np.empty((2, n_entries), dtype=np.int32)  # each entry's user row, item row
    links = np.empty((2, n_entries), dtype=np.int32)  # the schedule's scratch, once a fit
    need = np.empty(n_entries, dtype=np.int8)
    e_rating = np.empty(n_entries)
    row_mean = np.empty(n_rows)  # the global mean of each row's block
    rngs = []
    row_counts = ([], [])  # per side, each block's records per row, in row order
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
                counts = np.bincount(u_idx), np.bincount(i_idx)
            for side, count in zip(row_counts, counts):
                side.append(count)
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
    del u_idx, i_idx, ratings, counts
    # per side, the slot where each row's run of sorted schedule keys ends
    row_ends = [np.cumsum(np.concatenate(side)) - 1 for side in row_counts]
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
        ends = _schedule(e_rows, row_ends, shuffled, links, need, work.view(np.int64)[:n_entries])
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
    del e_rows, e_rating, work, shuffled, links, need

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


def _schedule(e_rows, row_ends, shuffled, links, need, key) -> list[int]:
    """Reorder ``shuffled`` by dependency level; return each level's end.

    ``shuffled`` is a sequence of entries, and ``e_rows`` holds each entry's
    user row and item row of one table, no row being both. An entry's level
    is one more than the higher level of the previous entry on its user row
    and the previous entry on its item row, so entries on one level touch
    disjoint rows and every row's entries keep their sequence order. Level
    j becomes the run ``shuffled[ends[j - 1]:ends[j]]``, in no set order.
    These are the layers of Kahn's (1962) topological sort, in two steps:

    - Links. Per side, sorting ``row << 32 | position`` lists each row's
      positions in sequence order, one run per row, ending at the slots in
      ``row_ends``. Each position links to the next one on its row, or to
      itself if it is its row's last, and ``need`` counts its earlier
      links, 0 to 2.
    - Frontier walk. Level 1 is every position with no earlier link. Each
      level counts down its user-side links and lists the positions now at
      0, then does the same on the item side, so a position whose two
      earlier links are both on the level is listed once, by the item side.
      A self link counts down a position already listed, which falls below
      0 and is never listed again: no link reaches past the sequence.

    ``links`` (2, N) int32, ``need`` (N,) int8 and ``key`` (N,) int64 are
    scratch space. Positions are int32 in the key's low 32 bits and rows
    int32 in its high bits, so a sequence holds fewer than 2^31 entries and
    the table fewer than 2^31 rows.
    """
    at = np.arange(len(shuffled), dtype=np.int32)
    need.fill(2)  # a link on each side, less one for each row's first position
    for rows, nxt, last in zip(e_rows, links, row_ends):
        # nxt holds the rows by position until the links overwrite it
        np.left_shift(rows.take(shuffled, out=nxt, mode="clip"), 32, out=key, dtype=np.int64)
        key |= at
        key.sort()
        key &= 0xFFFFFFFF
        nxt[key[:-1]] = key[1:]
        end = key[last]
        nxt[end] = end
        need[key[np.concatenate(([0], last[:-1] + 1))]] -= 1
    front = np.flatnonzero(need == 0)
    ends = [0]
    while len(front):
        key[ends[-1]:ends[-1] + len(front)] = front
        ends.append(ends[-1] + len(front))
        ready = []
        for nxt in links:
            # intp once, where each index below would convert int32 again
            succ = nxt.take(front).astype(np.intp)
            left = need.take(succ) - 1
            need[succ] = left
            ready.append(succ[left == 0])
        front = np.concatenate(ready)
    # the links are spent; their 8 bytes a position hold the reordered entries
    order = links.reshape(-1).view(np.intp)
    shuffled.take(key, out=order, mode="clip")
    shuffled[:] = order
    return ends[1:]


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
