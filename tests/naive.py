"""Independent brute-force reference implementations.

Deliberately written as plain double loops with no shared code with the
library, so the two can cross-check each other. The k-dominance
threshold is Chan et al.'s n_b >= (M - n_e) / (k + 1) in exact rational
arithmetic on the float k, where the library reads n_w <= k * n_b
through integer weights. ``naive_fit`` is the per-record SGD
loop that the library's level-scheduled ``fit`` must reproduce bit for
bit, and ``naive_levels`` the per-update loop whose levels its frontier
walk must find. ``naive_load_candidate_sets`` and ``naive_load_dataset``
are the per-row CSV loaders that parsed each row's numbers as it was
read, which the library's chunked reader must match result for result
and error for error.
"""

import contextlib
import csv
import math
import operator
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np

from mcrank import CandidateSet, Dataset, DatasetValidationError, ParseError, RatingRecord
from mcrank.core import validate_dataset

_FIXED_COLUMNS = ("user_id", "item_id", "overall")


def counts(a, b):
    nb = ne = nw = 0
    for x, y in zip(a, b, strict=True):
        if x > y:
            nb += 1
        elif x < y:
            nw += 1
        else:
            ne += 1
    return nb, ne, nw


def pareto(a, b):
    none_worse = all(x >= y for x, y in zip(a, b, strict=True))
    some_better = any(x > y for x, y in zip(a, b, strict=True))
    return none_worse and some_better


def kdom(a, b, k):
    nb, ne, nw = counts(a, b)
    m = nb + ne + nw
    if ne == m:
        return False
    return Fraction(nb) >= Fraction(m - ne) / (Fraction(k) + 1)


def pr_list(vectors):
    return [
        float(sum(1 for j, b in enumerate(vectors) if j != i and pareto(a, b)))
        for i, a in enumerate(vectors)
    ]


def kd_list(vectors, k):
    return [
        float(sum(1 for j, b in enumerate(vectors) if j != i and kdom(a, b, k)))
        for i, a in enumerate(vectors)
    ]


def ranks_desc(values):
    """1-based positions by descending value; a tie group shares its average."""
    out = []
    for v in values:
        better = sum(1 for w in values if w > v)
        equal = sum(1 for w in values if w == v)  # includes v itself
        out.append(better + (equal + 1) / 2)
    return out


def ar_list(vectors):
    m = len(vectors[0])
    column_ranks = [ranks_desc([v[c] for v in vectors]) for c in range(m)]
    return [sum(column_ranks[c][i] for c in range(m)) for i in range(len(vectors))]


def mr_list(vectors):
    m = len(vectors[0])
    column_ranks = [ranks_desc([v[c] for v in vectors]) for c in range(m)]
    return [min(column_ranks[c][i] for c in range(m)) for i in range(len(vectors))]


def ordered_sum(values):
    """Left-to-right float sum: the builtin ``sum`` compensates from
    Python 3.12 on, and the library adds in order on every version."""
    return reduce(operator.add, values, 0.0)


def gain(a, b):
    return ordered_sum(max(0.0, x - y) for x, y in zip(a, b, strict=True))


def gd_list(vectors):
    return [
        ordered_sum(gain(a, b) for j, b in enumerate(vectors) if j != i)
        for i, a in enumerate(vectors)
    ]


def pg_list(vectors):
    if len(vectors) == 1:
        return [0.0]
    out = []
    for i, a in enumerate(vectors):
        outgoing = max(gain(a, b) for j, b in enumerate(vectors) if j != i)
        incoming = max(gain(b, a) for j, b in enumerate(vectors) if j != i)
        out.append(outgoing - incoming)
    return out


def norm_sub(scores, lower_better):
    n = len(scores)
    oriented = [-s for s in scores] if lower_better else list(scores)
    return [(n - rho) / n for rho in ranks_desc(oriented)]


SUB_LOWER_BETTER = {"ar": True, "mr": True, "gd": False, "pg": False}
SUB_FNS = {"ar": ar_list, "mr": mr_list, "gd": gd_list, "pg": pg_list}


def hybrid_list(vectors, major_kind, k, sub_kind):
    if major_kind == "pr":
        majors = pr_list(vectors)
    else:
        majors = kd_list(vectors, k)
    subs = norm_sub(SUB_FNS[sub_kind](vectors), SUB_LOWER_BETTER[sub_kind])
    return [a + b for a, b in zip(majors, subs)]


def naive_levels(user_rows, item_rows):
    """Dependency level of each update in a sequence of (user row, item row).

    User and item rows index one table, and no row is both. An update's
    level is one more than the higher level of the previous update on its
    user row and the previous update on its item row, counting from 0.
    """
    last = {}
    levels = []
    for u, i in zip(user_rows, item_rows, strict=True):
        level = max(last.get(u, -1), last.get(i, -1)) + 1
        last[u] = last[i] = level
        levels.append(level)
    return levels


def naive_fit(records, n_criteria, latent_dim, learning_rate, reg, epochs, seed):
    """Sequential biased-MF SGD, one record at a time, one criterion at a time.

    Returns (global_means, user_biases, item_biases, user_factors,
    item_factors, loss_history) with the library's array layout.
    """
    users = sorted({r.user_id for r in records})
    items = sorted({r.item_id for r in records})
    u_index = {u: i for i, u in enumerate(users)}
    i_index = {t: i for i, t in enumerate(items)}
    n_u, n_i, m, d = len(users), len(items), n_criteria, latent_dim
    u_idx = np.array([u_index[r.user_id] for r in records], dtype=np.int64)
    i_idx = np.array([i_index[r.item_id] for r in records], dtype=np.int64)
    ratings = np.array([r.criteria for r in records], dtype=np.float64)

    global_means = np.empty(m)
    user_biases = np.zeros((m, n_u))
    item_biases = np.zeros((m, n_i))
    user_factors = np.empty((m, n_u, d))
    item_factors = np.empty((m, n_i, d))
    histories = []
    lr = learning_rate
    for c in range(m):
        rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
        r = ratings[:, c].copy()
        mu = float(r.mean())
        p = rng.normal(0.0, 0.05, size=(n_u, d))
        q = rng.normal(0.0, 0.05, size=(n_i, d))
        bu = np.zeros(n_u)
        bi = np.zeros(n_i)

        def mse():
            pred = mu + bu[u_idx] + bi[i_idx] + np.einsum(
                "nd,nd->n", p[u_idx], q[i_idx])
            return float(np.mean((r - pred) ** 2))

        history = [mse()]
        for _ in range(epochs):
            for t in rng.permutation(len(records)):
                u = u_idx[t]
                i = i_idx[t]
                pu = p[u]
                qi = q[i]
                err = r[t] - (mu + bu[u] + bi[i] + pu @ qi)
                bu[u] += lr * (err - reg * bu[u])
                bi[i] += lr * (err - reg * bi[i])
                pu_old = pu.copy()
                pu += lr * (err * qi - reg * pu)
                qi += lr * (err * pu_old - reg * qi)
            history.append(mse())
        global_means[c] = mu
        user_biases[c] = bu
        item_biases[c] = bi
        user_factors[c] = p
        item_factors[c] = q
        histories.append(tuple(history))
    return (global_means, user_biases, item_biases, user_factors,
            item_factors, tuple(histories))


@contextlib.contextmanager
def _reading(path: Path):
    """A file that cannot be read or is not UTF-8, as a ParseError naming
    it. Readers decode ``utf-8-sig``, dropping a BOM."""
    try:
        yield
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_csv(path: str | Path, *, vectors: bool):
    """(path, criterion names, rows) of a header-checked rating CSV, or with
    ``vectors`` a predicted-vector CSV. ``rows`` lazily yields (line, user,
    item, cells, values) per non-blank row, ``values`` being the floats of
    ``cells``: the overall and criteria cells, or with ``vectors`` the
    criteria cells alone. A ParseError names the line and the column."""
    path = Path(path)

    def numbered():  # each row by the file line it starts on, streamed
        line = 1
        with _reading(path), path.open(encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                for row in reader:
                    if row:
                        yield line, list(map(str.strip, row))
                    line = reader.line_num + 1
            except csv.Error as exc:  # such as an unclosed quote running past the field limit
                raise ParseError(f"{path}: line {line}: {exc}") from exc
    rows = numbered()
    header_line, header = next(rows, (0, None))
    if header is None:
        raise ParseError(f"{path}: no header (file is empty)")
    if len(header) >= 4 and tuple(header[:3]) == _FIXED_COLUMNS:
        first = 3
    elif vectors and len(header) >= 3 and tuple(header[:2]) == _FIXED_COLUMNS[:2]:
        first = 2
    else:
        raise ParseError(
            f"{path}: line {header_line}: header must be user_id,item_id"
            f"{'[,overall]' if vectors else ',overall'},<criterion,...>, "
            f"got {','.join(header)}")
    names = header[first:]
    if len(set(names)) != len(names) or not all(names):
        raise ParseError(
            f"{path}: line {header_line}: criterion names must be distinct and non-empty")
    start = first if vectors else 2
    columns = header[start:]

    def parsed():
        for line, row in rows:
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: line {line}: expected {len(header)} columns, got {len(row)}")
            if not (row[0] and row[1]):
                raise ParseError(f"{path}: line {line}: user_id and item_id must be non-empty")
            cells = row[start:]
            try:
                values = list(map(float, cells))
            except ValueError:  # locate the first bad cell
                for column, cell in zip(columns, cells):
                    try:
                        float(cell)
                    except ValueError as exc:
                        raise ParseError(f"{path}: line {line}: {column} value "
                                         f"{cell!r} is not a number") from exc
            yield line, row[0], row[1], cells, values
    return path, names, parsed()


def naive_load_dataset(path):
    """Read and validate a rating CSV on the fixed 1-5 scale.

    Raises ParseError with a line number on malformed rows, and
    DatasetValidationError listing every invariant violation at once,
    each by its line.
    """
    path, names, rows = _read_csv(path, vectors=False)
    lines, records = [], []
    for line, user, item, _, values in rows:
        lines.append(line)
        records.append(RatingRecord(user, item, values[0], values[1:]))
    dataset = Dataset(criteria_names=names, records=tuple(records))
    violations = validate_dataset(dataset)
    if violations:
        raise DatasetValidationError(violations, f"{path}: " + "; ".join(
            v.at(f"line {lines[v.record_index]}") for v in violations))
    return dataset


def naive_load_candidate_sets(path):
    """Read a predicted-vectors CSV into per-user candidate sets.

    Header is ``user_id,item_id,<criterion,...>``; a full dataset file
    (with an ``overall`` column) is also accepted, the overall being
    ignored since ranking uses criteria values only. Values may be
    continuous and are not checked against a rating scale. Rows may come
    in any order; each ``CandidateSet`` keeps its items in id order.
    """
    path, names, rows = _read_csv(path, vectors=True)
    per_user: dict[str, dict[str, list[float]]] = {}
    for line, user, item, cells, vector in rows:
        # one test per row; finite cells whose sum overflows pass the loop
        if not math.isfinite(sum(vector)):
            for name, cell, value in zip(names, cells, vector):
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}: line {line}: {name} value {cell!r} is not finite")
        vectors = per_user.setdefault(user, {})
        if item in vectors:
            raise ParseError(
                f"{path}: line {line}: duplicate item {item!r} for user {user!r}")
        vectors[item] = vector
    return {user: CandidateSet.from_pairs(user, vectors.items())
            for user, vectors in per_user.items()}
