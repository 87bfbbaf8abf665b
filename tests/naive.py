"""Independent brute-force reference implementations.

Deliberately written as plain double loops with no shared code with the
library, so the two can cross-check each other. The k-dominance
threshold is Chan et al.'s n_b >= (M - n_e) / (k + 1) in exact rational
arithmetic on the float k, where the library reads n_w <= k * n_b
through integer weights. ``naive_fit`` is the per-record SGD
loop that the library's level-scheduled ``fit`` must reproduce bit for
bit, and ``naive_levels`` the per-update loop whose levels its frontier
walk must find.
"""

import operator
from fractions import Fraction
from functools import reduce

import numpy as np


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
