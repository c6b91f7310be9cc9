"""Independent reference implementations used only by the test suite.

Everything here recomputes quantities from first principles with plain
loops over concatenated data or direct evaluation of a definition,
deliberately sharing no matrix kernels with the production paths.
Intended for test-scale inputs (n <= 2000); never wire these into
operational code.
"""
import numpy as np
import scipy.sparse


def as_dense(a):
    """a as a dense ndarray, whether it is sparse or not."""
    return a.toarray() if scipy.sparse.issparse(a) else np.asarray(a)


def row_sq_norms(y, b, w):
    """Squared norm of each row of y - b @ w, by the definition."""
    res = as_dense(y) - np.asarray(b, float) @ w
    return np.sum(res * res, axis=1)


def batch_stats(chunks, codes, frozen_weights, hyper):
    """Recompute every streaming statistic directly from full history.

    chunks: list of objects with phi, y, z; codes: list of (n, r) arrays;
    frozen_weights: list of (n,) arrays as they were at each commit.
    Returns a dict keyed like the AccumStats fields.
    """
    r, m, f, c = hyper.r, hyper.m, hyper.f, hyper.c
    out = {
        "c1": np.zeros((r, r)), "c2": np.zeros((r, m)),
        "c3": np.zeros((m, m)), "c4": np.zeros((m, r)),
        "c5": np.zeros((r, f)), "d1": np.zeros((r, r)),
        "d2": np.zeros((r, c)), "sy_weighted": 0.0, "sz": 0.0,
    }
    for chunk, b, k in zip(chunks, codes, frozen_weights):
        b = np.asarray(b, float)
        y = as_dense(chunk.y)
        for i in range(b.shape[0]):
            bi = b[i]
            out["c1"] += np.outer(bi, bi)
            out["c2"] += np.outer(bi, chunk.phi[i])
            out["c3"] += np.outer(chunk.phi[i], chunk.phi[i])
            out["c4"] += np.outer(chunk.phi[i], bi)
            out["c5"] += np.outer(bi, chunk.z[i])
            out["d1"] += k[i] * np.outer(bi, bi)
            out["d2"] += k[i] * np.outer(bi, y[i])
            out["sy_weighted"] += k[i] * float(np.dot(y[i], y[i]))
            out["sz"] += float(np.dot(chunk.z[i], chunk.z[i]))
    return out


def dcc_fresh_products(q, b, state, weights):
    """Cyclic bit-wise code descent with every coupling product recomputed.

    Bit l of row i becomes the sign (sign(0) = +1) of
    q_il - sum over j != l of b_ij (k_i (WW')_jl + beta (UU')_jl
    + theta (VV')_jl), the terms gated like the model's.  The sum is taken
    afresh over the other bits' current values for every bit.  Returns the
    codes after hyper.dcc_sweeps sweeps.
    """
    h = state.hyper
    b = np.array(b, dtype=float)
    k = np.asarray(weights, dtype=float)
    couplings = []
    if h.tag_regression:
        couplings.append((k, state.w))
    if h.beta > 0:
        couplings.append((h.beta, state.u))
    if h.theta > 0:
        couplings.append((h.theta, state.v))
    for _ in range(h.dcc_sweeps):
        for l in range(h.r):
            others = np.arange(h.r) != l
            t = q[:, l].copy()
            for scale, a in couplings:
                t -= scale * (b[:, others] @ (a[others] @ a[l]))
            b[:, l] = np.where(t >= 0.0, 1.0, -1.0)
    return b


def dense_rank(query_dense, db_dense):
    """Rank +-1 database codes by disagreement count with one query code.

    Stable ascending order; returns (indices, distances).
    """
    q = np.asarray(query_dense)
    dists = []
    for row in np.asarray(db_dense):
        dists.append(int(sum(1 for a, b in zip(row, q) if a != b)))
    dists = np.asarray(dists)
    order = sorted(range(len(dists)), key=lambda i: (dists[i], i))
    order = np.asarray(order, dtype=np.int64)
    return order, dists[order]


def naive_average_precision(ranked_relevance):
    """AP from a boolean relevance sequence in rank order, O(n^2) form."""
    rel = list(ranked_relevance)
    total = sum(rel)
    if total == 0:
        return None
    ap = 0.0
    for k in range(1, len(rel) + 1):
        if rel[k - 1]:
            hits = sum(rel[:k])
            ap += hits / k
    return ap / total


def naive_map(rankings, relevances):
    """MAP over (ranked ids, boolean relevance over ids) pairs.

    Queries with no relevant item are excluded.
    """
    aps = []
    for ranked_ids, relevant in zip(rankings, relevances):
        seq = [bool(relevant[i]) for i in ranked_ids]
        ap = naive_average_precision(seq)
        if ap is not None:
            aps.append(ap)
    return sum(aps) / len(aps) if aps else float("nan")


def pack_codes_loop(dense):
    """Pack (n, r) +-1 codes into uint64 words, one shifted word at a time.

    Bit j of word j//64 is 1 where the code is +1; bits past r are zero.
    """
    d = np.asarray(dense)
    n, r = d.shape
    words = -(-r // 64)
    padded = np.zeros((n, words * 64), dtype=np.uint8)
    padded[:, :r] = d > 0
    packed = np.zeros((n, words), dtype=np.uint64)
    shifts = np.arange(64, dtype=np.uint64)
    for wi in range(words):
        block = padded[:, wi * 64:(wi + 1) * 64].astype(np.uint64)
        packed[:, wi] = (block << shifts).sum(axis=1, dtype=np.uint64)
    return packed


def code_subproblem_value(b, q, state, weights):
    """Objective of the code step (up to B-independent constants)."""
    h = state.hyper
    b = np.asarray(b, float)
    val = -2.0 * float(np.sum(b * q))
    if h.beta > 0:
        bu = b @ state.u
        val += h.beta * float(np.sum(bu * bu))
    if h.theta > 0:
        bv = b @ state.v
        val += h.theta * float(np.sum(bv * bv))
    if h.tag_regression:
        bw = b @ state.w
        val += float(np.sum(weights * np.sum(bw * bw, axis=1)))
    return val


def true_tag_objective(state, stats, chunk, b_new):
    """Row-norm tag objective used for descent monitoring.

    sum_i ||(Y - BW)_i||_2 over the current chunk, plus half of the frozen
    historical quadratic and half the ridge term.  The halves make this the
    exact quantity the reweight/solve alternation provably never increases.
    """
    h = state.hyper
    w = state.w
    res = as_dense(chunk.y) - np.asarray(b_new, float) @ w
    l21 = float(np.sum(np.sqrt(np.sum(res * res, axis=1))))
    hist = stats.sy_weighted - 2.0 * float(np.sum(w * stats.d2)) \
        + float(np.sum(w * (stats.d1 @ w)))
    return l21 + 0.5 * hist + 0.5 * h.alpha * float(np.sum(w * w))
