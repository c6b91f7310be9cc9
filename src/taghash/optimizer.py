"""One round of alternating optimization.

Five steps per outer iteration: closed-form ridge solves for the four
projection matrices, then cyclic bit-by-bit descent on the chunk's binary
codes.  Every solve combines the committed streaming statistics with the
current chunk's live contribution recomputed from the evolving codes; the
contribution is frozen into the accumulators only at commit time.

What does not depend on the codes is computed once per round: the chunk's
Gram matrix phi'phi, and from it the factored m x m hash-projection system
c3 + phi'phi + (alpha/mu) I; commit folds the same phi'phi into c3.  Each
iteration then solves the P system against its new right-hand side
c4 + phi'B only, and computes phi P once for both the code step and the
objective.  The r x r systems of U, V and W involve B and are rebuilt and
factored every iteration; these per-iteration solves run on one LAPACK
thread (see taghash.blas).
"""
import numpy as np
import scipy.linalg

from . import blas
from .codes import CodeBlock
from .model import commit_round, objective_value


class RoundAborted(RuntimeError):
    """Objective went non-finite; model state was rolled back."""


class RidgeFactor:
    """A symmetric ridge system, factored once for any number of solves.

    With a positive ridge the matrix is positive definite and gets a
    Cholesky factor.  When the ridge is ablated away (alpha = 0) it can be
    singular; then every solve falls back to least squares on the matrix.
    """

    def __init__(self, a):
        self._a = None
        try:
            self._cho = scipy.linalg.cho_factor(a, check_finite=False)
        except np.linalg.LinAlgError:
            self._a = a

    def solve(self, rhs):
        if self._a is not None:
            return np.linalg.lstsq(self._a, rhs, rcond=None)[0]
        return scipy.linalg.cho_solve(self._cho, rhs, check_finite=False)


def init_round(chunk, state, seed):
    """Draw random codes for the chunk and the initial reweighting diagonal.

    The tag projection is warm-started from the previous round; at round 1
    it is drawn Gaussian with standard deviation 0.01.
    """
    h = state.hyper
    rng = np.random.default_rng(seed)
    b = rng.integers(0, 2, size=(chunk.n, h.r)).astype(np.float64) * 2.0 - 1.0
    if state.round_index == 0:
        state.w = rng.normal(0.0, 0.01, size=(h.r, h.c))
    weights = compute_reweights(chunk.y, b, state.w, h.epsilon_norm)
    return b, weights


def update_u(stats, chunk, b, hyper):
    """Ridge solve for the codes -> kernel-features projection."""
    a = stats.c1 + b.T @ b + (hyper.alpha / hyper.beta) * np.eye(hyper.r)
    return RidgeFactor(a).solve(stats.c2 + b.T @ chunk.phi)


def factor_p_system(stats, chunk, hyper, phi_gram=None):
    """Factor the hash-projection system c3 + phi'phi + (alpha/mu) I.

    It does not depend on the codes, so one factor serves every outer
    iteration of a round.  phi_gram, if given, is chunk.phi.T @ chunk.phi.
    """
    if phi_gram is None:
        phi_gram = chunk.phi.T @ chunk.phi
    a = stats.c3 + phi_gram + (hyper.alpha / hyper.mu) * np.eye(hyper.m)
    return RidgeFactor(a)


def update_p(stats, chunk, b, hyper, factor=None):
    """Ridge solve for the hash projection.

    factor, if given, is the round's factor_p_system; without it the system
    is built and factored here.
    """
    if factor is None:
        factor = factor_p_system(stats, chunk, hyper)
    return factor.solve(stats.c4 + chunk.phi.T @ b)


def update_v(stats, chunk, b, hyper):
    """Ridge solve for the codes -> semantics projection."""
    a = stats.c1 + b.T @ b + (hyper.alpha / hyper.theta) * np.eye(hyper.r)
    return RidgeFactor(a).solve(stats.c5 + b.T @ chunk.z)


def compute_reweights(y, b, w, epsilon_norm):
    """Per-row weights 1 / max(||residual row||, floor) for the tag term."""
    res = np.asarray(y, float) - np.asarray(b, float) @ w
    norms = np.sqrt(np.sum(res * res, axis=1))
    return 1.0 / np.maximum(norms, epsilon_norm)


def update_w(stats, chunk, b, weights, hyper):
    """Reweighted ridge solve for the codes -> tags projection.

    Historical rows enter through the frozen accumulators; current-chunk
    rows through the supplied weights.
    """
    bk = b * weights[:, None]
    a = stats.d1 + bk.T @ b + hyper.alpha * np.eye(hyper.r)
    return RidgeFactor(a).solve(stats.d2 + bk.T @ chunk.y)


def assemble_q(chunk, state, weights, phi_p=None):
    """Linear-term matrix of the code subproblem for the current chunk.

    phi_p, if given, is chunk.phi @ state.p.
    """
    h = state.hyper
    q = np.zeros((chunk.n, h.r))
    if h.tag_regression:
        q += weights[:, None] * (chunk.y @ state.w.T)
    if h.beta > 0:
        q += h.beta * (chunk.phi @ state.u.T)
    if h.theta > 0:
        q += h.theta * (chunk.z @ state.v.T)
    if h.mu > 0:
        if phi_p is None:
            phi_p = chunk.phi @ state.p
        q += h.mu * phi_p
    return q


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


def dcc_bit_column(q, b, l, state, weights):
    """Optimal value of bit column l with all other bits held fixed.

    Sign of the bit's linear coefficient; sign(0) resolves to +1.
    """
    h = state.hyper
    t = q[:, l].copy()
    # exclusion products: full product minus the bit's own column
    if h.tag_regression:
        ww = state.w @ state.w[l]              # (r,)
        t -= weights * (b @ ww - b[:, l] * ww[l])
    if h.beta > 0:
        uu = state.u @ state.u[l]
        t -= h.beta * (b @ uu - b[:, l] * uu[l])
    if h.theta > 0:
        vv = state.v @ state.v[l]
        t -= h.theta * (b @ vv - b[:, l] * vv[l])
    return np.where(t >= 0.0, 1.0, -1.0)


def update_b_dcc(q, b, state, weights):
    """Cyclic bit-wise descent on the chunk's codes.

    Each bit column is set to its single-bit optimum given the others;
    runs the configured number of full sweeps.
    """
    b = np.asarray(b, float).copy()
    for _ in range(state.hyper.dcc_sweeps):
        for l in range(state.hyper.r):
            b[:, l] = dcc_bit_column(q, b, l, state, weights)
    return b


def run_round(state, stats, chunk, seed):
    """Execute one full round on a preprocessed chunk and commit it.

    Returns (codes, objective trace).  The trace holds the surrogate
    objective after each outer iteration.  On a non-finite objective the
    projection matrices are restored and RoundAborted is raised.
    """
    h = state.hyper
    saved = {n: getattr(state, n).copy() for n in ("w", "u", "v", "p")}
    b, weights = init_round(chunk, state, seed)
    phi_gram = chunk.phi.T @ chunk.phi
    if h.mu > 0:
        p_factor = factor_p_system(stats, chunk, h, phi_gram)
    phi_p = None
    trace = []
    try:
        # the m x m factor above keeps scipy's default thread count: its
        # rounding depends on it, unlike that of the solves below
        with blas.one_lapack_thread():
            for _ in range(h.iters):
                if h.beta > 0:
                    state.u = update_u(stats, chunk, b, h)
                if h.mu > 0:
                    state.p = update_p(stats, chunk, b, h, p_factor)
                    phi_p = chunk.phi @ state.p
                if h.theta > 0:
                    state.v = update_v(stats, chunk, b, h)
                if h.tag_regression:
                    weights = compute_reweights(
                        chunk.y, b, state.w, h.epsilon_norm)
                    state.w = update_w(stats, chunk, b, weights, h)
                q = assemble_q(chunk, state, weights, phi_p)
                b = update_b_dcc(q, b, state, weights)
                try:
                    obj = objective_value(
                        state, stats, chunk, b, weights, phi_p)
                except FloatingPointError as exc:
                    raise RoundAborted(str(exc)) from exc
                if not np.isfinite(obj):
                    raise RoundAborted(
                        f"non-finite objective at round {state.round_index}")
                trace.append(obj)
    except RoundAborted:
        for n, a in saved.items():
            setattr(state, n, a)
        raise
    commit_round(state, stats, chunk, b, weights, phi_gram)
    return CodeBlock(b.astype(np.int8)), trace
