"""One round of alternating optimization.

Five steps per outer iteration: closed-form ridge solves for the four
projection matrices, then cyclic bit-by-bit descent on the chunk's binary
codes.  Every solve combines the committed streaming statistics with the
current chunk's live contribution recomputed from the evolving codes; the
contribution is frozen into the accumulators only at commit time.

Each iteration touches the n-row chunk only where the math requires it.
What does not depend on the codes is computed once per round: the chunk's
Gram matrix phi'phi, and from it the factored m x m hash-projection system
c3 + phi'phi + (alpha/mu) I; commit folds the same phi'phi into c3.  The one
product of the codes with the kernel features, B'phi, is computed once per
code matrix: after the random start and after each code step.  It serves
that iteration's objective, the next iteration's U and P right-hand sides
(c2 + B'phi and its transpose) and commit's c2.  B'B is formed at the same
points; it serves the objective, the next U and V systems and commit's c1.
The code step's linear term projects phi once, through beta U' + mu P.

The tags Y are a float64 CSR matrix (RoundData), so every tag product runs
over their nonzeros.  W Y' is formed once per W: at the random start and
after each W solve; it serves the code step's linear term and the tag
residual row norms.  Those norms, ||y_i - b_i W||^2, are expanded into
||y_i||^2 (once per round), b_i . (W y_i') and b_i W W' b_i'
(tag_residual_sq), so they cost n r^2 instead of n r c; they are formed once
per code matrix: at the random start, for the first reweighting, and after
each code step, for that iteration's objective and the next reweighting.

The codes stay column-major for the whole round, the layout in which the
code step reads one bit's column.  The code step builds its coupling
products once per call and then updates only the rows whose bit flipped
(CodeCoupling).  The r x r systems of U, V and W involve B and are rebuilt
and factored every iteration.  The finished codes are packed into their
words once, straight from their signs.  Every scipy call of the round,
the m x m factor included, runs on one LAPACK thread, so that it does not
wait for cores that numpy's threaded products keep busy (see taghash.blas).

run_round forms each of these products and passes it to every step that
uses it, as a required argument; no step has a path that computes one.
"""
import numpy as np
import scipy.linalg
from scipy.linalg.blas import dger

from . import blas
from .codes import CodeBlock, pack_signs
from .model import (commit_round, objective_value, tag_projection,
                    tag_residual_sq)


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

    Returns (codes, W Y', tag residual row norms, weights); the codes are
    column-major and the norms are tag_residual_sq of the codes.  The tag
    projection W is warm-started from the previous round; at round 1 it is
    drawn Gaussian with standard deviation 0.01.
    """
    h = state.hyper
    rng = np.random.default_rng(seed)
    b = rng.integers(0, 2, size=(chunk.n, h.r)).astype(np.float64, order="F")
    b *= 2.0
    b -= 1.0
    if state.round_index == 0:
        state.w = rng.normal(0.0, 0.01, size=(h.r, h.c))
    w_yt = tag_projection(state.w, chunk.y)
    tag_sq = tag_residual_sq(chunk.y_sq, b, state.w, w_yt)
    return b, w_yt, tag_sq, compute_reweights(tag_sq, h.epsilon_norm)


def update_u(stats, hyper, bt_b, bt_phi):
    """Ridge solve for the codes -> kernel-features projection.

    bt_b is b.T @ b and bt_phi is b.T @ chunk.phi.
    """
    a = stats.c1 + bt_b + (hyper.alpha / hyper.beta) * np.eye(hyper.r)
    return RidgeFactor(a).solve(stats.c2 + bt_phi)


def factor_p_system(stats, phi_gram, hyper):
    """Factor the hash-projection system c3 + phi'phi + (alpha/mu) I.

    It does not depend on the codes, so one factor serves every outer
    iteration of a round.  phi_gram is chunk.phi.T @ chunk.phi.
    """
    a = stats.c3 + phi_gram + (hyper.alpha / hyper.mu) * np.eye(hyper.m)
    return RidgeFactor(a)


def update_p(stats, factor, bt_phi):
    """Ridge solve for the hash projection.

    factor is the round's factor_p_system and bt_phi is b.T @ chunk.phi;
    its transpose is the chunk's part of the right-hand side.
    """
    return factor.solve(stats.c4 + bt_phi.T)


def update_v(stats, chunk, b, hyper, bt_b):
    """Ridge solve for the codes -> semantics projection; bt_b is b.T @ b."""
    a = stats.c1 + bt_b + (hyper.alpha / hyper.theta) * np.eye(hyper.r)
    return RidgeFactor(a).solve(stats.c5 + b.T @ chunk.z)


def compute_reweights(tag_sq, epsilon_norm):
    """Per-row weights 1 / max(||residual row||, floor) for the tag term.

    tag_sq holds the squared residual row norms, tag_residual_sq(...).
    """
    return 1.0 / np.maximum(np.sqrt(tag_sq), epsilon_norm)


def update_w(stats, chunk, b, weights, hyper):
    """Reweighted ridge solve for the codes -> tags projection.

    Historical rows enter through the frozen accumulators; current-chunk
    rows through the supplied weights.  B'KY runs over the tags' nonzeros.
    """
    # row-major like the sparse product reads it, whatever b's layout
    bk = np.multiply(b, weights[:, None], order="C")
    a = stats.d1 + bk.T @ b + hyper.alpha * np.eye(hyper.r)
    return RidgeFactor(a).solve(stats.d2 + (chunk.y.T @ bk).T)


def assemble_q(chunk, state, weights, w_yt):
    """Linear-term matrix of the code subproblem for the current chunk.

    w_yt is W Y' (tag_projection) for the current W.  Both kernel-feature
    terms, beta phi U' and mu phi P, come from one projection of phi.
    """
    h = state.hyper
    # built bit-major and returned as its column-major transpose, the
    # layout in which update_b_dcc reads one bit's column
    qt = np.zeros((h.r, chunk.n))
    if h.tag_regression:
        qt += w_yt * weights
    if h.theta > 0:
        qt += h.theta * (state.v @ chunk.z.T)
    if h.beta > 0 or h.mu > 0:
        proj = np.zeros((h.r, h.m))
        if h.beta > 0:
            proj += h.beta * state.u
        if h.mu > 0:
            proj += h.mu * state.p.T
        qt += proj @ chunk.phi.T
    return qt.T


class CodeCoupling:
    """The code step's quadratic coupling products, kept in step with B.

    The code objective couples bit l of row i to the row's other bits
    through H = W W' (the tag term, scaled by the row weight k_i) and
    G = beta U U' + theta V V'.  products holds C = diag(k) B H + B G
    (n x r); bit l's linear coefficient is q_l - C_l + b_l (k H_ll + G_ll).
    When bits of column l flip, only those rows of C change.
    """

    def __init__(self, b, state, weights):
        h = state.hyper
        self.gram = np.zeros((h.r, h.r))
        if h.beta > 0:
            self.gram += h.beta * (state.u @ state.u.T)
        if h.theta > 0:
            self.gram += h.theta * (state.v @ state.v.T)
        # built bit-major, so that the n x r products are column-major like
        # the codes in update_b_dcc and each bit's column is contiguous
        products = self.gram @ b.T
        self.tag = None
        if h.tag_regression:
            self.tag = state.w @ state.w.T
            self.weights = weights
            products += (self.tag @ b.T) * weights
        self.products = products.T

    def own(self, l):
        """Coupling of bit l with itself, per row: k H_ll + G_ll."""
        if self.tag is None:
            return self.gram[l, l]
        return self.weights * self.tag[l, l] + self.gram[l, l]

    def flip(self, rows, l, step):
        """Account for bit l of the given rows having moved by step (+-2)."""
        if 8 * rows.size < len(self.products):
            delta = step[:, None] * self.gram[l]
            if self.tag is not None:
                delta += (self.weights[rows] * step)[:, None] * self.tag[l]
            self.products[rows] += delta
            return
        # a dense flip, as in a sweep from random codes: gathering that many
        # strided rows costs more than rank-1 updates of every row
        full = np.zeros(len(self.products))
        full[rows] = step
        self.products = dger(1.0, full, self.gram[l], a=self.products,
                             overwrite_a=True)
        if self.tag is not None:
            self.products = dger(1.0, self.weights * full, self.tag[l],
                                 a=self.products, overwrite_a=True)


def dcc_bit_column(q, b, l, coupling):
    """Optimal value of bit column l with all other bits held fixed.

    Sign of the bit's linear coefficient; sign(0) resolves to +1.
    coupling is the CodeCoupling of b.
    """
    # the bit's own coupling is excluded: full product minus its column
    t = q[:, l] - coupling.products[:, l] + b[:, l] * coupling.own(l)
    return np.where(t >= 0.0, 1.0, -1.0)


def update_b_dcc(q, b, state, weights):
    """Cyclic bit-wise descent on the chunk's codes.

    Each bit column is set to its single-bit optimum given the others;
    runs the configured number of full sweeps.  The coupling products are
    built once and then updated on the rows whose bit flipped.  Works on a
    column-major copy of b, so that each bit column is contiguous, and
    returns it in that layout.
    """
    b = np.array(b, dtype=float, order="F")
    coupling = CodeCoupling(b, state, weights)
    for _ in range(state.hyper.dcc_sweeps):
        for l in range(state.hyper.r):
            col = dcc_bit_column(q, b, l, coupling)
            rows = np.flatnonzero(col != b[:, l])
            if rows.size:
                coupling.flip(rows, l, 2.0 * col[rows])
                b[rows, l] = col[rows]
    return b


def run_round(state, stats, chunk, seed):
    """Execute one full round on a preprocessed chunk and commit it.

    Returns (CodeBlock, objective trace).  The trace holds the surrogate
    objective after each outer iteration.  On a non-finite objective the
    projection matrices are restored and RoundAborted is raised.
    """
    h = state.hyper
    saved = {n: getattr(state, n).copy() for n in ("w", "u", "v", "p")}
    b, w_yt, tag_sq, weights = init_round(chunk, state, seed)
    phi_gram = chunk.phi.T @ chunk.phi
    bt_phi = b.T @ chunk.phi
    bt_b = b.T @ b
    trace = []
    try:
        with blas.one_lapack_thread():
            if h.mu > 0:
                p_factor = factor_p_system(stats, phi_gram, h)
            for _ in range(h.iters):
                if h.beta > 0:
                    state.u = update_u(stats, h, bt_b, bt_phi)
                if h.mu > 0:
                    state.p = update_p(stats, p_factor, bt_phi)
                if h.theta > 0:
                    state.v = update_v(stats, chunk, b, h, bt_b)
                if h.tag_regression:
                    weights = compute_reweights(tag_sq, h.epsilon_norm)
                    state.w = update_w(stats, chunk, b, weights, h)
                    w_yt = tag_projection(state.w, chunk.y)
                q = assemble_q(chunk, state, weights, w_yt)
                b = update_b_dcc(q, b, state, weights)
                bt_phi = b.T @ chunk.phi
                bt_b = b.T @ b
                if h.tag_regression:
                    tag_sq = tag_residual_sq(chunk.y_sq, b, state.w, w_yt)
                try:
                    obj = objective_value(state, stats, chunk, b, weights,
                                          phi_gram, bt_phi, bt_b, tag_sq)
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
    commit_round(state, stats, chunk, b, weights, phi_gram, bt_phi, bt_b)
    # b is column-major; its signs pack about 3x faster from a row-major copy
    return CodeBlock(pack_signs(np.greater(b, 0.0, order="C")), h.r), trace
