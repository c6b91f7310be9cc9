"""One round of alternating optimization.

Five steps per outer iteration: closed-form ridge solves for the four
projection matrices, then cyclic bit-by-bit descent on the chunk's binary
codes.  Every solve combines the committed streaming statistics with the
current chunk's live contribution recomputed from the evolving codes; the
contribution is frozen into the accumulators only at commit time.
Each iteration touches the n-row chunk only where the math requires it:
every tag product runs over the CSR tags' nonzeros (RoundData), and the
code step's linear term projects phi once, through beta U' + mu P.

The codes stay column-major for the whole round, the layout in which the
code step reads one bit's column.  The code step builds its coupling
products once per call and then updates only the rows whose bit flipped
(CodeCoupling).  The r x r systems of U, V and W involve B and are rebuilt
and factored every iteration.  The finished codes are packed into their
words once, straight from their signs.  Every scipy call of the round,
the m x m factor included, runs on one LAPACK thread, so that it does not
wait for cores that numpy's threaded products keep busy (see taghash.blas).

Every step reads the round from one RoundWork (taghash.model), which
holds its codes, W, U, V, P and live contribution: the solves store their
results there, run_round tells it when the codes or W change, and only
commit_round writes the model.  c3 + phi'phi does not depend on the codes,
so the m x m system c3 + phi'phi + (alpha/mu) I is factored once.
"""
import numpy as np
import scipy.linalg
from scipy.linalg.blas import dger

from . import blas
from .codes import CodeBlock, pack_signs
from .model import RoundWork, commit_round, objective_value


class RoundAborted(RuntimeError):
    """Objective went non-finite; the round wrote nothing."""


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


def init_round(chunk, state, seed, rnd):
    """Random column-major codes b for the chunk and the round's first tag
    projection w, as (b, w); rnd counts the rounds committed before.  w is
    the state's W, but at the first round (rnd == 0) it is drawn Gaussian
    with standard deviation 0.01, after the codes.
    """
    h = state.hyper
    rng = np.random.default_rng(seed)
    b = rng.integers(0, 2, size=(chunk.n, h.r)).astype(np.float64, order="F")
    b *= 2.0
    b -= 1.0
    return b, rng.normal(0.0, 0.01, size=(h.r, h.c)) if rnd == 0 else state.w


def update_u(hyper, work):
    """Ridge solve for the codes -> kernel-features projection."""
    ridge = (hyper.alpha / hyper.beta) * np.eye(hyper.r)
    return RidgeFactor(work.c1 + ridge).solve(work.c2)


def factor_p_system(hyper, work):
    """Factor the hash-projection system c3 + phi'phi + (alpha/mu) I, which
    serves every outer iteration of a round."""
    return RidgeFactor(work.c3 + (hyper.alpha / hyper.mu) * np.eye(hyper.m))


def update_p(factor, work):
    """Ridge solve for the hash projection through factor_p_system."""
    return factor.solve(work.c2.T)


def update_v(stats, hyper, work):
    """Ridge solve for the codes -> semantics projection."""
    ridge = (hyper.alpha / hyper.theta) * np.eye(hyper.r)
    return RidgeFactor(work.c1 + ridge).solve(
        stats.c5 + work.b.T @ work.chunk.z)


def compute_reweights(tag_sq, epsilon_norm):
    """Per-row weights 1 / max(||residual row||, floor) for the tag term,
    from the squared residual row norms tag_sq."""
    return 1.0 / np.maximum(np.sqrt(tag_sq), epsilon_norm)


def update_w(stats, hyper, work):
    """Reweighted ridge solve for the codes -> tags projection.

    Historical rows enter through the frozen accumulators; current-chunk
    rows through the workspace's weights.  B'KY runs over the nonzeros.
    """
    # row-major like the sparse product reads it, whatever b's layout
    bk = np.multiply(work.b, work.weights[:, None], order="C")
    a = stats.d1 + bk.T @ work.b + hyper.alpha * np.eye(hyper.r)
    return RidgeFactor(a).solve(stats.d2 + (work.chunk.y.T @ bk).T)


def assemble_q(work):
    """Linear-term matrix of the code subproblem for the current chunk.

    Both kernel-feature terms, beta phi U' and mu phi P, come from one
    projection of phi."""
    h, chunk = work.hyper, work.chunk
    # built bit-major and returned as its column-major transpose, the
    # layout in which update_b_dcc reads one bit's column
    qt = np.zeros((h.r, chunk.n))
    if h.tag_regression:
        qt += work.w_yt * work.weights
    if h.theta > 0:
        qt += h.theta * (work.v @ chunk.z.T)
    if h.beta > 0 or h.mu > 0:
        proj = np.zeros((h.r, h.m))
        if h.beta > 0:
            proj += h.beta * work.u
        if h.mu > 0:
            proj += h.mu * work.p.T
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

    def __init__(self, b, work):
        h = work.hyper
        self.gram = np.zeros((h.r, h.r))
        if h.beta > 0:
            self.gram += h.beta * (work.u @ work.u.T)
        if h.theta > 0:
            self.gram += h.theta * (work.v @ work.v.T)
        # built bit-major, so that the n x r products are column-major like
        # the codes in update_b_dcc and each bit's column is contiguous
        products = self.gram @ b.T
        self.tag = None
        if h.tag_regression:
            self.tag = work.w @ work.w.T
            self.weights = work.weights
            products += (self.tag @ b.T) * work.weights
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


def update_b_dcc(q, work):
    """Cyclic bit-wise descent on the workspace's codes.

    Each bit column is set to its single-bit optimum given the others;
    runs the configured number of full sweeps.  The coupling products are
    built once and then updated on the rows whose bit flipped.  Works on a
    column-major copy of the codes, so that each bit column is contiguous,
    and returns it in that layout.
    """
    b = np.array(work.b, dtype=float, order="F")
    coupling = CodeCoupling(b, work)
    for _ in range(work.hyper.dcc_sweeps):
        for l in range(work.hyper.r):
            col = dcc_bit_column(q, b, l, coupling)
            rows = np.flatnonzero(col != b[:, l])
            if rows.size:
                coupling.flip(rows, l, 2.0 * col[rows])
                b[rows, l] = col[rows]
    return b


def run_round(state, stats, chunk, seed, rnd):
    """Execute one full round on a preprocessed chunk and commit it.

    rnd counts the rounds committed before this one.  Returns (CodeBlock,
    objective trace): the surrogate objective after each outer iteration.
    The steps write only the round's RoundWork and commit_round writes the
    model at the end, so a non-finite objective raises RoundAborted
    ("... at round rnd + 1") with state and stats untouched.
    """
    h = state.hyper
    b, w = init_round(chunk, state, seed, rnd)
    work = RoundWork(chunk, stats, state, w, b)
    work.weights = compute_reweights(work.tag_sq, h.epsilon_norm)
    trace = []
    with blas.one_lapack_thread():
        if h.mu > 0:
            p_factor = factor_p_system(h, work)
        for _ in range(h.iters):
            if h.beta > 0:
                work.u = update_u(h, work)
            if h.mu > 0:
                work.p = update_p(p_factor, work)
            if h.theta > 0:
                work.v = update_v(stats, h, work)
            if h.tag_regression:
                work.weights = compute_reweights(work.tag_sq, h.epsilon_norm)
                work.w_changed(update_w(stats, h, work))
            work.codes_changed(update_b_dcc(assemble_q(work), work))
            try:
                obj = objective_value(stats, work)
            except FloatingPointError as exc:
                raise RoundAborted(str(exc)) from exc
            if not np.isfinite(obj):
                raise RoundAborted(f"non-finite objective at round {rnd + 1}")
            trace.append(obj)
    commit_round(state, stats, work)
    # b is column-major; its signs pack about 3x faster from a row-major copy
    return CodeBlock(pack_signs(np.greater(work.b, 0.0, order="C")),
                     h.r), trace
