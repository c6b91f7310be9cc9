"""Model state, streaming sufficient statistics, and objective evaluators.

All history-dependent quantities are folded into fixed-size accumulators at
the end of each round, so memory and per-round cost never depend on how much
data has already been seen.  The reweighting diagonal of old data is frozen
into D1/D2 at commit time; it is never refreshed afterwards.

A round's tags Y are a float64 CSR matrix, and every product with them runs
over their nonzeros; the tag residual row norms cost n r^2 (tag_residual_sq).
"""
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import AnchorSet
from .semantics import tag_matrix


class StateError(RuntimeError):
    """A call made out of lifecycle order, such as saving or indexing a
    trainer before its first chunk has been processed."""


def _is_count(v):
    """Whether v is an integer >= 0 (an int, not a bool), as JSON gives it."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _is_finite(v):
    """Whether v is a real number (an int or float, not a bool) that a float
    holds finitely."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


@dataclass
class Hyperparams:
    """Trade-off weights and loop counts.

    Defaults follow the reference operating point: alpha=300, beta=0.1,
    theta=0.1, mu=10, 7 outer iterations, 3 code-descent sweeps.
    """

    r: int                      # code length (bits)
    m: int                      # anchor count
    f: int                      # embedding dimension
    c: int                      # tag vocabulary size
    alpha: float = 300.0
    beta: float = 0.1
    theta: float = 0.1
    mu: float = 10.0
    iters: int = 7              # outer iterations per round
    dcc_sweeps: int = 3         # full bit sweeps per code update
    epsilon_norm: float = 1e-6  # floor for residual row norms in reweighting
    tag_regression: bool = True  # False drops the tag-regression term entirely

    def __post_init__(self):
        for name in ("r", "m", "f", "c", "iters", "dcc_sweeps"):
            value = getattr(self, name)
            if not (_is_count(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got "
                                 f"{value!r}")
        for name in ("alpha", "beta", "theta", "mu"):
            value = getattr(self, name)
            if not (_is_finite(value) and value >= 0):
                raise ValueError(f"{name} must be a nonnegative finite "
                                 f"number, got {value!r}")
        if not (_is_finite(self.epsilon_norm) and self.epsilon_norm > 0):
            raise ValueError(f"epsilon_norm must be a positive finite number, "
                             f"got {self.epsilon_norm!r}")
        if not isinstance(self.tag_regression, bool):
            raise ValueError(f"tag_regression must be a bool, got "
                             f"{self.tag_regression!r}")


@dataclass
class RoundData:
    """Everything the optimizer needs for one round, already preprocessed."""

    phi: np.ndarray              # (n, m)
    y: object                    # (n, c) tags, held as a float64 CSR array
    z: np.ndarray                # (n, f)

    def __post_init__(self):
        self.y = tag_matrix(self.y)

    @property
    def n(self):
        return self.phi.shape[0]

    @cached_property
    def y_sq(self):
        """||y_i||^2 per row, summed over the nonzeros."""
        return self.y.power(2) @ np.ones(self.y.shape[1])


class RoundWork:
    """One round's chunk, its codes b, its maps W, U, V, P (U, V and P the
    state's at the start), its weights (set by the caller) and what the
    steps read of them: the live totals c1 = stats.c1 + B'B, c2 = stats.c2
    + B'phi and c3 = stats.c3 + phi'phi (new arrays: only commit_round
    writes the state and statistics), phi_sq = trace(phi'phi), w_yt = W Y'
    and the tag residual row norms tag_sq.  c3 and phi_sq are formed once;
    codes_changed and w_changed are the only places that form the others
    again, and tag_sq is formed when first read after either."""

    def __init__(self, chunk, stats, state, w, b):
        self.chunk = chunk
        self.hyper = state.hyper
        self.u, self.v, self.p = state.u, state.v, state.p
        self._stats = stats
        phi_gram = chunk.phi.T @ chunk.phi
        self.c3 = stats.c3 + phi_gram
        self.phi_sq = float(np.trace(phi_gram))
        self.weights = None
        self.codes_changed(b)
        self.w_changed(w)

    def codes_changed(self, b):
        """Take b as the chunk's codes and form c1 and c2 from it."""
        self.b = b
        self.c1 = self._stats.c1 + b.T @ b
        self.c2 = self._stats.c2 + b.T @ self.chunk.phi
        self._tag_sq = None

    def w_changed(self, w):
        """Take w as the tag projection and form W Y' from it."""
        self.w = w
        self.w_yt = (self.chunk.y @ w.T).T      # through the nonzeros
        self._tag_sq = None

    @property
    def tag_sq(self):
        """||y_i - b_i W||^2 per row, for the current codes and W."""
        if self._tag_sq is None:
            self._tag_sq = tag_residual_sq(self.chunk.y_sq, self.b, self.w,
                                           self.w_yt)
        return self._tag_sq


@dataclass
class ModelState:
    """Learned maps.  The round count and the rows seen are not kept: they
    are the trainer's p_history length and its code blocks' rows summed."""

    w: np.ndarray                # (r, c) codes -> tags
    u: np.ndarray                # (r, m) codes -> kernel features
    v: np.ndarray                # (r, f) codes -> semantics
    p: np.ndarray                # (m, r) hash projection (the public function)
    anchors: AnchorSet
    hyper: Hyperparams

    @classmethod
    def fresh(cls, anchors, hyper):
        r, m, f, c = hyper.r, hyper.m, hyper.f, hyper.c
        return cls(
            w=np.zeros((r, c)), u=np.zeros((r, m)),
            v=np.zeros((r, f)), p=np.zeros((m, r)),
            anchors=anchors, hyper=hyper)


@dataclass
class AccumStats:
    """Streaming sufficient statistics over all committed chunks.

    c1 = sum B'B        (r, r)     c2 = sum B'phi      (r, m)
    c3 = sum phi'phi    (m, m)     c5 = sum B'Z        (r, f)
    d1 = sum B'KB       (r, r)     d2 = sum B'KY       (r, c)
    sum phi'B (m, r) is not stored: it is c2'.
    sy_weighted = sum_i K_ii ||Y_i||^2 and sz = sum ||Z||_F^2 are the scalar
    constants needed to evaluate the historical objective terms exactly.
    """

    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    c5: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    sy_weighted: float = 0.0
    sz: float = 0.0

    @classmethod
    def zeros(cls, hyper):
        r, m, f, c = hyper.r, hyper.m, hyper.f, hyper.c
        return cls(
            c1=np.zeros((r, r)), c2=np.zeros((r, m)), c3=np.zeros((m, m)),
            c5=np.zeros((r, f)), d1=np.zeros((r, r)), d2=np.zeros((r, c)))


def tag_residual_sq(y_sq, b, w, w_yt):
    """Squared norm of each row of Y - B W, at n r^2 cost.

    ||y_i - b_i W||^2 = ||y_i||^2 - 2 b_i . (W y_i') + b_i W W' b_i', from
    y_sq = ||y_i||^2 per row and w_yt = W Y'.  Rounding can take an exact
    fit a little below zero, so the result is clamped at 0.
    """
    t = b @ (w @ w.T)
    t -= 2.0 * w_yt.T
    t *= b
    out = y_sq + np.sum(t, axis=1)
    return np.maximum(out, 0.0, out=out)


def commit_round(state, stats, work):
    """Fold one finished round into the model; the one writer of the state
    and the statistics.

    Non-positive weights and non-finite W, U, V or P are refused before
    anything is written.  The state takes the workspace's maps, c1, c2 and
    c3 its live totals, and the other statistics add the chunk's part under
    its final codes and weights.  The caller keeps only the codes.
    """
    b, k, y, z = work.b, work.weights, work.chunk.y, work.chunk.z
    if np.any(k <= 0):
        raise ValueError("reweighting entries must be strictly positive")
    for name in ("w", "u", "v", "p"):
        if not np.all(np.isfinite(getattr(work, name))):
            raise FloatingPointError(f"non-finite entries in {name}")

    state.w, state.u, state.v, state.p = work.w, work.u, work.v, work.p
    stats.c1, stats.c2, stats.c3 = work.c1, work.c2, work.c3
    stats.c5 += b.T @ z
    # row-major like the sparse product reads it, whatever b's layout
    bk = np.multiply(b, k[:, None], order="C")
    stats.d1 += bk.T @ b
    stats.d2 += (y.T @ bk).T
    stats.sy_weighted += float(np.sum(k * work.chunk.y_sq))
    stats.sz += float(np.sum(z * z))


def objective_value(stats, work):
    """Surrogate objective with frozen reweighting diagonals.

    Current-chunk tag term uses the workspace's weights; historical terms
    are rebuilt exactly from the accumulators.  This is the quantity each
    optimization step descends.

    The two kernel-feature terms, ||phi - BU||^2 and ||B - phi P||^2 over
    history and chunk, are expanded into the workspace's live totals and
    trace(phi'phi), so no n x m residual is formed.  A NaN or inf in phi
    makes that trace non-finite, so phi is checked there.  Only the tag
    term reads the tag residual row norms, and a NaN or inf in y makes them
    non-finite, so y is checked there.
    """
    h = work.hyper
    b, z, k = work.b, work.chunk.z, work.weights
    checked = (b, z, k, work.phi_sq) + (
        (work.tag_sq,) if h.tag_regression else ())
    for a in checked:
        if not np.all(np.isfinite(a)):
            raise FloatingPointError("non-finite input to objective")
    w, u, v, p = work.w, work.u, work.v, work.p

    total = 0.0
    if h.tag_regression:
        total += float(np.sum(k * work.tag_sq))
        total += stats.sy_weighted - 2.0 * float(np.sum(w * stats.d2)) \
            + float(np.sum(w * (stats.d1 @ w)))
    if h.beta > 0:
        # sum over history and chunk of ||phi - BU||^2
        fit = float(np.trace(stats.c3)) + work.phi_sq \
            - 2.0 * float(np.sum(u * work.c2)) \
            + float(np.sum(u * (work.c1 @ u)))
        total += h.beta * fit
    if h.theta > 0:
        res = z - b @ v
        hist = stats.sz - 2.0 * float(np.sum(v * stats.c5)) \
            + float(np.sum(v * (stats.c1 @ v)))
        total += h.theta * (float(np.sum(res * res)) + hist)
    if h.mu > 0:
        # sum over history and chunk of ||B - phi P||^2; phi'B is row-major
        # so that the sum's order, and its last bits, ignore P's layout
        phi_b = np.ascontiguousarray(work.c2.T)
        fit = float(np.trace(work.c1)) - 2.0 * float(np.sum(p * phi_b)) \
            + float(np.sum(p * (work.c3 @ p)))
        total += h.mu * fit
    total += h.alpha * sum(
        float(np.sum(a * a)) for a in (w, u, v, p))
    return total
