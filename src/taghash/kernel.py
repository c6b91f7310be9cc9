"""RBF anchor kernel mapping.

Raw feature vectors are expanded into similarities against a fixed set of
anchor points drawn from the first data chunk.  The anchor set and kernel
width are frozen after the first round; every later chunk and every query
is mapped with the same anchors.
"""
import numpy as np


class InsufficientDataError(ValueError):
    """First chunk holds fewer rows than the requested anchor count."""


class DegenerateKernelError(ValueError):
    """All samples coincide with all anchors; kernel width would be zero."""


class AnchorSet:
    """Fixed anchor points plus the kernel width used by the RBF map.

    Immutable once built; safe to share across threads.
    """

    def __init__(self, anchors, kernel_width):
        anchors = np.asarray(anchors, dtype=np.float64)
        if anchors.ndim != 2 or anchors.shape[0] < 1:
            raise ValueError("anchors must be a nonempty 2-D array")
        if not kernel_width > 0:
            raise ValueError("kernel_width must be positive")
        self.anchors = anchors
        self.anchors.setflags(write=False)
        # squared anchor norms, read by every rbf_map call; set here, not on
        # first use, so a loaded set has the same attributes as a built one
        self.sq_norms = np.sum(anchors * anchors, axis=1)
        self.sq_norms.setflags(write=False)
        self.kernel_width = float(kernel_width)

    @property
    def m(self):
        return self.anchors.shape[0]

    @property
    def d(self):
        return self.anchors.shape[1]


def select_anchors(first_chunk, m, seed):
    """Sample m distinct rows of the first chunk, uniformly without replacement.

    Returns the (m, d) anchor matrix; build_anchor_set pairs it with the
    kernel width.
    """
    x = np.asarray(first_chunk, dtype=np.float64)
    n = x.shape[0]
    if n < m:
        raise InsufficientDataError(
            f"first chunk has {n} rows, cannot draw {m} anchors")
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=m, replace=False)
    return x[idx].copy()


def _pairwise_dists(x, anchors, anchor_sq):
    # (n, m) Euclidean distances; squared form clipped at 0 for stability.
    # anchor_sq holds the anchors' squared norms.  Each step after the product
    # writes into the product's buffer: an n x m array is the largest a
    # round allocates.
    d = 2.0 * x @ anchors.T
    np.subtract(np.sum(x * x, axis=1)[:, None], d, out=d)
    d += anchor_sq[None, :]
    np.maximum(d, 0.0, out=d)
    return np.sqrt(d, out=d)


def _similarities(d, sigma):
    # exp(-d^2 / (2 sigma^2)) of the distances d, written into d's buffer
    np.multiply(d, d, out=d)
    np.negative(d, out=d)
    d /= 2.0 * sigma ** 2
    return np.exp(d, out=d)


def check_feature_shape(x, anchor_set):
    """x, an array, refused unless it is (n, d) for the anchors' d."""
    if x.ndim != 2 or x.shape[1] != anchor_set.d:
        raise ValueError(
            f"expected (n, {anchor_set.d}) features, got {x.shape}")
    return x


def rbf_map(x, anchor_set):
    """Map raw features to anchor similarities exp(-dist^2 / (2 sigma^2)).

    Output shape (n, m); every entry in (0, 1], with 1 exactly where a
    sample coincides with an anchor.  Raises ValueError on NaN or inf
    features, which would otherwise hash silently.
    """
    x = check_feature_shape(np.asarray(x, dtype=np.float64), anchor_set)
    if not np.isfinite(x).all():
        raise ValueError("features contain NaN or inf")
    d = _pairwise_dists(x, anchor_set.anchors, anchor_set.sq_norms)
    return _similarities(d, anchor_set.kernel_width)


def build_anchor_set(first_chunk, m, seed):
    """Fit the kernel on the first chunk; returns (AnchorSet, phi).

    The anchors are select_anchors' m rows of the chunk, the width is the
    mean distance over all (sample, anchor) pairs, and phi is the chunk's
    rbf_map against that anchor set, formed in the buffer of the same
    distance matrix.  Raises ValueError on NaN or inf features, as rbf_map
    does, and on features so large that the width is not finite.
    """
    x = np.asarray(first_chunk, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("features contain NaN or inf")
    anchors = select_anchors(x, m, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        d = _pairwise_dists(x, anchors, np.sum(anchors * anchors, axis=1))
        sigma = float(np.mean(d))
    if not np.isfinite(sigma):
        raise ValueError("features too large for the kernel: the mean "
                         "sample-anchor distance is not finite")
    if sigma == 0.0:
        raise DegenerateKernelError("all samples equal all anchors")
    return AnchorSet(anchors, sigma), _similarities(d, sigma)
