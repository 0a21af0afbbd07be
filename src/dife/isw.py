"""Instance selective whitening.

Covariance of SNR-enhanced features is compared between an image and its
photometric twin; entries whose variance across the pair is high carry
style and get penalized, entries with low variance carry content and are
left alone.  The high/low split is a deterministic 1-D k-means.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import tensor as T
from .tensor import Tensor, ContractError

__all__ = [
    "CovarianceStats",
    "DegenerateClusterError",
    "feature_covariance",
    "covariance_variance",
    "kmeans_1d",
    "build_mask",
    "isw_loss",
    "update_warmup",
]


class DegenerateClusterError(ValueError):
    """Fewer distinct values than clusters; no meaningful separation exists."""


def feature_covariance(f):
    """Per-sample channel covariance of f, shape (N, 1, C, C).

    Theta = F_c F_c^T / HW, with F_c the (C, HW) map less its per-channel
    spatial mean.  One tape node; its backward is dF = (G + G^T) F_c / HW
    (G the gradient of Theta).  The rows of F_c have zero mean, so dF has
    no spatial mean to remove.
    """
    n, c, h, w = f.shape
    if h * w == 0:
        raise ContractError("feature_covariance: empty spatial extent")
    fc = (f.data - f.data.mean(axis=(2, 3), keepdims=True)).reshape(n, 1, c, h * w)
    inv_hw = 1.0 / (h * w)
    theta = Tensor((fc @ fc.swapaxes(2, 3)) * inv_hw)

    def bwd(g):
        return (((g + g.swapaxes(2, 3)) @ fc).reshape(n, c, h, w) * inv_hw,)

    return T._maybe_record(theta, (f,), bwd)


def covariance_variance(theta_x, theta_tx):
    """Elementwise variance V over a batch of covariance pairs, both (C, C) arrays.

    Per entry, V averages the squared deviations of both views from the pair
    mean; the result is batch-averaged.
    """
    tx = np.asarray(theta_x, dtype=np.float64)
    ttx = np.asarray(theta_tx, dtype=np.float64)
    if tx.shape != ttx.shape:
        raise T.ShapeError(f"covariance_variance: {tx.shape} vs {ttx.shape}")
    if tx.ndim == 2:
        tx = tx[None]
        ttx = ttx[None]
    mu = 0.5 * (tx + ttx)
    v = 0.5 * ((tx - mu) ** 2 + (ttx - mu) ** 2)
    return v.mean(axis=0)


def kmeans_1d(values, k, max_iter=None):
    """Globally optimal 1-D k-means via dynamic programming.

    In one dimension the optimal clustering partitions the sorted values into
    k contiguous runs, so a dynamic program over run boundaries finds the
    exact minimum within-cluster sum of squares (Lloyd iterations can stall
    in local optima on scalars).  It does O(n^2 k) work as k vectorized rows
    over an (n, n) segment-cost matrix.  Returns (labels, centroids) with
    centroids ascending; label i refers to centroids[i].  Deterministic.
    """
    vals = np.asarray(list(values), dtype=np.float64)
    if k < 2:
        raise ContractError(f"kmeans_1d: k must be >= 2, got {k}")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ContractError(f"kmeans_1d: non-finite value {vals[bad[0]]} at index {bad[0]}")
    distinct = np.unique(vals).size
    if distinct < k:
        raise DegenerateClusterError(f"kmeans_1d: {distinct} distinct values < k={k}")
    n = vals.size
    order = np.argsort(vals, kind="stable")
    s = vals[order]
    # cost_t[j, i] = SSE of the run s[i:j+1] from prefix sums, stored
    # transposed so each end j is a contiguous row; runs with i > j cost inf
    ps = np.concatenate(([0.0], np.cumsum(s)))
    ps2 = np.concatenate(([0.0], np.cumsum(s * s)))
    idx = np.arange(n)
    cnt = np.maximum(idx[:, None] - idx[None, :] + 1, 1)
    tot = ps[1:, None] - ps[None, :-1]
    cost_t = (ps2[1:, None] - ps2[None, :-1]) - tot * tot / cnt
    cost_t[idx[None, :] > idx[:, None]] = np.inf
    dp = np.full((k, n), np.inf)
    split = np.zeros((k, n), dtype=np.int64)
    dp[0] = cost_t[:, 0]
    for m in range(1, k):
        # column r of cand is the last run starting at i = m + r; argmin keeps the first minimum
        cand = cost_t[m:, m:] + dp[m - 1, None, m - 1 : n - 1]
        best = np.argmin(cand, axis=1)
        dp[m, m:] = cand[idx[: n - m], best]
        split[m, m:] = m + best
    # walk the split table back to recover run boundaries
    bounds = np.empty(k + 1, dtype=np.int64)
    bounds[k] = n
    j = n - 1
    for m in range(k - 1, 0, -1):
        i = split[m, j]
        bounds[m] = i
        j = i - 1
    bounds[0] = 0
    sorted_labels = np.empty(n, dtype=np.int64)
    centroids = np.empty(k, dtype=np.float64)
    for m in range(k):
        lo, hi = bounds[m], bounds[m + 1]
        sorted_labels[lo:hi] = m
        centroids[m] = s[lo:hi].mean()
    labels = np.empty(n, dtype=np.int64)
    labels[order] = sorted_labels
    return labels, centroids


def build_mask(v, k):
    """Boolean (C, C) mask of style-sensitive covariance entries.

    Strictly-upper-triangular entries of v are clustered; everything not in
    the lowest-centroid cluster is masked, mirrored below the diagonal.
    The diagonal is never masked.
    """
    v = np.asarray(v, dtype=np.float64)
    c = v.shape[0]
    iu = np.triu_indices(c, k=1)
    entries = v[iu]
    mask = np.zeros((c, c), dtype=bool)
    if entries.size == 0:
        return mask
    try:
        labels, _ = kmeans_1d(entries, k)
    except DegenerateClusterError:
        warnings.warn("build_mask: degenerate variance matrix, freezing an empty mask")
        return mask
    high = labels > 0
    mask[iu] = high
    return mask | mask.T


def isw_loss(theta_x, theta_tx, mask):
    """Mean |theta| over masked positions, averaged over views and batch.

    theta_x / theta_tx are differentiable (N, 1, C, C) tensors; the mask is
    a frozen boolean (C, C) array.  Empty mask contributes exactly 0.  One
    tape node: with s = 1 / (2 N nnz) the loss is s * sum(|theta| * mask)
    over both views, and each view's gradient is sign(theta) * mask * g s,
    exact since both factors are 0 or +-1.
    """
    mask = np.asarray(mask, dtype=bool)
    if theta_x.shape != theta_tx.shape or theta_x.shape[1:] != (1, *mask.shape):
        raise T.ShapeError(f"isw_loss: views {theta_x.shape} {theta_tx.shape}, mask {mask.shape}")
    nnz = int(mask.sum())
    if nnz == 0:
        return T.scalar(0.0)
    m = mask.astype(np.float64)
    s = 1.0 / (2 * theta_x.shape[0] * nnz)
    tx, ttx = theta_x.data, theta_tx.data
    total = (np.abs(tx) * m).sum() + (np.abs(ttx) * m).sum()

    def bwd(g):
        gm = m * (g * s)
        return (np.sign(tx) * gm, np.sign(ttx) * gm)

    return T._maybe_record(Tensor((total * s).reshape(1, 1, 1, 1)), (theta_x, theta_tx), bwd)


class CovarianceStats:
    """Warmup accumulator and frozen style mask for one instrumented stage."""

    def __init__(self, channels, k):
        self.channels = channels
        self.k = k
        self.v_sum = np.zeros((channels, channels))
        self.batches_seen = 0
        self.mask = None

    @property
    def frozen(self):
        return self.mask is not None

    @property
    def v(self):
        if self.batches_seen == 0:
            return np.zeros((self.channels, self.channels))
        return self.v_sum / self.batches_seen

    def freeze(self):
        self.mask = build_mask(self.v, self.k)
        return self.mask


def update_warmup(stats, theta_x, theta_tx):
    """Accumulate one batch of covariance pairs into the running mean of V."""
    if stats.frozen:
        raise ContractError("update_warmup: mask already frozen")
    tx = theta_x.data if isinstance(theta_x, Tensor) else np.asarray(theta_x)
    ttx = theta_tx.data if isinstance(theta_tx, Tensor) else np.asarray(theta_tx)
    tx = tx.reshape(-1, stats.channels, stats.channels)
    ttx = ttx.reshape(-1, stats.channels, stats.channels)
    stats.v_sum += covariance_variance(tx, ttx)
    stats.batches_seen += 1
    return stats
