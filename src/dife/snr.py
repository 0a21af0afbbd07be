"""Style normalization and restitution.

Instance-normalizes a feature map, splits the removed residual into
task-relevant / task-irrelevant parts with a channel-attention gate, and
scores the split with an entropy-margin loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, Parameter, ShapeError

__all__ = [
    "ChannelAttention",
    "SnrOutput",
    "instance_normalize",
    "channel_attention",
    "restitution_split",
    "dual_causality_terms",
    "snr_forward",
]

IN_EPS = 1e-5


class ChannelAttention:
    """Squeeze-style gate: GAP -> FC(C/r) -> ReLU -> FC(C) -> sigmoid."""

    def __init__(self, channels, reduction=4, rng=None, name="att"):
        if channels % reduction != 0:
            raise T.ContractError(
                f"attention reduction {reduction} must divide channel count {channels}"
            )
        self.channels = channels
        self.reduction = reduction
        hidden = channels // reduction
        rng = rng if rng is not None else np.random.default_rng(0)
        s1 = np.sqrt(2.0 / channels)
        s2 = np.sqrt(2.0 / hidden)
        self.fc1_w = Parameter(rng.normal(0.0, s1, (hidden, channels, 1, 1)), f"{name}.fc1.w")
        self.fc1_b = Parameter(np.zeros((1, hidden, 1, 1)), f"{name}.fc1.b")
        self.fc2_w = Parameter(rng.normal(0.0, s2, (channels, hidden, 1, 1)), f"{name}.fc2.w")
        self.fc2_b = Parameter(np.zeros((1, channels, 1, 1)), f"{name}.fc2.b")

    def parameters(self):
        return [self.fc1_w, self.fc1_b, self.fc2_w, self.fc2_b]


@dataclass
class SnrOutput:
    """All intermediate maps of one SNR pass; f_plus feeds the next stage."""

    f_norm: Tensor
    f_plus: Tensor
    f_minus: Tensor
    r_plus: Tensor
    r_minus: Tensor
    alpha: Tensor


def instance_normalize(f, eps=IN_EPS):
    """Standardize each (n, c) slice over its spatial positions.

    One tape node.  With y the output and inv_std = (var + eps)^(-1/2) the
    backward is dx = inv_std * (g - mean(g) - y * mean(g * y)), means over
    the slice (Ulyanov et al., arXiv:1607.08022).
    """
    if eps < 0:
        raise T.ContractError(f"eps must be >= 0, got {eps}")
    centered = f.data - f.data.mean(axis=(2, 3), keepdims=True)
    var = (centered * centered).mean(axis=(2, 3), keepdims=True)
    inv_std = 1.0 / np.sqrt(var + float(eps))
    y = centered * inv_std

    def bwd(g):
        gy = (g * y).mean(axis=(2, 3), keepdims=True)
        return (inv_std * (g - g.mean(axis=(2, 3), keepdims=True) - y * gy),)

    return T._maybe_record(Tensor(y), (f,), bwd)


def channel_attention(r, att):
    """Per-channel gate alpha in (0,1), shape (N, C, 1, 1)."""
    if r.shape[1] != att.channels:
        raise ShapeError(f"channel_attention: C={r.shape[1]} but gate built for {att.channels}")
    pooled = T.global_avg_pool(r)
    h = T.relu(T.fully_connected(pooled, att.fc1_w.tensor, att.fc1_b.tensor))
    return T.sigmoid(T.fully_connected(h, att.fc2_w.tensor, att.fc2_b.tensor))


def restitution_split(residual, alpha):
    """Gate the residual f - f_norm into (r_plus, r_minus) = (alpha*r, r - alpha*r)."""
    r_plus = T.mul(residual, alpha)
    return r_plus, T.sub(residual, r_plus)


def _entropy(x):
    """Per-pixel Shannon entropy of the channel softmax of the array x,
    (N, 1, H, W), and its derivative by each logit, -p (log p + entropy)."""
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    logp = np.log(np.maximum(p, 1e-300))
    ent = -(p * logp).sum(axis=1, keepdims=True)
    return ent, -p * (logp + ent)


def _entropy_margin(hi, lo):
    """Batch mean of softplus(spatial mean of H(hi) - H(lo)), one tape node.

    hi and lo are (map, entropy, d entropy / d map) triples.  With gap the
    per-sample mean and g the output gradient, each map's gradient is
    t * d entropy / d map, t = g / N * sigmoid(gap) / HW, negated for lo.
    """
    (f_hi, e_hi, d_hi), (f_lo, e_lo, d_lo) = hi, lo
    n, _, h, w = f_hi.shape
    gap = (e_hi - e_lo).mean(axis=(2, 3), keepdims=True)

    def bwd(g):
        t = g / n * (1.0 / (1.0 + np.exp(-gap))) / (h * w)
        return (t * d_hi, -t * d_lo)

    out = Tensor(np.logaddexp(0.0, gap).mean(axis=0, keepdims=True))
    return T._maybe_record(out, (f_hi, f_lo), bwd)


def dual_causality_terms(f_norm, f_plus, f_minus):
    """Entropy-separation losses (L+, L-) between enhanced and corrupted features.

    Per sample: spatial mean of entropy differences, softplus-wrapped; L+
    pushes the enhanced branch below the normalized features' entropy, L-
    pushes the corrupted branch above it.  Batch dimension averaged last.
    Each map's entropy is computed once; each term is one tape node.
    """
    if not (f_norm.shape == f_plus.shape == f_minus.shape):
        raise ShapeError(
            f"dual_causality_terms: shapes differ {f_norm.shape} {f_plus.shape} {f_minus.shape}"
        )
    if f_norm.shape[1] < 2:
        raise ShapeError(f"dual_causality_terms: needs C >= 2, got C={f_norm.shape[1]}")
    norm, plus, minus = ((f, *_entropy(f.data)) for f in (f_norm, f_plus, f_minus))
    return _entropy_margin(plus, norm), _entropy_margin(norm, minus)


def snr_forward(f, att, eps=IN_EPS):
    """Full SNR pass; downstream consumers use .f_plus."""
    f_norm = instance_normalize(f, eps)
    residual = T.sub(f, f_norm)
    alpha = channel_attention(residual, att)
    r_plus, r_minus = restitution_split(residual, alpha)
    f_plus = T.add(f_norm, r_plus)
    f_minus = T.add(f_norm, r_minus)
    return SnrOutput(f_norm=f_norm, f_plus=f_plus, f_minus=f_minus,
                     r_plus=r_plus, r_minus=r_minus, alpha=alpha)
