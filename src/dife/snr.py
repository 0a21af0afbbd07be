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
    """Standardize each (n, c) slice over its spatial positions."""
    if eps < 0:
        raise T.ContractError(f"eps must be >= 0, got {eps}")
    mean = T.global_avg_pool(f)
    centered = T.sub(f, mean)
    var = T.global_avg_pool(T.mul(centered, centered))
    # inv_std as a primitive-composed path: x^(-1/2) via explicit op
    inv_std = _rsqrt(T.add_scalar(var, eps))
    return T.mul(centered, inv_std)


def _rsqrt(x):
    y = 1.0 / np.sqrt(x.data)
    out = Tensor(y)
    return T._maybe_record(out, (x,), lambda g: (g * (-0.5) * y / x.data,))


def channel_attention(r, att):
    """Per-channel gate alpha in (0,1), shape (N, C, 1, 1)."""
    if r.shape[1] != att.channels:
        raise ShapeError(f"channel_attention: C={r.shape[1]} but gate built for {att.channels}")
    pooled = T.global_avg_pool(r)
    h = T.relu(T.fully_connected(pooled, att.fc1_w.tensor, att.fc1_b.tensor))
    return T.sigmoid(T.fully_connected(h, att.fc2_w.tensor, att.fc2_b.tensor))


def restitution_split(f, f_norm, alpha):
    """Split the residual f - f_norm into gated halves (r_plus, r_minus)."""
    residual = T.sub(f, f_norm)
    r_plus = T.mul(residual, alpha)
    one_minus = T.add_scalar(T.neg(alpha), 1.0)
    r_minus = T.mul(residual, one_minus)
    return r_plus, r_minus


def dual_causality_terms(f_norm, f_plus, f_minus):
    """Entropy-separation losses (L+, L-) between enhanced and corrupted features.

    Per sample: spatial mean of entropy differences, softplus-wrapped; L+
    pushes the enhanced branch below the normalized features' entropy, L-
    pushes the corrupted branch above it.  Batch dimension averaged last.
    """
    if not (f_norm.shape == f_plus.shape == f_minus.shape):
        raise ShapeError(
            f"dual_causality_terms: shapes differ {f_norm.shape} {f_plus.shape} {f_minus.shape}"
        )
    e_norm = T.pixel_entropy_map(f_norm)
    gap_plus = T.global_avg_pool(T.sub(T.pixel_entropy_map(f_plus), e_norm))
    l_plus = T.batch_mean(T.softplus(gap_plus))
    gap_minus = T.global_avg_pool(T.sub(e_norm, T.pixel_entropy_map(f_minus)))
    l_minus = T.batch_mean(T.softplus(gap_minus))
    return l_plus, l_minus


def snr_forward(f, att, eps=IN_EPS):
    """Full SNR pass; downstream consumers use .f_plus."""
    f_norm = instance_normalize(f, eps)
    alpha = channel_attention(T.sub(f, f_norm), att)
    r_plus, r_minus = restitution_split(f, f_norm, alpha)
    f_plus = T.add(f_norm, r_plus)
    f_minus = T.add(f_norm, r_minus)
    return SnrOutput(f_norm=f_norm, f_plus=f_plus, f_minus=f_minus,
                     r_plus=r_plus, r_minus=r_minus, alpha=alpha)
