"""Tiny encoder-decoder segmentation network hosting the SNR/ISW blocks.

Encoder stages: conv3x3 -> ReLU -> conv3x3 -> ReLU, with a stride-2
downsample after stages 1 and 2 so the decoder's two bilinear x2 stages
restore full resolution.  SNR is applied to configured stage outputs (its
enhanced map feeds the next stage); covariance pairs are recorded for
configured stages from the raw/twin views.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from . import snr as S
from . import isw as W
from .tensor import Tensor, Parameter, ContractError, ShapeError

__all__ = [
    "NetConfig",
    "ForwardRecord",
    "SegNet",
    "forward_pair",
    "task_loss",
    "total_loss",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = b"DIFE"
CHECKPOINT_VERSION = 1

DC_MODES = ("full", "no_plus", "no_minus", "none")


@dataclass
class NetConfig:
    stage_channels: tuple = (8, 16, 32)
    num_classes: int = 4
    in_channels: int = 3
    snr_stages: frozenset = frozenset({2, 3})
    isw_stages: frozenset = frozenset({1, 2, 3})
    lambda1: float = 0.6
    lambda2: float = 1.0
    attention_reduction: int = 4
    k: int = 2
    warmup_epochs: int = 5
    dc_mode: str = "full"
    in_eps: float = S.IN_EPS

    def __post_init__(self):
        self.stage_channels = tuple(int(c) for c in self.stage_channels)
        self.snr_stages = frozenset(int(s) for s in self.snr_stages)
        self.isw_stages = frozenset(int(s) for s in self.isw_stages)
        n = len(self.stage_channels)
        valid = set(range(1, n + 1))
        if not self.snr_stages <= valid or not self.isw_stages <= valid:
            raise ContractError(
                f"block stages must lie in 1..{n}: snr={sorted(self.snr_stages)} "
                f"isw={sorted(self.isw_stages)}"
            )
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ContractError("lambda1 and lambda2 must be non-negative")
        if self.dc_mode not in DC_MODES:
            raise ContractError(f"dc_mode must be one of {DC_MODES}, got {self.dc_mode!r}")
        for s in self.snr_stages:
            if self.stage_channels[s - 1] % self.attention_reduction != 0:
                raise ContractError(
                    f"attention reduction {self.attention_reduction} does not divide "
                    f"stage {s} width {self.stage_channels[s - 1]}"
                )


@dataclass
class ForwardRecord:
    logits: Tensor
    snr_outputs: dict = field(default_factory=dict)   # stage -> SnrOutput (raw view)
    cov_pairs: dict = field(default_factory=dict)     # stage -> (theta_x, theta_tx)


def _he_conv(rng, c_out, c_in, k, name):
    std = np.sqrt(2.0 / (c_in * k * k))
    w = Parameter(rng.normal(0.0, std, (c_out, c_in, k, k)), f"{name}.w")
    b = Parameter(np.zeros((1, c_out, 1, 1)), f"{name}.b")
    return w, b


class SegNet:
    """Parameters and forward passes; block math lives in snr/isw modules."""

    def __init__(self, cfg, seed=0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        chans = cfg.stage_channels
        self.stages = []
        c_in = cfg.in_channels
        for i, c in enumerate(chans, start=1):
            stage = {
                "conv_a": _he_conv(rng, c, c_in, 3, f"enc{i}.conv_a"),
                "conv_b": _he_conv(rng, c, c, 3, f"enc{i}.conv_b"),
            }
            if i < len(chans):
                stage["down"] = _he_conv(rng, c, c, 3, f"enc{i}.down")
            self.stages.append(stage)
            c_in = c
        self.attention = {}
        for s in sorted(cfg.snr_stages):
            self.attention[s] = S.ChannelAttention(
                chans[s - 1], cfg.attention_reduction, rng=rng, name=f"snr{s}.att"
            )
        self.dec1 = _he_conv(rng, chans[1], chans[2], 3, "dec1.conv")
        self.dec2 = _he_conv(rng, chans[0], chans[1], 3, "dec2.conv")
        self.head = _he_conv(rng, cfg.num_classes, chans[0], 1, "head.conv")

    def parameters(self):
        params = []
        for stage in self.stages:
            for key in ("conv_a", "conv_b", "down"):
                if key in stage:
                    params.extend(stage[key])
        for s in sorted(self.attention):
            params.extend(self.attention[s].parameters())
        params.extend(self.dec1)
        params.extend(self.dec2)
        params.extend(self.head)
        return params

    def encode(self, x, record=None, use_blocks=True):
        """Run the encoder; returns per-stage output features (post-SNR)."""
        cfg = self.cfg
        feats = []
        h = x
        for i, stage in enumerate(self.stages, start=1):
            w, b = stage["conv_a"]
            h = T.relu(T.conv2d(h, w.tensor, b.tensor, stride=1, pad=1))
            w, b = stage["conv_b"]
            h = T.relu(T.conv2d(h, w.tensor, b.tensor, stride=1, pad=1))
            if "down" in stage:
                w, b = stage["down"]
                h = T.relu(T.conv2d(h, w.tensor, b.tensor, stride=2, pad=1))
            if use_blocks and i in cfg.snr_stages:
                out = S.snr_forward(h, self.attention[i], cfg.in_eps)
                if record is not None:
                    record[i] = out
                h = out.f_plus
            feats.append(h)
        return feats

    def decode(self, feat):
        w, b = self.dec1
        h = T.relu(T.conv2d(T.upsample_bilinear2x(feat), w.tensor, b.tensor, stride=1, pad=1))
        w, b = self.dec2
        h = T.relu(T.conv2d(T.upsample_bilinear2x(h), w.tensor, b.tensor, stride=1, pad=1))
        w, b = self.head
        return T.conv2d(h, w.tensor, b.tensor, stride=1, pad=0)

    def forward(self, x):
        """Plain inference path: logits for one view, no block records."""
        feats = self.encode(x)
        return self.decode(feats[-1])

    def forward_baseline(self, x):
        """Reference path compiled without any block code (reduction check)."""
        feats = self.encode(x, use_blocks=False)
        return self.decode(feats[-1])


def forward_pair(x, tx, net, cfg=None):
    """Run both views through the encoder; logits come from the raw view."""
    cfg = cfg or net.cfg
    if x.shape != tx.shape:
        raise ShapeError(f"forward_pair: view shapes differ {x.shape} vs {tx.shape}")
    snr_rec = {}
    feats_x = net.encode(x, record=snr_rec)
    record = ForwardRecord(logits=net.decode(feats_x[-1]), snr_outputs=snr_rec)
    if cfg.isw_stages:
        feats_tx = net.encode(tx)
        for s in sorted(cfg.isw_stages):
            theta_x = W.feature_covariance(feats_x[s - 1])
            theta_tx = W.feature_covariance(feats_tx[s - 1])
            record.cov_pairs[s] = (theta_x, theta_tx)
    return record


def task_loss(logits, mask, ignore_index=-1):
    """Cross-entropy over non-ignored pixels."""
    return T.cross_entropy(logits, mask, ignore_index=ignore_index)


def total_loss(record, mask, cfg, stats_by_stage=None, ignore_index=-1):
    """Task loss plus weighted per-stage ISW and dual-causality terms.

    stats_by_stage maps stage -> CovarianceStats; ISW terms require the
    frozen masks and are simply excluded when stats_by_stage is None
    (warmup) or lambda1 == 0.  Returns (loss, breakdown dict).
    """
    loss = task_loss(record.logits, mask, ignore_index)
    breakdown = {"task": loss.item()}
    if cfg.lambda2 > 0 and cfg.dc_mode != "none":
        for s, out in sorted(record.snr_outputs.items()):
            lp, lm = S.dual_causality_terms(out.f_norm, out.f_plus, out.f_minus)
            if cfg.dc_mode == "full":
                dc = T.add(lp, lm)
            elif cfg.dc_mode == "no_plus":
                dc = lm
            else:
                dc = lp
            breakdown[f"dc_{s}"] = dc.item()
            loss = T.add(loss, T.scale(dc, cfg.lambda2))
    if stats_by_stage is not None and cfg.lambda1 > 0:
        for s, (theta_x, theta_tx) in sorted(record.cov_pairs.items()):
            stats = stats_by_stage.get(s)
            if stats is None or not stats.frozen:
                raise ContractError(f"total_loss: ISW mask for stage {s} is not frozen yet")
            term = W.isw_loss(theta_x, theta_tx, stats.mask)
            breakdown[f"isw_{s}"] = term.item()
            loss = T.add(loss, T.scale(term, cfg.lambda1))
    breakdown["total"] = loss.item()
    return loss, breakdown


def save_checkpoint(path, net):
    """Binary dump: magic, version u16, then one record per parameter."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        params = net.parameters()
        fh.write(struct.pack("<I", len(params)))
        for p in params:
            name = p.name.encode("utf-8")
            fh.write(struct.pack("<H", len(name)))
            fh.write(name)
            fh.write(struct.pack("<4I", *p.tensor.shape))
            fh.write(p.tensor.data.astype("<f8").tobytes())


def load_checkpoint(path, net):
    """Load parameters into net; any file but an exact match raises ContractError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ContractError(f"checkpoint {path}: bad magic {blob[:4]!r}")
    off = 4

    def take(size):
        nonlocal off
        if off + size > len(blob):
            raise ContractError(f"checkpoint {path}: truncated at {len(blob)} bytes, "
                                f"needs at least {off + size}")
        off += size
        return blob[off - size : off]

    (version,) = struct.unpack("<H", take(2))
    if version != CHECKPOINT_VERSION:
        raise ContractError(f"checkpoint {path}: unsupported version {version}")
    (count,) = struct.unpack("<I", take(4))
    names = {p.name for p in net.parameters()}
    table = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        name = take(nlen).decode("utf-8", "replace")
        if name not in names or name in table:
            why = "is repeated" if name in table else "is not a parameter of this net"
            raise ContractError(f"checkpoint {path}: parameter {name!r} {why}")
        dims = struct.unpack("<4I", take(16))
        table[name] = np.frombuffer(take(8 * int(np.prod(dims, dtype=object))),
                                    dtype="<f8").reshape(dims)
    if off != len(blob):
        raise ContractError(f"checkpoint {path}: {len(blob) - off} trailing bytes after byte {off}")
    for p in net.parameters():
        if p.name not in table:
            raise ContractError(f"checkpoint {path}: missing parameter {p.name}")
        arr = table[p.name]
        if arr.shape != p.tensor.shape:
            raise ContractError(
                f"checkpoint {path}: {p.name} shape {arr.shape} != expected {p.tensor.shape}"
            )
        p.tensor.data = arr.astype(np.float64).copy()
        p.momentum_buf = np.zeros_like(p.tensor.data)
    return net
