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
from .fields import check_fields, ranged
from .tensor import Tensor, Parameter, ContractError, ShapeError

__all__ = [
    "NetConfig",
    "ForwardRecord",
    "SegNet",
    "forward_pair",
    "twin_covariances",
    "task_loss",
    "add_isw_terms",
    "total_loss",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = b"DIFE"
CHECKPOINT_VERSION = 1

DC_MODES = ("full", "no_plus", "no_minus")


@dataclass
class NetConfig:
    stage_channels: tuple = ranged((8, 16, 32), "[1, inf)")
    num_classes: int = ranged(4, "[2, inf)")
    snr_stages: frozenset = ranged(frozenset({2, 3}), "[1, 3]")
    isw_stages: frozenset = ranged(frozenset({1, 2, 3}), "[1, 3]")
    lambda1: float = ranged(0.6, "[0, inf)")
    lambda2: float = ranged(1.0, "[0, inf)")
    attention_reduction: int = ranged(4, "[1, inf)")
    k: int = ranged(2, "[2, inf)")
    dc_mode: str = ranged("full", DC_MODES)

    def __post_init__(self):
        check_fields(self)
        if len(self.stage_channels) != 3:
            raise ContractError(f"stage_channels: expected three widths, got {list(self.stage_channels)}")
        for s in self.snr_stages:
            if self.stage_channels[s - 1] % self.attention_reduction != 0:
                raise ContractError(
                    f"attention_reduction: expected a divisor of stage {s} width "
                    f"{self.stage_channels[s - 1]}, got {self.attention_reduction}"
                )

    @property
    def use_isw(self):
        """True when an ISW term reads the twin view: ISW stages and lambda1 > 0."""
        return bool(self.isw_stages) and self.lambda1 > 0


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


def _conv(h, conv, stride=1):
    """conv = (w, b) over h, zero-padded to keep the size at stride 1."""
    w, b = conv
    return T.conv2d(h, w.tensor, b.tensor, stride=stride, pad=w.tensor.shape[2] // 2)


class SegNet:
    """Parameters and forward passes; block math lives in snr/isw modules.
    Each conv is declared once, in draw and parameter order: `stages` (one
    ((w, b), stride) list per encoder stage), the SNR gates, `decoder`, `head`."""

    def __init__(self, cfg, seed=0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        chans = cfg.stage_channels
        self.stages = []
        # the first stage reads RGB, the only image format the reader accepts
        for i, (c_in, c) in enumerate(zip((3, *chans), chans), start=1):
            # a stride-2 downsample ends every stage but the last
            layers = [("conv_a", c_in, 1), ("conv_b", c, 1)] + [("down", c, 2)] * (i < len(chans))
            self.stages.append([(_he_conv(rng, c, ci, 3, f"enc{i}.{key}"), stride)
                                for key, ci, stride in layers])
        self.attention = {s: S.ChannelAttention(chans[s - 1], cfg.attention_reduction, rng=rng,
                                                name=f"snr{s}.att")
                          for s in sorted(cfg.snr_stages)}
        self.decoder = [_he_conv(rng, chans[-1 - j], chans[-j], 3, f"dec{j}.conv")
                        for j in range(1, len(chans))]
        self.head = _he_conv(rng, cfg.num_classes, chans[0], 1, "head.conv")

    def parameters(self):
        return ([p for stage in self.stages for conv, _ in stage for p in conv]
                + [p for att in self.attention.values() for p in att.parameters()]
                + [p for conv in self.decoder + [self.head] for p in conv])

    def encode(self, x, record=None, use_blocks=True):
        """Run the encoder; returns per-stage output features (post-SNR)."""
        if x.shape[2] % 4 or x.shape[3] % 4:
            # two stride-2 stages, then two 2x upsamples: logits match x only then
            raise ContractError(f"encode: input {x.shape[2]}x{x.shape[3]} is not a multiple of 4")
        feats = []
        h = x
        for i, stage in enumerate(self.stages, start=1):
            for conv, stride in stage:
                h = T.relu(_conv(h, conv, stride))
            if use_blocks and i in self.cfg.snr_stages:
                out = S.snr_forward(h, self.attention[i])
                if record is not None:
                    record[i] = out
                h = out.f_plus
            feats.append(h)
        return feats

    def decode(self, h):
        for conv in self.decoder:
            h = T.relu(_conv(T.upsample_bilinear2x(h), conv))
        return _conv(h, self.head)

    def forward(self, x):
        """Plain inference path: logits for one view, no block records."""
        return self.decode(self.encode(x)[-1])

    def forward_baseline(self, x):
        """Reference path compiled without any block code (reduction check)."""
        return self.decode(self.encode(x, use_blocks=False)[-1])


def forward_pair(x, tx, net):
    """Run both views through the encoder; logits come from the raw view.

    tx is the twin view, encoded here after the raw view, or a callable that
    returns the twin's per-stage covariances (the trainer computes them on
    another thread); it is called once the raw view's covariances exist.
    Neither is touched when no ISW term reads the pair (not cfg.use_isw).
    """
    cfg = net.cfg
    snr_rec = {}
    feats_x = net.encode(x, record=snr_rec)
    record = ForwardRecord(logits=net.decode(feats_x[-1]), snr_outputs=snr_rec)
    if cfg.use_isw:
        theta_x = {s: W.feature_covariance(feats_x[s - 1]) for s in sorted(cfg.isw_stages)}
        theta_tx = tx() if callable(tx) else twin_covariances(tx, net, x.shape)
        record.cov_pairs = {s: (theta_x[s], theta_tx[s]) for s in theta_x}
    return record


def twin_covariances(tx, net, shape):
    """{stage: covariance} of the twin view tx's encoder features at each ISW
    stage; shape is the raw view's, which tx must match."""
    if tx.shape != shape:
        raise ShapeError(f"forward_pair: view shapes differ {shape} vs {tx.shape}")
    feats = net.encode(tx)
    return {s: W.feature_covariance(feats[s - 1]) for s in sorted(net.cfg.isw_stages)}


def task_loss(logits, mask):
    """Cross-entropy over non-ignored pixels.

    total_loss looks this up as a module global, so a profiler can wrap it.
    """
    return T.cross_entropy(logits, mask)


def total_loss(record, mask, cfg, stats_by_stage=None):
    """Task loss plus weighted per-stage ISW and dual-causality terms.

    stats_by_stage maps stage -> CovarianceStats; ISW terms require the
    frozen masks and are simply excluded when stats_by_stage is None
    (warmup) or lambda1 == 0.  Returns (loss, breakdown dict).
    """
    loss = task_loss(record.logits, mask)
    breakdown = {"task": loss.item()}
    if cfg.lambda2 > 0:
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
        loss = add_isw_terms(loss, record.cov_pairs, cfg, stats_by_stage, breakdown)
    breakdown["total"] = loss.item()
    return loss, breakdown


def add_isw_terms(loss, cov_pairs, cfg, stats_by_stage, breakdown):
    """loss plus lambda1 times each stage's ISW term over its frozen mask;
    each term's value goes into breakdown as isw_<stage>."""
    for s, (theta_x, theta_tx) in sorted(cov_pairs.items()):
        stats = stats_by_stage.get(s)
        if stats is None or not stats.frozen:
            raise ContractError(f"total_loss: ISW mask for stage {s} is not frozen yet")
        term = W.isw_loss(theta_x, theta_tx, stats.mask)
        breakdown[f"isw_{s}"] = term.item()
        loss = T.add(loss, T.scale(term, cfg.lambda1))
    return loss


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
        if not np.isfinite(arr).all():
            raise ContractError(f"checkpoint {path}: {p.name} holds a non-finite value")
        p.tensor.data = arr.astype(np.float64).copy()
        p.momentum_buf = np.zeros_like(p.tensor.data)
    return net
