"""SGD training loop, polynomial LR schedule, and evaluation."""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import net as N
from . import isw as W
from . import data as D
from .fields import check_fields, ranged
from .metrics import ConfusionCounts, confusion_from_masks, compute_report
from .tensor import Tape, Tensor, ContractError

__all__ = [
    "TrainConfig",
    "NumericalError",
    "poly_lr",
    "sgd_step",
    "train",
    "evaluate",
]


EVAL_BATCH = 8   # images per batch in evaluate, split across the eval threads

_POOL = None     # evaluate's threads, started on first use


class NumericalError(RuntimeError):
    """Training hit a non-finite loss or gradient."""


@dataclass
class TrainConfig:
    lr0: float = ranged(1e-2, "(0, inf)")
    momentum: float = ranged(0.9, "[0, 1)")
    poly_power: float = ranged(0.9, "(0, inf)")
    epochs: int = ranged(20, "[1, inf)")
    batch_size: int = ranged(4, "[1, inf)")
    seed: int = ranged(0, "[0, inf)")
    warmup_epochs: int = ranged(5, "[1, inf)")
    early_stop_patience: int = ranged(10, "[0, inf)")
    flip_augment: bool = ranged(True, (True, False))
    twin: D.PhotometricTransform = field(default_factory=D.PhotometricTransform)

    def __post_init__(self):
        check_fields(self)


def poly_lr(step, total_steps, cfg):
    """lr0 * (1 - step/total)^power; strictly decreasing in step."""
    if total_steps <= 0:
        raise ContractError(f"total_steps must be positive, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside 0..{total_steps}")
    return cfg.lr0 * (1.0 - step / total_steps) ** cfg.poly_power


def sgd_step(params, tape, lr, momentum):
    """buf <- momentum*buf + grad; param <- param - lr*buf."""
    for p in params:
        g = tape.grad(p.tensor)
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient in parameter {p.name}")
        p.momentum_buf *= momentum
        p.momentum_buf += g
        p.tensor.data = p.tensor.data - lr * p.momentum_buf


def _batch_arrays(samples, idxs):
    x = np.stack([samples[i].image for i in idxs])
    m = np.stack([samples[i].mask for i in idxs])
    return x, m


def train(net, cfg, train_samples, val_samples, out_dir=None):
    """Train net on source samples; returns (best_params, log_rows, stats).

    Every step runs forward_pair and total_loss.  With empty block sets and
    zero loss weights that is the plain encoder-decoder baseline, equal bit
    for bit to SegNet.forward_baseline.
    """
    ncfg = net.cfg
    params = net.parameters()
    rng = np.random.default_rng(cfg.seed)
    n = len(train_samples)
    if n == 0 or len(val_samples) == 0:
        raise ContractError("train: empty train or val split")
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    stats_by_stage = {
        s: W.CovarianceStats(ncfg.stage_channels[s - 1], ncfg.k)
        for s in sorted(ncfg.isw_stages)
    }
    use_isw = bool(stats_by_stage) and ncfg.lambda1 > 0
    log_rows = []
    best = {"miou": -1.0, "params": None, "epoch": 0}
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        warm = epoch <= cfg.warmup_epochs
        sums = {}
        for b in range(steps_per_epoch):
            idxs = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            images, masks = _batch_arrays(train_samples, idxs)
            if cfg.flip_augment:
                for j in range(len(idxs)):
                    images[j], masks[j] = D.random_flip(images[j], masks[j], rng)
            # twin params are drawn even when unused, so the RNG stream does
            # not depend on the block placement
            twin_params = [cfg.twin.sample_params(rng) for _ in range(len(idxs))]
            lr = poly_lr(step, total_steps, cfg)
            with Tape() as tape:
                x = tx = Tensor(images)
                if ncfg.isw_stages:
                    tx = Tensor(np.stack([D.apply_photometric(img, p)
                                          for img, p in zip(images, twin_params)]))
                record = N.forward_pair(x, tx, net)
                if use_isw and warm:
                    for s, (tx_, ttx_) in record.cov_pairs.items():
                        W.update_warmup(stats_by_stage[s], tx_, ttx_)
                loss, breakdown = N.total_loss(
                    record, masks, ncfg,
                    stats_by_stage if (use_isw and not warm) else None,
                )
                if loss.has_nonfinite():
                    raise NumericalError(f"non-finite loss at epoch {epoch} step {step}")
                tape.backward(loss)
                sgd_step(params, tape, lr, cfg.momentum)
            for key, val in breakdown.items():
                sums[key] = sums.get(key, 0.0) + val
            step += 1
        if use_isw and epoch == cfg.warmup_epochs:
            for s, stats in sorted(stats_by_stage.items()):
                if not np.isfinite(stats.v).all():
                    raise NumericalError(f"non-finite warm-up variance V at ISW stage {s}")
                stats.freeze()
        report = evaluate(net, val_samples, ncfg.num_classes)
        row = {"epoch": epoch, "lr": poly_lr(min(step, total_steps), total_steps, cfg),
               "val_miou": report.miou}
        for key in sorted(sums):
            row[f"loss_{key}"] = sums[key] / steps_per_epoch
        log_rows.append(row)
        if report.miou > best["miou"]:
            best = {"miou": report.miou,
                    "params": [p.tensor.data.copy() for p in params],
                    "epoch": epoch}
        elif epoch - best["epoch"] >= cfg.early_stop_patience:
            break
    if best["params"] is not None:
        for p, data in zip(params, best["params"]):
            p.tensor.data = data
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_log(os.path.join(out_dir, "train_log.csv"), log_rows)
        N.save_checkpoint(os.path.join(out_dir, "checkpoint.dife"), net)
    return best, log_rows, stats_by_stage


def _write_log(path, rows):
    keys = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for row in rows:
            writer.writerow([repr(row.get(k, "")) for k in keys])


def _piece_counts(net, samples, num_classes, err):
    """Confusion counts of one piece of a batch: forward, argmax, one count.
    `err` is the caller's np.geterr(), which a pool thread does not inherit."""
    with np.errstate(**err):
        logits = net.forward(Tensor(np.stack([s.image for s in samples])))
        pred = np.argmax(logits.data, axis=1)
        return confusion_from_masks(pred, np.stack([s.mask for s in samples]), num_classes)


def evaluate(net, samples, num_classes):
    """MetricsReport over a dataset, from confusion counts summed piece by piece.

    Each EVAL_BATCH batch is split into up to one piece per core, evenly
    sized, of at least two images: one row sends the SNR fully-connected
    layer down numpy's gemv path, which rounds differently.  The pieces run
    on a thread pool (numpy releases the GIL in matmul and array copies) and
    this thread sums their integer counts, so the report is a serial run's.
    A set of one batch, such as a small validation split, runs whole on this
    thread: split, it took longer (the bench's 6-image validation, +8-12 %).
    Tapes are per thread: the pool's pieces never record on the caller's tape.
    """
    global _POOL
    err = np.geterr()
    if len(samples) <= EVAL_BATCH:
        return compute_report(_piece_counts(net, samples, num_classes, err))
    cores = len(os.sched_getaffinity(0))
    pieces = []
    for lo in range(0, len(samples), EVAL_BATCH):
        batch = samples[lo : lo + EVAL_BATCH]
        k = max(1, min(cores, len(batch) // 2))
        pieces += [batch[len(batch) * i // k : len(batch) * (i + 1) // k] for i in range(k)]
    if _POOL is None:
        _POOL = ThreadPoolExecutor(max_workers=cores, thread_name_prefix="dife-eval")
    total = ConfusionCounts(num_classes)
    for counts in _POOL.map(lambda piece: _piece_counts(net, piece, num_classes, err), pieces):
        total.add(counts)
    return compute_report(total)
