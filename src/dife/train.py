"""SGD training loop, polynomial LR schedule, and evaluation."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from . import net as N
from . import isw as W
from . import data as D
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


class NumericalError(RuntimeError):
    """Training hit a non-finite loss or gradient."""


@dataclass
class TrainConfig:
    lr0: float = 1e-2
    momentum: float = 0.9
    poly_power: float = 0.9
    epochs: int = 20
    batch_size: int = 4
    seed: int = 0
    warmup_epochs: int = 5
    early_stop_patience: int = 10
    flip_augment: bool = True
    twin: D.PhotometricTransform = field(default_factory=D.PhotometricTransform)

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ContractError(f"lr0 must be positive, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ContractError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.poly_power <= 0:
            raise ContractError(f"poly_power must be positive, got {self.poly_power}")


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


def train(net, cfg, train_samples, val_samples, out_dir=None, dife_free=False,
          log_name="train_log.csv"):
    """Train net on source samples; returns (best_params, log_rows, stats).

    dife_free uses the reference forward path with no block code at all;
    the default path reduces to it when the config carries empty block sets
    and zero loss weights.
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
    } if not dife_free else {}
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
            # twin params are drawn even when unused, to keep the RNG stream
            # identical between instrumented and plain runs
            twin_params = [cfg.twin.sample_params(rng) for _ in range(len(idxs))]
            lr = poly_lr(step, total_steps, cfg)
            with Tape() as tape:
                if dife_free or (not ncfg.snr_stages and not ncfg.isw_stages):
                    logits = net.forward_baseline(Tensor(images)) if dife_free \
                        else net.forward(Tensor(images))
                    loss = N.task_loss(logits, masks)
                    breakdown = {"task": loss.item(), "total": loss.item()}
                else:
                    twins = np.stack([
                        D.apply_photometric(images[j], cfg.twin, params=twin_params[j])
                        for j in range(len(idxs))
                    ])
                    record = N.forward_pair(Tensor(images), Tensor(twins), net)
                    if use_isw and warm:
                        for s, (tx_, ttx_) in record.cov_pairs.items():
                            W.update_warmup(stats_by_stage[s], tx_.detached(), ttx_.detached())
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
            for s in sorted(stats_by_stage):
                stats_by_stage[s].freeze()
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
        _write_log(os.path.join(out_dir, log_name), log_rows)
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


def predict(net, images, batch_size=8):
    """Argmax class maps for a stack of images, no gradients recorded."""
    preds = []
    for lo in range(0, len(images), batch_size):
        x = Tensor(np.stack(images[lo : lo + batch_size]))
        logits = net.forward(x)
        preds.append(np.argmax(logits.data, axis=1))
    return np.concatenate(preds)


def evaluate(net, samples, num_classes, batch_size=8):
    """MetricsReport over a dataset, including per-sample mean IoU."""
    total = ConfusionCounts(num_classes)
    sample_ious = []
    preds = predict(net, [s.image for s in samples], batch_size)
    for pred, sample in zip(preds, samples):
        counts = confusion_from_masks(pred, sample.mask, num_classes)
        total.add(counts)
        sample_ious.append(compute_report(counts).miou)
    return compute_report(total, sample_ious)
