"""SGD training loop, polynomial LR schedule, and evaluation."""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from . import net as N
from . import isw as W
from . import data as D
from . import tensor as T
from .fields import check_fields, ranged
from .metrics import ConfusionCounts, confusion_from_masks, compute_report
from .tensor import Tape, Tensor, ContractError

__all__ = [
    "TrainConfig",
    "NumericalError",
    "poly_lr",
    "sgd_step",
    "train_step",
    "train",
    "evaluate",
]


EVAL_BATCH = 8   # images per batch in evaluate, split across the pool's threads


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


def _photometric_twin(images, twin_params):
    return Tensor(np.stack([D.apply_photometric(img, p) for img, p in zip(images, twin_params)]))


def _twin_branch(net, twin, shape, stats_by_stage, thetas):
    """The twin view's part of a step, on a thread of the library's pool
    (T._submit).

    Builds the view with twin(), encodes it and publishes its per-stage
    covariances to the future `thetas`.  Before the freeze (stats_by_stage
    None) nothing differentiates the twin, so nothing is recorded.  After
    it, the branch records on its own tape and runs the backward of its
    share of the ISW term at once: that gradient, sign(theta_tx) * mask *
    lambda1 / (2 N nnz), does not read the raw view, which enters at zero.
    Its backward shares the one leaf-gradient thread with the raw tape's.
    Returns the parameters' (leaf, gradient) pairs.  An exception also
    fails `thetas`, so no one waits on it.  The tape's record is dropped on
    every exit: the next tape to open on this pool thread may be far off.
    """
    # T.Tape, not this module's Tape: the bench's StepClock counts each
    # entry of that name as a training step
    tape = None if stats_by_stage is None else T.Tape(keep_interior=False)
    try:
        with tape or contextlib.nullcontext():
            theta = N.twin_covariances(twin(), net, shape)
            thetas.set_result(theta)
            if tape is None:
                return []
            pairs = {s: (T.zeros(t.shape), t) for s, t in theta.items()}
            root = N.add_isw_terms(T.scalar(0.0), pairs, net.cfg, stats_by_stage, {})
            if root.node_id is None:   # every mask is empty
                return []
            tape.backward(root)
            return tape.take_leaf_grads()
    except BaseException as exc:
        if not thetas.done():
            thetas.set_exception(exc)
        raise
    finally:
        if tape is not None:
            tape.drop()


def train_step(tape, net, x, twin, masks, stats_by_stage):
    """Forward and backward of one batch under `tape`, open on this thread.

    Returns (loss, breakdown); each parameter's gradient is then tape.grad
    of its tensor.  twin() builds the twin view.  When an ISW term reads it
    (net.cfg.use_isw), the twin's branch runs on a pool thread while this
    thread runs the raw view: encode, decode, covariances, total_loss (the
    twin's covariances enter as untracked constants) and backward.  Then
    the twin's parameter gradients are added to this tape's: each sum is the
    one a single tape over both views forms, so the gradients are bit for
    bit that serial composition's.  Until stats_by_stage is frozen the step
    accumulates the warm-up variance instead of the ISW term.
    """
    cfg = net.cfg
    frozen = cfg.use_isw and all(st.frozen for st in stats_by_stage.values())
    thetas = job = None
    if cfg.use_isw:
        thetas = Future()
        job = T._submit(_twin_branch, net, twin, x.shape, stats_by_stage if frozen else None, thetas)
    try:
        record = N.forward_pair(x, None if thetas is None else thetas.result, net)
        if cfg.use_isw and not frozen:
            for s, (tx_, ttx_) in record.cov_pairs.items():
                W.update_warmup(stats_by_stage[s], tx_, ttx_)
        loss, breakdown = N.total_loss(record, masks, cfg, stats_by_stage if frozen else None)
        bad = [k for k, v in breakdown.items() if not math.isfinite(v)]
        if bad:
            raise NumericalError(f"non-finite loss ({', '.join(bad)})")
        tape.backward(loss)
        if job is not None:
            tape.add_grads(job.result())
    finally:
        if job is not None:
            job.exception()   # the twin branch ends inside the step, even on an error here
    return loss, breakdown


def train(net, cfg, train_samples, val_samples, out_dir=None):
    """Train net on source samples; returns (best_params, log_rows, stats).

    Every step is one train_step: forward_pair and total_loss.  With empty
    block sets and zero loss weights that is the plain encoder-decoder
    baseline, equal bit for bit to SegNet.forward_baseline.
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
    log_rows = []
    best = {"miou": -1.0, "params": None, "epoch": 0}
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        sums = {}
        for b in range(steps_per_epoch):
            idxs = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            images, masks = D.stack_batch([train_samples[i] for i in idxs])
            if cfg.flip_augment:
                for j in range(len(idxs)):
                    images[j], masks[j] = D.random_flip(images[j], masks[j], rng)
            # twin params are drawn even when unused, so the RNG stream does
            # not depend on the block placement
            twin_params = [cfg.twin.sample_params(rng) for _ in range(len(idxs))]
            lr = poly_lr(step, total_steps, cfg)
            with Tape() as tape:
                try:
                    _, breakdown = train_step(
                        tape, net, Tensor(images),
                        functools.partial(_photometric_twin, images, twin_params),
                        masks, stats_by_stage)
                except NumericalError as exc:
                    raise NumericalError(f"{exc} at epoch {epoch} step {step}") from None
                sgd_step(params, tape, lr, cfg.momentum)
            for key, val in breakdown.items():
                sums[key] = sums.get(key, 0.0) + val
            step += 1
        if ncfg.use_isw and epoch == cfg.warmup_epochs:
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


def _piece_counts(net, samples, num_classes):
    """Confusion counts of one piece of a batch: forward, argmax, one count."""
    images, masks = D.stack_batch(samples)
    pred = np.argmax(net.forward(Tensor(images)).data, axis=1)
    return confusion_from_masks(pred, masks, num_classes)


def evaluate(net, samples, num_classes):
    """MetricsReport over a dataset, from confusion counts summed piece by piece.

    Each EVAL_BATCH batch is split into up to one piece per core, evenly
    sized, of at least two images: one row sends the SNR fully-connected
    layer down numpy's gemv path, which rounds differently.  The pieces run
    on the library's pool, T._submit (numpy releases the GIL in matmul and
    array copies), and this thread sums their integer counts, so the report
    is a serial run's.  Every piece runs on the pool, a set of one piece
    too, and tapes are per thread: evaluate never records on the caller's
    tape.
    """
    cores = T.core_count()
    pieces = []
    for lo in range(0, len(samples), EVAL_BATCH):
        batch = samples[lo : lo + EVAL_BATCH]
        k = max(1, min(cores, len(batch) // 2))
        pieces += [batch[len(batch) * i // k : len(batch) * (i + 1) // k] for i in range(k)]
    total = ConfusionCounts(num_classes)
    jobs = [T._submit(_piece_counts, net, piece, num_classes) for piece in pieces]
    try:
        for job in jobs:
            total.add(job.result())
    finally:
        for job in jobs:
            job.cancel()   # after an error: the pieces not yet started
    return compute_report(total)
