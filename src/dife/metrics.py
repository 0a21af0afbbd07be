"""Segmentation metrics from per-class confusion counts."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .tensor import IGNORE_INDEX, ContractError

__all__ = ["ConfusionCounts", "MetricsReport", "confusion_from_masks", "compute_report"]


@dataclass
class ConfusionCounts:
    num_classes: int
    tp: np.ndarray = None
    fp: np.ndarray = None
    fn: np.ndarray = None
    tn: np.ndarray = None

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(self.num_classes, dtype=np.uint64))

    def add(self, other):
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn
        self.tn += other.tn
        return self

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn


def confusion_from_masks(pred, gt, num_classes):
    """Pixel-wise confusion counts for one prediction/ground-truth pair."""
    pred = np.asarray(pred).ravel()
    gt = np.asarray(gt).ravel()
    keep = gt != IGNORE_INDEX
    pred, gt = pred[keep], gt[keep]
    if ((gt < 0) | (gt >= num_classes)).any():
        raise ContractError(f"ground-truth class out of range 0..{num_classes - 1}")
    if ((pred < 0) | (pred >= num_classes)).any():
        raise ContractError(f"predicted class out of range 0..{num_classes - 1}")
    counts = ConfusionCounts(num_classes)
    joint = np.bincount(gt * num_classes + pred, minlength=num_classes * num_classes)
    joint = joint.reshape(num_classes, num_classes)
    n = joint.sum()
    for c in range(num_classes):
        tp = joint[c, c]
        fn = joint[c].sum() - tp
        fp = joint[:, c].sum() - tp
        counts.tp[c] = tp
        counts.fn[c] = fn
        counts.fp[c] = fp
        counts.tn[c] = n - tp - fn - fp
    return counts


@dataclass
class MetricsReport:
    iou: dict = field(default_factory=dict)        # class -> value (absent classes skipped)
    dice: dict = field(default_factory=dict)
    precision: dict = field(default_factory=dict)
    recall: dict = field(default_factory=dict)
    miou: float = float("nan")
    mdice: float = float("nan")
    mprecision: float = float("nan")
    mrecall: float = float("nan")
    pixel_accuracy: float = float("nan")


def _ratio(num, den):
    return float(num) / float(den) if den > 0 else None


def compute_report(counts):
    """Derive the metric set; classes with no GT and no prediction are skipped."""
    rep = MetricsReport()
    for c in range(counts.num_classes):
        tp, fp, fn = int(counts.tp[c]), int(counts.fp[c]), int(counts.fn[c])
        if tp + fp + fn == 0:
            continue  # class absent everywhere: 0/0, not scored
        rep.iou[c] = _ratio(tp, tp + fp + fn)
        rep.dice[c] = _ratio(2 * tp, 2 * tp + fp + fn)
        prec = _ratio(tp, tp + fp)
        rec = _ratio(tp, tp + fn)
        if prec is not None:
            rep.precision[c] = prec
        if rec is not None:
            rep.recall[c] = rec
    if rep.iou:
        rep.miou = float(np.mean(list(rep.iou.values())))
        rep.mdice = float(np.mean(list(rep.dice.values())))
    if rep.precision:
        rep.mprecision = float(np.mean(list(rep.precision.values())))
    if rep.recall:
        rep.mrecall = float(np.mean(list(rep.recall.values())))
    tot = counts.total
    present = tot > 0
    if present.any():
        rep.pixel_accuracy = float(
            (counts.tp[present] + counts.tn[present]).sum() / tot[present].sum()
        )
    return rep


def write_metrics_csv(path, report, class_names=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "IoU", "Dice", "precision", "recall"])
        for c in sorted(report.iou):
            name = class_names[c] if class_names else str(c)
            writer.writerow([
                name,
                repr(report.iou[c]),
                repr(report.dice[c]),
                repr(report.precision.get(c, "")),
                repr(report.recall.get(c, "")),
            ])


def write_summary_csv(path, rows):
    """rows: list of dicts with dataset/domain and the mean metrics."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "domain", "mIoU", "mDSC", "mPrec", "mRec", "pixAcc"])
        for r in rows:
            writer.writerow([
                r["dataset"], r["domain"],
                repr(r["miou"]), repr(r["mdice"]), repr(r["mprecision"]),
                repr(r["mrecall"]), repr(r["pixel_accuracy"]),
            ])
