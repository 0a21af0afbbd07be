"""Synthetic two-domain segmentation benchmark and the photometric twin.

Both domains share geometry (masks are identical for the same seed); the
target domain applies a fixed style shift -- hue rotation, gamma, vignette,
extra contrast -- so any OOD drop is attributable to style alone.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .fields import check_fields, ranged
from .tensor import ContractError

__all__ = [
    "DomainSample",
    "PhotometricTransform",
    "FormatError",
    "GenerationError",
    "CLASS_NAMES",
    "generate_sample",
    "generate_domain",
    "apply_photometric",
    "hue_rotate",
    "gaussian_blur",
    "random_flip",
    "write_ppm",
    "read_ppm",
    "write_pgm",
    "read_pgm",
    "write_sample",
    "read_sample",
    "write_dataset",
    "load_dataset",
]

CLASS_NAMES = ("background", "disc", "bar", "ring")

TARGET_HUE_DEG = 90.0
TARGET_GAMMA = 1.9
TARGET_CONTRAST = 1.4
TARGET_VIGNETTE = 0.25


class FormatError(ValueError):
    """Malformed PPM/PGM payload; message carries the byte offset."""


class GenerationError(ValueError):
    """Canvas too small to place the shape set."""


@dataclass
class DomainSample:
    image: np.ndarray   # (3, H, W) float64 in [0, 1]
    mask: np.ndarray    # (H, W) int64, class indices
    domain: str         # "source" | "target"
    seed: int


@dataclass
class PhotometricTransform:
    """Label-preserving jitter; parameters are sampled per call."""

    brightness: float = ranged(0.25, "[0, inf)")
    contrast: float = ranged(0.5, "[0, inf)")
    hue: float = ranged(120.0, "[0, inf)")
    gamma_min: float = ranged(0.5, "(0, inf)")
    gamma_max: float = ranged(2.2, "(0, inf)")
    blur_sigma: float = ranged(1.2, "[0, inf)")

    def __post_init__(self):
        check_fields(self)
        if self.gamma_min > self.gamma_max:
            raise ContractError(f"gamma_min: expected at most gamma_max {self.gamma_max}, got {self.gamma_min}")

    def sample_params(self, rng):
        return {
            "brightness": rng.uniform(-self.brightness, self.brightness),
            "contrast": rng.uniform(-self.contrast, self.contrast),
            "hue": rng.uniform(-self.hue, self.hue),
            "gamma": rng.uniform(self.gamma_min, self.gamma_max),
            "sigma": rng.uniform(0.0, self.blur_sigma),
        }


def hue_rotate(img, degrees):
    """Rotate colors around the grey axis (linear hue-rotation matrix)."""
    a = np.deg2rad(degrees)
    c, s = np.cos(a), np.sin(a)
    one3 = 1.0 / 3.0
    sq3 = np.sqrt(1.0 / 3.0)
    m = np.array([
        [c + (1 - c) * one3, one3 * (1 - c) - sq3 * s, one3 * (1 - c) + sq3 * s],
        [one3 * (1 - c) + sq3 * s, c + one3 * (1 - c), one3 * (1 - c) - sq3 * s],
        [one3 * (1 - c) - sq3 * s, one3 * (1 - c) + sq3 * s, c + one3 * (1 - c)],
    ])
    return np.einsum("ij,jhw->ihw", m, img)


def gaussian_blur(img, sigma):
    """Separable Gaussian blur with reflect padding; identity for sigma <= 0."""
    if sigma <= 0:
        return img
    radius = max(1, int(np.ceil(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kern = np.exp(-0.5 * (xs / sigma) ** 2)
    kern /= kern.sum()
    out = img
    for axis in (1, 2):
        pad = [(radius, radius) if a == axis else (0, 0) for a in (0, 1, 2)]
        padded = np.pad(out, pad, mode="reflect")
        windows = np.lib.stride_tricks.sliding_window_view(padded, kern.size, axis=axis)
        out = windows @ kern
    return out


def apply_photometric(x, params):
    """Brightness -> contrast -> hue -> gamma -> blur (params from sample_params), in [0, 1]."""
    out = x + params["brightness"]
    out = (out - 0.5) * (1.0 + params["contrast"]) + 0.5
    out = hue_rotate(out, params["hue"])
    out = np.clip(out, 0.0, 1.0) ** params["gamma"]
    out = gaussian_blur(out, params["sigma"])
    return np.clip(out, 0.0, 1.0)


# --- geometry -------------------------------------------------------------

def _draw_disc(mask, rng, h, w):
    r = rng.uniform(0.10, 0.18) * min(h, w)
    cy = rng.uniform(r + 1, h - r - 1)
    cx = rng.uniform(r + 1, w - r - 1)
    yy, xx = np.mgrid[0:h, 0:w]
    mask[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = 1


def _draw_bar(mask, rng, h, w):
    length = rng.uniform(0.35, 0.55) * min(h, w)
    thick = rng.uniform(0.05, 0.09) * min(h, w)
    cy = rng.uniform(0.25 * h, 0.75 * h)
    cx = rng.uniform(0.25 * w, 0.75 * w)
    ang = rng.uniform(0, np.pi)
    yy, xx = np.mgrid[0:h, 0:w]
    u = (xx - cx) * np.cos(ang) + (yy - cy) * np.sin(ang)
    v = -(xx - cx) * np.sin(ang) + (yy - cy) * np.cos(ang)
    mask[(np.abs(u) <= length / 2) & (np.abs(v) <= thick / 2)] = 2


def _draw_ring(mask, rng, h, w):
    r_out = rng.uniform(0.12, 0.20) * min(h, w)
    r_in = r_out * rng.uniform(0.5, 0.7)
    cy = rng.uniform(r_out + 1, h - r_out - 1)
    cx = rng.uniform(r_out + 1, w - r_out - 1)
    yy, xx = np.mgrid[0:h, 0:w]
    d2 = (yy - cy) ** 2 + (xx - cx) ** 2
    mask[(d2 <= r_out**2) & (d2 >= r_in**2)] = 3


# per-class base palette (RGB); mild per-sample jitter is added on top
_PALETTE = np.array([
    [0.45, 0.20, 0.20],   # background: dark tissue red
    [0.85, 0.75, 0.30],   # disc: yellowish
    [0.55, 0.60, 0.70],   # bar: steel grey-blue
    [0.80, 0.45, 0.55],   # ring: pink
])


def _target_style(img, h, w):
    out = hue_rotate(img, TARGET_HUE_DEG)
    out = np.clip(out, 0.0, 1.0) ** TARGET_GAMMA
    out = (out - 0.5) * TARGET_CONTRAST + 0.5
    yy, xx = np.mgrid[0:h, 0:w]
    r2 = ((yy - h / 2) / (h / 2)) ** 2 + ((xx - w / 2) / (w / 2)) ** 2
    out = out * (1.0 - TARGET_VIGNETTE * r2 / 2.0)
    return np.clip(out, 0.0, 1.0)


def generate_sample(seed, index, domain, size):
    """One sample; geometry and base colors depend only on (seed, index)."""
    h, w = size
    if h < 32 or w < 32 or h % 4 or w % 4:   # the net needs each side a multiple of 4
        raise GenerationError(f"canvas {h}x{w}: need >= 32x32, each side a multiple of 4")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    mask = np.zeros((h, w), dtype=np.int64)
    _draw_disc(mask, rng, h, w)
    _draw_bar(mask, rng, h, w)
    _draw_ring(mask, rng, h, w)
    palette = np.clip(_PALETTE + rng.uniform(-0.06, 0.06, _PALETTE.shape), 0.0, 1.0)
    img = palette[mask].transpose(2, 0, 1).copy()
    # smooth illumination gradient plus fine texture noise
    yy, xx = np.mgrid[0:h, 0:w]
    gy, gx = rng.uniform(-0.08, 0.08, 2)
    img += gy * (yy / h - 0.5) + gx * (xx / w - 0.5)
    img += rng.normal(0.0, 0.03, img.shape)
    img = np.clip(img, 0.0, 1.0)
    if domain == "target":
        img = _target_style(img, h, w)
    elif domain != "source":
        raise GenerationError(f"unknown domain {domain!r}")
    return DomainSample(image=img, mask=mask, domain=domain, seed=seed)


def generate_domain(count, domain, seed, size=(48, 48), start_index=0):
    if count < 1:
        raise GenerationError(f"count must be >= 1, got {count}")
    return [generate_sample(seed, start_index + i, domain, size) for i in range(count)]


def random_flip(image, mask, rng):
    """Horizontal flip of image and mask together, p = 0.5."""
    if rng.random() < 0.5:
        return image[:, :, ::-1].copy(), mask[:, ::-1].copy()
    return image, mask


# --- PPM / PGM ------------------------------------------------------------

def _read_netpbm_header(blob, magic, path):
    if blob[:2] != magic:
        raise FormatError(f"{path}: bad magic {blob[:2]!r} at byte 0")
    off = 2
    fields = []
    starts = []
    while len(fields) < 3:
        while off < len(blob) and blob[off : off + 1].isspace():
            off += 1
        if off < len(blob) and blob[off : off + 1] == b"#":
            while off < len(blob) and blob[off] != 0x0A:
                off += 1
            continue
        start = off
        while off < len(blob) and not blob[off : off + 1].isspace():
            off += 1
        if start == off:
            raise FormatError(f"{path}: truncated header at byte {off}")
        # ASCII digits only: int() would also take "+2" and "1_0"; a leading
        # "-" is read so that a negative size gets its own message below
        if not blob[start:off].removeprefix(b"-").isdigit():
            raise FormatError(f"{path}: non-numeric header field at byte {start}")
        fields.append(int(blob[start:off]))
        starts.append(start)
    off += 1  # single whitespace after maxval
    w, h, maxval = fields
    for name, value, start in (("width", w, starts[0]), ("height", h, starts[1])):
        if value < 1:
            raise FormatError(f"{path}: {name} {value} < 1 at byte {start}")
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval} at byte {starts[2]}")
    return w, h, off


def _read_netpbm(path, magic, channels):
    """(H, W, channels) uint8 payload of a binary netpbm file of exact length."""
    with open(path, "rb") as fh:
        blob = fh.read()
    w, h, off = _read_netpbm_header(blob, magic, path)
    end = off + w * h * channels
    if len(blob) < end:
        raise FormatError(f"{path}: payload truncated at byte {len(blob)} (need {end})")
    if len(blob) > end:
        raise FormatError(f"{path}: {len(blob) - end} bytes past the payload at byte {end}")
    return np.frombuffer(blob, dtype=np.uint8, offset=off).reshape(h, w, channels)


def write_ppm(path, image):
    """image (3, H, W) in [0, 1] -> binary P6, maxval 255."""
    _, h, w = image.shape
    quant = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quant.transpose(1, 2, 0).tobytes())


def read_ppm(path):
    arr = _read_netpbm(path, b"P6", 3)
    return arr.transpose(2, 0, 1).astype(np.float64) / 255.0


def write_pgm(path, mask):
    """mask (H, W) small ints -> binary P5, class index as gray value."""
    h, w = mask.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(mask.astype(np.uint8).tobytes())


def read_pgm(path):
    return _read_netpbm(path, b"P5", 1)[:, :, 0].astype(np.int64)


def write_sample(img_path, msk_path, sample):
    write_ppm(img_path, sample.image)
    write_pgm(msk_path, sample.mask)


def read_sample(img_path, msk_path, domain="source", seed=0):
    return DomainSample(image=read_ppm(img_path), mask=read_pgm(msk_path),
                        domain=domain, seed=seed)


# --- dataset directory layout ----------------------------------------------

SPLITS = ("train", "val", "test")


def split_counts(count):
    """80/10/10 allocation; val and test get at least one sample each."""
    n_val = max(1, count // 10)
    n_test = max(1, count // 10)
    return count - n_val - n_test, n_val, n_test


def write_dataset(root, count, seed, size=(48, 48)):
    """Write both domains and all splits; returns manifest row count."""
    rows = []
    for domain in ("source", "target"):
        samples = generate_domain(count, domain, seed, size)
        n_train, n_val, n_test = split_counts(count)
        bounds = {"train": (0, n_train), "val": (n_train, n_train + n_val),
                  "test": (n_train + n_val, count)}
        for split in SPLITS:
            d = os.path.join(root, domain, split)
            os.makedirs(d, exist_ok=True)
            lo, hi = bounds[split]
            for i in range(lo, hi):
                write_sample(os.path.join(d, f"img_{i:05d}.ppm"),
                             os.path.join(d, f"msk_{i:05d}.pgm"), samples[i])
                rows.append((i, domain, split, seed))
    with open(os.path.join(root, "manifest.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "domain", "split", "seed"])
        writer.writerows(rows)
    return len(rows)


def load_dataset(root, domain, split):
    d = os.path.join(root, domain, split)
    samples = []
    for name in sorted(os.listdir(d)):
        if not name.startswith("img_"):
            continue
        img_path = os.path.join(d, name)
        stem = name[4:].removesuffix(".ppm")
        sample = read_sample(img_path, os.path.join(d, f"msk_{stem}.pgm"), domain=domain)
        size = samples[0].mask.shape if samples else sample.image.shape[1:]
        if sample.image.shape[1:] != size or sample.mask.shape != size:
            raise FormatError(f"{img_path}: image {sample.image.shape[1:]} and mask "
                              f"{sample.mask.shape} must both match the split's {size}")
        samples.append(sample)
    return samples
