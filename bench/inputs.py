"""Seeded two-domain input set written as PPM images and PGM masks.

The benchmark makes its own inputs rather than calling `dife generate`, so
that a change to the program's generator cannot change what is measured.
The layout is the one `dife train` and `dife eval` read:
`<root>/<domain>/<split>/img_NNNNN.ppm` with a matching `msk_NNNNN.pgm`.
Both domains share geometry; the target domain adds a fixed style shift
(hue rotation, gamma, contrast, vignette), as in the paper's setting.
"""

import os

import numpy as np

SIZE = 48
N_TRAIN = 48
N_VAL = 6

# background, disc, bar, ring (RGB)
_PALETTE = np.array([
    [0.45, 0.20, 0.20],
    [0.85, 0.75, 0.30],
    [0.55, 0.60, 0.70],
    [0.80, 0.45, 0.55],
])


def _mask(rng, n):
    yy, xx = np.mgrid[0:n, 0:n].astype(np.float64)
    mask = np.zeros((n, n), dtype=np.uint8)
    r = rng.uniform(0.10, 0.18) * n
    cy, cx = rng.uniform(r + 1, n - r - 1, 2)
    mask[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = 1
    length, thick = rng.uniform(0.35, 0.55) * n, rng.uniform(0.05, 0.09) * n
    cy, cx = rng.uniform(0.25 * n, 0.75 * n, 2)
    ang = rng.uniform(0.0, np.pi)
    u = (xx - cx) * np.cos(ang) + (yy - cy) * np.sin(ang)
    v = -(xx - cx) * np.sin(ang) + (yy - cy) * np.cos(ang)
    mask[(np.abs(u) <= length / 2) & (np.abs(v) <= thick / 2)] = 2
    r_out = rng.uniform(0.12, 0.20) * n
    r_in = r_out * rng.uniform(0.5, 0.7)
    cy, cx = rng.uniform(r_out + 1, n - r_out - 1, 2)
    d2 = (yy - cy) ** 2 + (xx - cx) ** 2
    mask[(d2 <= r_out ** 2) & (d2 >= r_in ** 2)] = 3
    return mask


def _source_image(rng, mask):
    n = mask.shape[0]
    palette = np.clip(_PALETTE + rng.uniform(-0.06, 0.06, _PALETTE.shape), 0.0, 1.0)
    img = palette[mask].transpose(2, 0, 1)
    yy, xx = np.mgrid[0:n, 0:n] / n - 0.5
    gy, gx = rng.uniform(-0.08, 0.08, 2)
    img = img + gy * yy + gx * xx + rng.normal(0.0, 0.03, img.shape)
    return np.clip(img, 0.0, 1.0)


def _target_style(img):
    a = np.deg2rad(90.0)
    c, s, t = np.cos(a), np.sin(a), 1.0 / 3.0
    q = np.sqrt(t) * s
    hue = np.array([
        [c + (1 - c) * t, t * (1 - c) - q, t * (1 - c) + q],
        [t * (1 - c) + q, c + t * (1 - c), t * (1 - c) - q],
        [t * (1 - c) - q, t * (1 - c) + q, c + t * (1 - c)],
    ])
    out = np.clip(np.einsum("ij,jhw->ihw", hue, img), 0.0, 1.0) ** 1.9
    out = (out - 0.5) * 1.4 + 0.5
    n = img.shape[1]
    yy, xx = np.mgrid[0:n, 0:n] / (n / 2) - 1.0
    return np.clip(out * (1.0 - 0.125 * (yy ** 2 + xx ** 2)), 0.0, 1.0)


def _write(directory, index, img, mask):
    n = mask.shape[0]
    header = f"{n} {n}\n255\n".encode("ascii")
    pixels = np.rint(img * 255.0).astype(np.uint8).transpose(1, 2, 0)
    with open(os.path.join(directory, f"img_{index:05d}.ppm"), "wb") as fh:
        fh.write(b"P6\n" + header + pixels.tobytes())
    with open(os.path.join(directory, f"msk_{index:05d}.pgm"), "wb") as fh:
        fh.write(b"P5\n" + header + mask.tobytes())


def write_inputs(root, seed, n_eval):
    """Source train/val splits and a target test split of n_eval images."""
    rng = np.random.default_rng(seed)
    plan = [("source", "train", N_TRAIN), ("source", "val", N_VAL), ("target", "test", n_eval)]
    index = 0
    for domain, split, count in plan:
        directory = os.path.join(root, domain, split)
        os.makedirs(directory)
        for _ in range(count):
            mask = _mask(rng, SIZE)
            img = _source_image(rng, mask)
            _write(directory, index, _target_style(img) if domain == "target" else img, mask)
            index += 1
