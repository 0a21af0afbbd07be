"""Flat run-configuration files: `section.key = value`, `#` comments.

Arrays are written `[a,b,c]`.  Every key is validated against the schema;
unknown keys are rejected so ablation sweeps cannot silently typo a knob.
"""

from __future__ import annotations

from . import data as D
from .net import NetConfig
from .train import TrainConfig

__all__ = ["ConfigError", "RunConfig", "parse_value", "load_config", "format_config"]


class ConfigError(ValueError):
    """Bad key, bad value, or missing mandatory setting."""


def parse_value(raw):
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        return [] if not inner else [parse_value(v) for v in inner.split(",")]
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _expect(value, types, key):
    if isinstance(value, bool) and bool not in types:
        raise ConfigError(f"{key}: expected {types}, got boolean")
    if not isinstance(value, tuple(types)):
        raise ConfigError(f"{key}: expected {[t.__name__ for t in types]}, got {value!r}")
    return value


# key -> (types, default); None default means mandatory
SCHEMA = {
    "net.stage_channels": ([list], [8, 16, 32]),
    "net.num_classes": ([int], 4),
    "net.snr_stages": ([list], [2, 3]),
    "net.isw_stages": ([list], [1, 2, 3]),
    "net.lambda1": ([int, float], 0.6),
    "net.lambda2": ([int, float], 1.0),
    "net.attention_reduction": ([int], 4),
    "net.k": ([int], 2),
    "net.dc_mode": ([str], "full"),
    "train.lr0": ([int, float], 1e-2),
    "train.momentum": ([int, float], 0.9),
    "train.poly_power": ([int, float], 0.9),
    "train.epochs": ([int], 20),
    "train.batch_size": ([int], 4),
    "train.seed": ([int], None),
    "train.warmup_epochs": ([int], 5),
    "train.early_stop_patience": ([int], 10),
    "train.flip_augment": ([bool], True),
    "twin.brightness": ([int, float], 0.25),
    "twin.contrast": ([int, float], 0.5),
    "twin.hue": ([int, float], 120.0),
    "twin.gamma_min": ([int, float], 0.5),
    "twin.gamma_max": ([int, float], 2.2),
    "twin.blur_sigma": ([int, float], 1.2),
    "data.root": ([str], None),
    "out.dir": ([str], "runs/out"),
}


class RunConfig:
    """Resolved settings: file values + CLI overrides, schema-checked."""

    def __init__(self, values):
        self.values = values

    def __getitem__(self, key):
        return self.values[key]

    def net_config(self):
        v = self.values
        return NetConfig(
            stage_channels=tuple(v["net.stage_channels"]),
            num_classes=v["net.num_classes"],
            snr_stages=frozenset(v["net.snr_stages"]),
            isw_stages=frozenset(v["net.isw_stages"]),
            lambda1=float(v["net.lambda1"]),
            lambda2=float(v["net.lambda2"]),
            attention_reduction=v["net.attention_reduction"],
            k=v["net.k"],
            dc_mode=v["net.dc_mode"],
        )

    def train_config(self):
        v = self.values
        twin = D.PhotometricTransform(
            brightness_jitter=float(v["twin.brightness"]),
            contrast_jitter=float(v["twin.contrast"]),
            hue_rotation=float(v["twin.hue"]),
            gamma_range=(float(v["twin.gamma_min"]), float(v["twin.gamma_max"])),
            gaussian_blur_sigma=float(v["twin.blur_sigma"]),
        )
        return TrainConfig(
            lr0=float(v["train.lr0"]),
            momentum=float(v["train.momentum"]),
            poly_power=float(v["train.poly_power"]),
            epochs=v["train.epochs"],
            batch_size=v["train.batch_size"],
            seed=v["train.seed"],
            warmup_epochs=v["train.warmup_epochs"],
            early_stop_patience=v["train.early_stop_patience"],
            flip_augment=v["train.flip_augment"],
            twin=twin,
        )


def load_config(path=None, overrides=()):
    values = {}
    if path is not None:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = stripped.split("=", 1)
                values[key.strip()] = parse_value(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, raw = item.split("=", 1)
        values[key.strip()] = parse_value(raw)
    for key in values:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
    resolved = {}
    for key, (types, default) in SCHEMA.items():
        if key in values:
            resolved[key] = _expect(values[key], types, key)
        elif default is None:
            raise ConfigError(f"mandatory key {key!r} missing")
        else:
            resolved[key] = default
    return RunConfig(resolved)


def format_config(cfg):
    lines = [f"{key} = {_fmt(cfg.values[key])}" for key in sorted(cfg.values)]
    return "\n".join(lines) + "\n"


def _fmt(value):
    if isinstance(value, list):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
