"""Flat run-configuration files: `section.key = value`, `#` comments.

Arrays are written `[a,b,c]`.  The keys are the fields of the config
objects (`net.*` NetConfig, `train.*` TrainConfig, `twin.*`
PhotometricTransform) plus RUN_KEYS; each key's type is its default's.
Unknown keys are rejected so ablation sweeps cannot silently typo a knob.
"""

from __future__ import annotations

import dataclasses
import sys

from . import data as D
from .net import NetConfig
from .train import TrainConfig

__all__ = ["ConfigError", "RunConfig", "parse_value", "load_config", "format_config"]

SECTIONS = {"net": NetConfig, "train": TrainConfig, "twin": D.PhotometricTransform}
RUN_KEYS = {"data.root": "", "out.dir": "runs/out"}   # data.root's "" only sets its type
MANDATORY = ("train.seed", "data.root")


class ConfigError(ValueError):
    """Bad key, bad value, or missing mandatory setting."""


def _defaults():
    """key -> the field's default, for every settable field of SECTIONS."""
    keys = {}
    for section, cls in SECTIONS.items():
        for f in dataclasses.fields(cls):
            default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            if not dataclasses.is_dataclass(default):
                keys[f"{section}.{f.name}"] = default
    return keys | RUN_KEYS


DEFAULTS = _defaults()


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


def _check(key, value):
    """The parsed value, or ConfigError if it does not fit the key's type."""
    kind = type(DEFAULTS[key])
    if kind is float:
        # false for NaN, ±inf and ints too large for a float
        ok, want = type(value) in (int, float) and abs(value) <= sys.float_info.max, "a finite number"
    elif kind in (tuple, frozenset):
        ok, want = type(value) is list and all(type(v) is int for v in value), "a list of integers"
    else:
        ok, want = type(value) is kind, {int: "an integer", bool: "true or false", str: "a string"}[kind]
    if not ok:
        raise ConfigError(f"{key}: expected {want}, got {value!r}")
    return value


def _as_written(value):
    """A default in the form parse_value gives it, so the echo reads the same."""
    if isinstance(value, frozenset):
        return sorted(value)
    return list(value) if isinstance(value, tuple) else value


class RunConfig:
    """Resolved settings: file values + CLI overrides, type-checked."""

    def __init__(self, values):
        self.values = values

    def __getitem__(self, key):
        return self.values[key]

    def _section(self, name):
        prefix = name + "."
        return {key[len(prefix):]: type(DEFAULTS[key])(value)
                for key, value in self.values.items() if key.startswith(prefix)}

    def net_config(self):
        return NetConfig(**self._section("net"))

    def train_config(self):
        twin = D.PhotometricTransform(**self._section("twin"))
        return TrainConfig(**self._section("train"), twin=twin)


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
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
    for key in MANDATORY:
        if key not in values:
            raise ConfigError(f"mandatory key {key!r} missing")
    return RunConfig({key: _check(key, values[key]) if key in values else _as_written(default)
                      for key, default in DEFAULTS.items()})


def format_config(cfg):
    lines = [f"{key} = {_fmt(cfg.values[key])}" for key in sorted(cfg.values)]
    return "\n".join(lines) + "\n"


def _fmt(value):
    if isinstance(value, list):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
