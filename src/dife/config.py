"""Flat run-configuration files: `section.key = value`, `#` comments.

Arrays are written `[a,b,c]`.  The keys are the fields of the config
objects (`net.*` NetConfig, `train.*` TrainConfig, `twin.*`
PhotometricTransform) plus RUN_KEYS; each key's type and range are its
field's (see `fields`).  Unknown keys are rejected so ablation sweeps
cannot silently typo a knob.
"""

from __future__ import annotations

import dataclasses

from . import data as D
from .net import NetConfig
from .tensor import ContractError
from .train import TrainConfig

__all__ = ["ConfigError", "RunConfig", "parse_value", "load_config", "format_config"]

SECTIONS = {"net": NetConfig, "train": TrainConfig, "twin": D.PhotometricTransform}
RUN_KEYS = {"data.root": "", "out.dir": "runs/out"}   # paths; data.root is mandatory
MANDATORY = ("train.seed", "data.root")


class ConfigError(ValueError):
    """Bad key, bad value, or missing mandatory setting."""


# key -> default, for every field that declares its allowed values (all but the nested twin)
DEFAULTS = {f"{section}.{f.name}": f.default for section, cls in SECTIONS.items()
            for f in dataclasses.fields(cls) if "allowed" in f.metadata} | RUN_KEYS


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


def _as_written(value):
    """A default in the form parse_value gives it, so the echo reads the same."""
    if isinstance(value, frozenset):
        return sorted(value)
    return list(value) if isinstance(value, tuple) else value


class RunConfig:
    """Resolved settings (file values + CLI overrides) and the config objects built from them."""

    def __init__(self, values, net, train):
        self.values = values
        self._net, self._train = net, train

    def __getitem__(self, key):
        return self.values[key]

    def net_config(self):
        return self._net

    def train_config(self):
        return self._train


def _build(section, values, **nested):
    """SECTIONS[section] from its keys; a ContractError becomes a ConfigError naming the key."""
    prefix = section + "."
    fields = {key[len(prefix):]: value for key, value in values.items() if key.startswith(prefix)}
    try:
        return SECTIONS[section](**fields, **nested)
    except ContractError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def load_config(path=None, overrides=()):
    values = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
        for lineno, line in enumerate(lines, start=1):
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
    values = {key: values.get(key, _as_written(default)) for key, default in DEFAULTS.items()}
    for key in RUN_KEYS:
        if type(values[key]) is not str:
            raise ConfigError(f"{key}: expected a path, got {values[key]!r}")
    twin = _build("twin", values)
    return RunConfig(values, _build("net", values), _build("train", values, twin=twin))


def format_config(cfg):
    lines = [f"{key} = {_fmt(cfg.values[key])}" for key in sorted(cfg.values)]
    return "\n".join(lines) + "\n"


def _fmt(value):
    if isinstance(value, list):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
