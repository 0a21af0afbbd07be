"""Each config field's allowed values, declared once on the field and checked here.

The text is what the README's key table shows: an interval such as
`number in [0, 1)` (a square bracket includes its bound, a round one
excludes it) or a list of back-quoted choices.
"""

from __future__ import annotations

import dataclasses
import re
import sys

from .tensor import ContractError

__all__ = ["ranged", "check_fields"]

_KIND = {float: "number", int: "integer", tuple: "integers", frozenset: "integers"}
_CONTAINERS = {tuple: (tuple, list), frozenset: (frozenset, set, list)}
_INTERVAL = re.compile(r" in ([\[(])(\S+), (\S+)([\])])$")


def _quoted(choice):
    return f"`{str(choice).lower() if type(choice) is bool else choice}`"


def ranged(default, allowed):
    """A dataclass field defaulting to `default` whose values must lie in
    `allowed`: an interval such as "[0, 1)", or a tuple of choices."""
    if isinstance(allowed, tuple):
        *rest, last = map(_quoted, allowed)
        text = f"{', '.join(rest)} or {last}"
    else:
        text = f"{_KIND[type(default)]} in {allowed}"
    return dataclasses.field(default=default, metadata={"allowed": text})


def _inside(value, kinds, allowed):
    if type(value) not in kinds:   # no bool for a number, no float for an integer
        return False
    interval = _INTERVAL.search(allowed)
    if interval is None:
        return _quoted(value) in re.findall(r"`[^`]*`", allowed)
    lo_bracket, lo, hi, hi_bracket = interval.groups()
    return ((float(lo) <= value if lo_bracket == "[" else float(lo) < value)
            and (value <= float(hi) if hi_bracket == "]" else value < float(hi))
            and (float not in kinds or abs(value) <= sys.float_info.max))   # finite; NaN fails


def check_fields(obj):
    """Enforce the allowed text of every field of dataclass `obj` that has one.
    A value must have its default's type, except that an int may stand for a
    number and a list (or a set, for a frozenset) for a tuple or frozenset;
    the converted value is stored.  Raises ContractError naming the field."""
    for f in dataclasses.fields(obj):
        allowed = f.metadata.get("allowed")
        if allowed is None:
            continue
        value, kind = getattr(obj, f.name), type(f.default)
        if kind in _CONTAINERS:
            ok = type(value) in _CONTAINERS[kind] and all(_inside(v, (int,), allowed) for v in value)
        else:
            ok = _inside(value, (float, int) if kind is float else (kind,), allowed)
        if not ok:
            raise ContractError(f"{f.name}: expected {allowed}, got {value!r}")
        setattr(obj, f.name, kind(value))
