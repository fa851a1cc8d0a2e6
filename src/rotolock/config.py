"""The one boundary between JSON config objects and the frozen config dataclasses.

A `Config` dataclass is read from a JSON object by its field types: float (a
finite number), int (an integer), str, np.ndarray (a non-empty flat list of
finite numbers) and nested `Config` (an object), under the field's own
name.  Missing keys take the field default; unknown keys are rejected.
Range and cross-field rules stay in each ``__post_init__``; a
`PreconditionError` raised there while loading becomes a `ConfigError`.
Among them, `check_size` refuses a config whose arrays would hold more than
`MAX_ELEMENTS` entries, before anything is allocated.  `write_json` is the
one JSON writer of the package: manifests, metrics, series and fits.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing

import numpy as np

from .errors import ConfigError, PreconditionError

# Largest array, in elements, that a config may ask for: 2**25 (about 33.5 M).
# A 60 s simulation at the default 2 us step (30 M samples) is still accepted:
# run_simulation holds no full-length array, and its tracemalloc peak is about
# 1.1 MiB at 1.5 M samples and grows only with the one pick per period it
# keeps (6.6 MiB at 60 s).  A finite but absurd run such as duration 10000 s
# (5e9 samples) is a config error instead of a failed allocation.
MAX_ELEMENTS = 2**25


def check_size(what: str, count: int) -> None:
    """Raise ConfigError when `count` elements (described by `what`, in terms
    of the config's fields) exceed MAX_ELEMENTS."""
    if count > MAX_ELEMENTS:
        raise ConfigError(f"{what} = {count} exceeds the size limit MAX_ELEMENTS = {MAX_ELEMENTS}")


def write_json(obj, path) -> None:
    """Write obj to path as JSON: indented by 2, keys sorted, a trailing
    newline.  A NaN or an infinity, which JSON has no token for, raises
    ValueError before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


class Config:
    """Mixin giving a frozen dataclass `from_dict` and its inverse `to_dict`."""

    @classmethod
    def from_dict(cls, d):
        return _load(cls, d, cls.__name__)

    def to_dict(self) -> dict:
        hints = _hints(type(self))
        out = {}
        for f in dataclasses.fields(self):
            tp, value = hints[f.name], getattr(self, f.name)
            if tp is np.ndarray:
                out[f.name] = [float(x) for x in value]
            else:
                out[f.name] = value.to_dict() if isinstance(value, Config) else tp(value)
        return out


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _load(cls, d, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(d).__name__}")
    hints = _hints(cls)
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown, key=str)}")
    kwargs = {key: _read(hints[key], value, f"{where}.{key}") for key, value in d.items()}
    try:
        return cls(**kwargs)
    except (ConfigError, PreconditionError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read(tp, value, where: str):
    if isinstance(tp, type) and issubclass(tp, Config):
        return _load(tp, value, where)
    if tp is float:
        return _finite(value, where)
    if tp is np.ndarray:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a non-empty list of numbers, got {value!r}")
        return np.array([_finite(x, f"{where}[{i}]") for i, x in enumerate(value)])
    if tp is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if tp is str:
        if isinstance(value, str):
            return value
        raise ConfigError(f"{where} must be a string, got {value!r}")
    raise TypeError(f"{where}: no config reader for field type {tp!r}")


def _finite(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be a finite number, got {x}")
    return x

