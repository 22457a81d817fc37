"""One JSON codec for the frozen config dataclasses.

``class Spec(JsonCodec, error=SpecError)`` writes one key per field and reads
back through the constructor.  The codec checks JSON types against the field
annotations, ``__post_init__`` checks values, and the dataclass alone holds
defaults.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import types
import typing

import numpy as np


class JsonCodec:
    """JSON for a frozen dataclass; every reading error raises ``error``."""

    def __init_subclass__(cls, error: type[Exception]):
        cls._json_error = error

    def to_json_dict(self) -> dict:
        """One key per field; nested configs, arrays and tuples as JSON values."""
        return {f.name: _to_json(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_json_dict(cls, obj):
        """Build from a parsed JSON object; absent keys take the field defaults."""
        return _from_json(cls, obj)


def _to_json(value):
    if isinstance(value, JsonCodec):
        return value.to_json_dict()
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def _admits(t, value) -> bool:
    """Whether a JSON value may fill a field of type ``t``: no fraction for an int, no
    boolean, NaN, infinity or integer past the float range for a number, only an array
    without booleans for an array or a tuple.  Nested configs leave all but null to the
    constructor, and so do the other checks on array elements."""
    if t is int or t is float:
        if isinstance(value, float):
            return t is float and math.isfinite(value)
        return (
            isinstance(value, int)
            and not isinstance(value, bool)
            and (t is int or abs(value) <= sys.float_info.max)
        )
    if t in (str, dict, type(None)):
        return isinstance(value, t)
    if t is np.ndarray or typing.get_origin(t) is tuple:
        return isinstance(value, list) and not any(isinstance(v, bool) for v in value)
    return value is not None


def _from_json(cls, obj):
    """``cls`` from ``obj`` through its constructor, so absent keys take the
    field defaults; a nested object is built the same way by its own class."""
    if not isinstance(obj, dict):
        raise cls._json_error(f"{cls.__name__} must be a JSON object, got {type(obj).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise cls._json_error(f"unknown {cls.__name__} keys: {unknown}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in obj.items():
        f, hint = fields[name], hints[name]
        options = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        if not any(_admits(t, value) for t in options):
            raise cls._json_error(f"{cls.__name__}.{name} must be {f.type}, not {value!r}")
        nested = [t for t in options if isinstance(t, type) and issubclass(t, JsonCodec)]
        if nested and value is not None:
            try:
                value = _from_json(nested[0], value)
            except (TypeError, ValueError) as e:
                raise cls._json_error(f"{name}: {e}") from e
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as e:  # overflow: an integer past the float range
        if isinstance(e, cls._json_error):
            raise
        raise cls._json_error(f"{cls.__name__}: {e}") from e
