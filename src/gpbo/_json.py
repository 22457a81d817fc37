"""One JSON codec for the frozen config dataclasses.

``class Spec(JsonCodec, error=SpecError)`` writes one key per field and reads
back through the constructor, so ``__post_init__`` stays the only validation
and the dataclass the only holder of defaults.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np


class JsonCodec:
    """JSON for a frozen dataclass; a non-object or unknown key raises ``error``."""

    def __init_subclass__(cls, error: type[Exception]):
        cls._json_error = error

    def to_json_dict(self) -> dict:
        """One key per field; nested configs, arrays and tuples as JSON values."""
        return {f.name: _to_json(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_json_dict(cls, obj):
        """Build from a parsed JSON object; absent keys take the field defaults."""
        return _from_json(cls, obj, None)


def _to_json(value):
    if isinstance(value, JsonCodec):
        return value.to_json_dict()
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def _from_json(cls, obj, base):
    """``cls`` from ``obj``, absent keys taken from ``base`` if given.  A nested
    object is read against the enclosing field's value or default, so a
    partial one keeps the enclosing dataclass's defaults, not its own."""
    if not isinstance(obj, dict):
        raise cls._json_error(f"{cls.__name__} must be a JSON object, got {type(obj).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise cls._json_error(f"unknown {cls.__name__} keys: {unknown}")
    kwargs = dict(obj)
    for name, hint in typing.get_type_hints(cls).items():
        # a nested config field is annotated ``Spec`` or ``Spec | None``, with a default
        nested = [t for t in (hint, *typing.get_args(hint))
                  if isinstance(t, type) and issubclass(t, JsonCodec)]
        if nested and obj.get(name) is not None:
            f = fields[name]
            default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            inner = default if base is None else getattr(base, name)
            kwargs[name] = _from_json(nested[0], obj[name], inner)
    return cls(**kwargs) if base is None else dataclasses.replace(base, **kwargs)
