"""Synthetic benchmark objectives and the objective-spec plumbing.

The builtins are the usual suspects: sphere (any d), rosenbrock (d >= 2),
and branin (d = 2, global minimum 0.397887 at three points, recommended box
[-5, 10] x [0, 15]).  An ``ObjectiveSpec`` can also describe an external
worker process; see :mod:`gpbo.external` for the wire protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._json import JsonCodec
from .loop import SearchSpace


#: the longest worker timeout, in seconds: 2**31 - 1 ms, the most that
#: ``subprocess.run`` waits
MAX_TIMEOUT = 2147483.647


class ObjectiveError(ValueError):
    """Unknown builtin or malformed objective specification."""


def sphere(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.sum(x**2))


def rosenbrock(x) -> float:
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ObjectiveError("rosenbrock needs at least two dimensions")
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


_BRANIN_A = 1.0
_BRANIN_B = 5.1 / (4.0 * math.pi**2)
_BRANIN_C = 5.0 / math.pi
_BRANIN_R = 6.0
_BRANIN_S = 10.0
_BRANIN_T = 1.0 / (8.0 * math.pi)


def branin(x) -> float:
    x = np.asarray(x, dtype=float)
    if x.size != 2:
        raise ObjectiveError("branin is two-dimensional")
    x1, x2 = float(x[0]), float(x[1])
    return (
        _BRANIN_A * (x2 - _BRANIN_B * x1**2 + _BRANIN_C * x1 - _BRANIN_R) ** 2
        + _BRANIN_S * (1.0 - _BRANIN_T) * math.cos(x1)
        + _BRANIN_S
    )


BRANIN_MINIMUM = 0.39788735772973816

_BUILTINS = {
    "sphere": (sphere, ([-2.0], [2.0])),
    "rosenbrock": (rosenbrock, ([-2.0], [2.0])),
    "branin": (branin, ([-5.0, 0.0], [10.0, 15.0])),
}


def builtin_function(name: str):
    """The builtin objective called ``name``, as a callable of one point."""
    if name not in _BUILTINS:
        raise ObjectiveError(
            f"unknown builtin objective {name!r}; have {sorted(_BUILTINS)}"
        )
    return _BUILTINS[name][0]


def recommended_space(name: str, dimension: int | None = None) -> SearchSpace:
    """Default search box for a builtin, tiled to ``dimension`` if needed."""
    builtin_function(name)
    lo, hi = _BUILTINS[name][1]
    if name == "branin":
        if dimension not in (None, 2):
            raise ObjectiveError("branin is two-dimensional")
        return SearchSpace(lo, hi)
    least = 2 if name == "rosenbrock" else 1
    d = least if dimension is None else dimension
    if d < least:
        raise ObjectiveError(f"{name} needs dimension >= {least}, got {d}")
    return SearchSpace(np.full(d, lo[0]), np.full(d, hi[0]))


@dataclass(frozen=True)
class ObjectiveSpec(JsonCodec, error=ObjectiveError):
    """Either a builtin by name or an external worker command.

    ``mode`` applies to external objectives: ``"persistent"`` keeps one
    worker alive for the whole run, ``"oneshot"`` launches the command per
    evaluation.
    """

    kind: str = "builtin"  # or "external"
    name: str | None = None
    command: tuple[str, ...] | None = None
    mode: str = "persistent"
    timeout: float = 60.0

    def __post_init__(self):
        if self.command is not None:
            object.__setattr__(self, "command", tuple(self.command))
            if not all(isinstance(part, str) for part in self.command):
                raise ObjectiveError(f"command elements must be strings, got {self.command!r}")
        if self.kind == "builtin":
            builtin_function(self.name)
        elif self.kind == "external":
            if not self.command:
                raise ObjectiveError("external objective requires a command")
            if self.mode not in ("persistent", "oneshot"):
                raise ObjectiveError('mode must be "persistent" or "oneshot"')
            if not 0 < self.timeout <= MAX_TIMEOUT:
                raise ObjectiveError(f"timeout must be positive and at most {MAX_TIMEOUT} s")
        else:
            raise ObjectiveError(f'kind must be "builtin" or "external", got {self.kind!r}')
