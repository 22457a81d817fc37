"""Uniform random search over the box, emitting the same Trace format."""

from __future__ import annotations

import numpy as np

from . import gp
from .loop import SearchSpace, Trace, drive
from .loop import incumbent  # noqa: F401  kept resolvable: perfbench/spans.py patches it by name


def random_search_baseline(
    objective,
    space: SearchSpace,
    budget: int,
    seed: int,
    direction: str = gp.MINIMIZE,
    trace_writer=None,
) -> Trace:
    """budget uniform evaluations in the box; deterministic given seed.

    Each point is a uniform draw in the unit cube mapped by
    ``space.from_unit``: the bits of ``rng.uniform(lower, upper)``.
    Evaluation, recording and failure handling are those of
    :func:`gpbo.loop.drive`, which ``run_bo`` shares.
    """
    rng = np.random.default_rng(seed)

    def propose(it, X_seen, y_seen):
        return space.from_unit(rng.random(space.dimension)), float("nan"), None

    return drive(objective, propose, space.dimension, budget, direction, trace_writer)
