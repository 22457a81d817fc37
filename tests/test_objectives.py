import json
import math
from dataclasses import fields

import numpy as np
import pytest

from gpbo.baseline import random_search_baseline
from gpbo.loop import SearchSpace
from gpbo.objectives import (
    BRANIN_MINIMUM,
    MAX_TIMEOUT,
    ObjectiveError,
    ObjectiveSpec,
    branin,
    builtin_function,
    recommended_space,
    rosenbrock,
    sphere,
)


class TestBuiltins:
    def test_sphere_minimum_at_origin(self):
        assert sphere([0.0, 0.0, 0.0]) == 0.0
        assert builtin_function("sphere")([1.0, 2.0]) == 5.0

    def test_rosenbrock_minimum(self):
        assert rosenbrock([1.0, 1.0]) == 0.0
        assert rosenbrock([1.0, 1.0, 1.0]) == 0.0
        assert rosenbrock([0.0, 0.0]) == 1.0

    def test_branin_known_minimizers(self):
        for x in [(math.pi, 2.275), (-math.pi, 12.275), (9.42478, 2.475)]:
            assert branin(x) == pytest.approx(0.397887, abs=1e-4)

    def test_branin_grid_oracle(self):
        # dense grid: nothing below the known minimum, and the minimizer
        # neighborhood is where it should be
        x1 = np.linspace(-5, 10, 1000)
        x2 = np.linspace(0, 15, 1000)
        G1, G2 = np.meshgrid(x1, x2)
        vals = (
            (G2 - 5.1 / (4 * math.pi**2) * G1**2 + 5 / math.pi * G1 - 6) ** 2
            + 10 * (1 - 1 / (8 * math.pi)) * np.cos(G1)
            + 10
        )
        assert vals.min() >= 0.3978
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        argmin = np.array([G1[i, j], G2[i, j]])
        minimizers = np.array(
            [[math.pi, 2.275], [-math.pi, 12.275], [9.42478, 2.475]]
        )
        assert np.min(np.linalg.norm(minimizers - argmin, axis=1)) < 0.05
        assert branin(argmin) == pytest.approx(vals.min(), rel=1e-12)
        assert abs(vals.min() - BRANIN_MINIMUM) < 1e-3

    def test_unknown_name_raises(self):
        with pytest.raises(ObjectiveError):
            builtin_function("ackley")([0.0])

    def test_determinism(self):
        x = [0.3, -1.2]
        assert branin([1.0, 2.0]) == branin([1.0, 2.0])
        assert sphere(x) == sphere(x)

    def test_recommended_spaces(self):
        b = recommended_space("branin")
        np.testing.assert_array_equal(b.lower, [-5.0, 0.0])
        np.testing.assert_array_equal(b.upper, [10.0, 15.0])
        s = recommended_space("sphere", dimension=3)
        assert s.dimension == 3

    @pytest.mark.parametrize(
        "name, dimension", [("sphere", 0), ("sphere", -2), ("rosenbrock", 1), ("rosenbrock", 0)]
    )
    def test_recommended_space_rejects_impossible_dimensions(self, name, dimension):
        with pytest.raises(ObjectiveError, match="dimension"):
            recommended_space(name, dimension)


class TestRandomSearch:
    def test_trace_length_and_monotone_incumbent(self):
        space = SearchSpace([-2, -2], [2, 2])
        trace = random_search_baseline(sphere, space, budget=40, seed=0)
        assert len(trace) == 40
        incs = [r.incumbent_f for r in trace]
        assert all(a >= b for a, b in zip(incs, incs[1:]))
        for rec in trace:
            assert space.contains(rec.x)

    def test_deterministic(self):
        space = SearchSpace([-2.0], [2.0])
        t1 = random_search_baseline(sphere, space, 10, seed=9)
        t2 = random_search_baseline(sphere, space, 10, seed=9)
        assert all(np.array_equal(a.x, b.x) for a, b in zip(t1, t2))


class TestObjectiveSpec:
    def test_builtin_validation(self):
        with pytest.raises(ObjectiveError):
            ObjectiveSpec(kind="builtin", name="nope")

    def test_external_requires_command(self):
        with pytest.raises(ObjectiveError):
            ObjectiveSpec(kind="external")

    @pytest.mark.parametrize("timeout", [0.0, -1.0, math.nan, math.inf])
    def test_timeout_must_be_positive_and_finite(self, timeout):
        with pytest.raises(ObjectiveError, match="timeout"):
            ObjectiveSpec(kind="external", command=["x"], timeout=timeout)

    def test_timeout_at_most_what_the_waits_take(self):
        # 2**31 - 1 ms is the longest timeout subprocess.run takes
        spec = ObjectiveSpec(kind="external", command=["x"], timeout=MAX_TIMEOUT)
        assert spec.timeout == 2147483.647
        for timeout in (math.nextafter(MAX_TIMEOUT, math.inf), 2147484.0, 1e300, 10**400):
            with pytest.raises(ObjectiveError, match="timeout"):
                ObjectiveSpec(kind="external", command=["x"], timeout=timeout)

    def test_json_round_trip(self):
        external = ObjectiveSpec(
            kind="external", command=("python3", "worker.py"), mode="oneshot",
            timeout=5.0,
        )
        for spec in (external, ObjectiveSpec(kind="builtin", name="branin")):
            obj = json.loads(json.dumps(spec.to_json_dict()))
            assert set(obj) == {f.name for f in fields(ObjectiveSpec)}
            assert ObjectiveSpec.from_json_dict(obj) == spec
