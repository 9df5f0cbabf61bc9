"""Registries and the ``@register_*`` decorator extension path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    DATASETS,
    INITIALIZERS,
    PLANES,
    STRATEGIES,
    Registry,
    register_dataset,
    resolve_strategy,
)
from repro.core import ChiaroscuroParams
from repro.datasets import TimeSeriesSet
from repro.privacy import Greedy, GreedyFloor, UniformFast, strategy_from_name


class TestRegistry:
    def test_builtin_keys_registered(self):
        assert DATASETS.keys() == ["cer", "numed", "points2d", "timeseries"]
        assert set(PLANES.keys()) == {
            "quality",
            "object",
            "vectorized",
            "vectorized-crypto",
        }
        assert set(STRATEGIES.keys()) == {"G", "GF", "UF"}
        assert {"courbogen", "sample", "matrix"} <= set(INITIALIZERS.keys())

    def test_unknown_key_lists_registered(self):
        with pytest.raises(KeyError, match="cer.*numed"):
            DATASETS.get("nope")

    def test_duplicate_key_rejected(self):
        registry = Registry("thing")
        registry.register("a", object())
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", object())

    def test_same_object_reregistration_is_idempotent(self):
        registry = Registry("thing")
        marker = object()
        registry.register("a", marker)
        registry.register("a", marker)  # no error
        assert registry.get("a") is marker

    def test_invalid_key_rejected(self):
        registry = Registry("thing")
        with pytest.raises(ValueError, match="invalid"):
            registry.register("white space", object())

    def test_decorator_returns_target_and_registers(self):
        @register_dataset("registry-test-constant")
        def build(seed, **params):
            return TimeSeriesSet(np.zeros((4, 3)) + 1.0, 0.0, 2.0)

        try:
            assert "registry-test-constant" in DATASETS
            assert DATASETS.get("registry-test-constant") is build
            assert DATASETS.get("registry-test-constant")(seed=0).t == 4
        finally:
            DATASETS._items.pop("registry-test-constant")


class TestStrategyResolution:
    PARAMS = ChiaroscuroParams(epsilon=0.8, floor_size=3, uf_iterations=7)

    def test_greedy(self):
        strategy = resolve_strategy("G", self.PARAMS)
        assert isinstance(strategy, Greedy)
        assert strategy.epsilon == 0.8

    def test_greedy_floor_reads_floor_size(self):
        strategy = resolve_strategy("GF", self.PARAMS)
        assert isinstance(strategy, GreedyFloor)
        assert strategy.floor_size == 3

    def test_uf_default_bound_from_params(self):
        strategy = resolve_strategy("UF", self.PARAMS)
        assert isinstance(strategy, UniformFast)
        assert strategy.n_iterations == 7

    def test_uf_parameterized_label(self):
        assert resolve_strategy("UF10", self.PARAMS).n_iterations == 10
        assert resolve_strategy("uf3", self.PARAMS).n_iterations == 3

    def test_unknown_strategy(self):
        with pytest.raises(KeyError, match="registered"):
            resolve_strategy("Z", self.PARAMS)

    @pytest.mark.parametrize(
        "label, expected",
        [
            ("G", ("G", None)),
            ("gf", ("GF", None)),
            ("UF", ("UF7", 7)),
            ("UF7", ("UF7", 7)),
            ("UF٣", ("UF3", 3)),  # a decimal digit int() reads
            ("UF0", None),
            ("UFx", None),
            ("UF²", None),  # isdigit, not isdecimal: int() rejects it
            ("", None),
        ],
    )
    def test_both_entry_points_parse_alike(self, label, expected):
        """The registry adds lookup, not a second parser: it accepts and
        rejects what ``strategy_from_name`` does, with the same result."""

        def outcome(build):
            try:
                strategy = build()
            except (KeyError, ValueError):
                return None
            return strategy.name, strategy.max_iterations()

        params = self.PARAMS
        assert outcome(lambda: resolve_strategy(label, params)) == expected
        assert outcome(
            lambda: strategy_from_name(
                label, params.epsilon, params.floor_size, params.uf_iterations
            )
        ) == expected
