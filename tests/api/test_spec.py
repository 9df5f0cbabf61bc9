"""``RunSpec`` validation and JSON round-trips (spec → dict → JSON → spec)."""

from __future__ import annotations

import json

import pytest

from repro.api import DATASETS, PLANES, DatasetSpec, InitSpec, RunSpec
from repro.cli import build_parser
from repro.core import ChiaroscuroParams

BASE = {
    "plane": "quality",
    "seed": 7,
    "strategy": "G",
    "dataset": {"kind": "cer", "params": {"n_series": 100}},
    "init": {"kind": "courbogen"},
    "params": {"k": 5, "epsilon": 0.69},
}

INIT_FOR_DATASET = {
    "cer": {"kind": "courbogen"},
    "numed": {"kind": "sample"},
    "points2d": {"kind": "sample"},
    "timeseries": {"kind": "matrix",
                   "params": {"values": [[1.0, 2.0], [3.0, 4.0]]}},
}
DATASET_PARAMS = {
    "cer": {"n_series": 100},
    "numed": {"n_series": 100},
    "points2d": {"n_clusters": 4, "points_per_cluster": 10},
    "timeseries": {"values": [[0.0, 1.0], [2.0, 3.0], [1.0, 1.0]],
                   "dmin": 0.0, "dmax": 4.0},
}


def spec_dict(**overrides) -> dict:
    d = json.loads(json.dumps(BASE))
    d.update(overrides)
    return d


class TestRoundTrip:
    @pytest.mark.parametrize("plane", sorted(PLANES.keys()))
    def test_round_trip_every_plane(self, plane):
        spec = RunSpec.from_dict(spec_dict(plane=plane))
        assert spec.plane == plane
        assert RunSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("kind", sorted(DATASETS.keys()))
    def test_round_trip_every_dataset(self, kind):
        spec = RunSpec.from_dict(spec_dict(
            dataset={"kind": kind, "params": DATASET_PARAMS[kind]},
            init=INIT_FOR_DATASET[kind],
            params={"k": 2 if kind == "timeseries" else 5, "epsilon": 0.69},
        ))
        assert RunSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("strategy", ["G", "GF", "UF", "UF5", "UF10"])
    def test_round_trip_every_strategy(self, strategy):
        spec = RunSpec.from_dict(spec_dict(strategy=strategy))
        roundtripped = RunSpec.from_json(spec.to_json())
        assert roundtripped == spec
        assert roundtripped.strategy == strategy

    def test_round_trip_preserves_full_params_sheet(self):
        spec = RunSpec.from_dict(spec_dict(params={
            "k": 9, "epsilon": 1.5, "max_iterations": 3, "exchanges": 17,
            "tau_fraction": 0.25, "smoothing_fraction": 0.1,
            "use_smoothing": False, "floor_size": 2, "theta": 0.01,
        }))
        again = RunSpec.from_json(spec.to_json())
        assert again.params == spec.params
        assert isinstance(again.params, ChiaroscuroParams)

    def test_save_and_load(self, tmp_path):
        spec = RunSpec.from_dict(spec_dict(name="disk-trip", churn=0.1))
        path = spec.save(tmp_path / "spec.json")
        assert RunSpec.load(path) == spec

    def test_tuple_params_normalize_to_lists(self):
        a = DatasetSpec(kind="cer", params={"values": (1, 2, 3)})
        b = DatasetSpec(kind="cer", params={"values": [1, 2, 3]})
        assert a == b


class TestPlanePivot:
    def test_same_spec_modulo_plane(self):
        base = RunSpec.from_dict(spec_dict())
        vectorized = base.with_plane("vectorized")
        assert vectorized.plane == "vectorized"
        # everything but the plane field is unchanged
        a, b = base.to_dict(), vectorized.to_dict()
        del a["plane"], b["plane"]
        assert a == b

    @pytest.mark.parametrize("there", sorted(PLANES))
    @pytest.mark.parametrize("home", sorted(PLANES))
    def test_pivot_round_trips(self, home, there):
        """The plane is one field, so pivoting away and back is the identity
        (it was not while ``params.protocol_plane`` rode along: a quality
        spec came back carrying the plane it had visited)."""
        spec = RunSpec.from_dict(spec_dict(plane=home))
        assert spec.with_plane(there).with_plane(home) == spec
        assert spec.replace(plane=there) == spec.with_plane(there)


class TestValidation:
    def test_unknown_plane(self):
        with pytest.raises(ValueError, match="unknown plane"):
            RunSpec.from_dict(spec_dict(plane="gpu"))

    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            RunSpec.from_dict(spec_dict(dataset={"kind": "nope"}))

    def test_unknown_initializer(self):
        with pytest.raises(ValueError, match="unknown initializer"):
            RunSpec.from_dict(spec_dict(init={"kind": "nope"}))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            RunSpec.from_dict(spec_dict(strategy="Z9"))

    def test_bad_params_key(self):
        with pytest.raises(ValueError, match="params"):
            RunSpec.from_dict(spec_dict(params={"k": 5, "warp_speed": 9}))

    def test_retired_use_packing_key(self):
        """Stored specs written while the knob existed carry its default and
        keep loading; asking for the removed scalar layout is refused."""
        stored = RunSpec.from_dict(spec_dict(params={"k": 5, "use_packing": True}))
        assert stored == RunSpec.from_dict(spec_dict(params={"k": 5}))
        assert "use_packing" not in stored.to_dict()["params"]
        with pytest.raises(ValueError, match="use_packing was removed"):
            RunSpec.from_dict(spec_dict(params={"k": 5, "use_packing": False}))

    def test_churn_range(self):
        with pytest.raises(ValueError, match="churn"):
            RunSpec.from_dict(spec_dict(churn=1.0))

    def test_typoed_options_key_rejected(self):
        with pytest.raises(ValueError, match="gossip_emax"):
            RunSpec.from_dict(spec_dict(options={"gossip_emax": 1e-3}))

    def test_known_options_keys_accepted_on_any_plane(self):
        # quality-plane keys stay valid on a protocol plane so one spec
        # can pivot planes; the plane simply ignores them
        spec = RunSpec.from_dict(spec_dict(
            plane="vectorized", options={"gossip_e_max": 1e-3}
        ))
        assert spec.options == {"gossip_e_max": 1e-3}

    def test_default_strategy_from_params(self):
        """Stored specs: a ``params.budget_strategy`` written while the key
        existed still names the strategy of a spec that has no other."""
        d = spec_dict()
        del d["strategy"]
        d["params"]["budget_strategy"] = "GF"
        assert RunSpec.from_dict(d).strategy == "GF"
        del d["params"]["budget_strategy"]
        assert RunSpec.from_dict(d).strategy == "G"

    def test_retired_plane_and_strategy_keys(self):
        """The plane and the strategy are named once, on the spec.  Stored
        specs carry both retired ``params`` keys: they load, lose to the
        spec's own fields where the two disagreed, and are not re-emitted."""
        stored = RunSpec.from_dict(spec_dict(
            plane="vectorized", strategy="UF3",
            params={"k": 5, "protocol_plane": "object", "budget_strategy": "G"},
        ))
        assert stored == RunSpec.from_dict(
            spec_dict(plane="vectorized", strategy="UF3", params={"k": 5})
        )
        assert (stored.plane, stored.strategy) == ("vectorized", "UF3")
        assert not {"protocol_plane", "budget_strategy"} & set(stored.to_dict()["params"])
        with pytest.raises(TypeError):
            ChiaroscuroParams(protocol_plane="object")


class TestFromCliArgs:
    def _args(self, *argv):
        return build_parser().parse_args(["cluster", *argv])

    def test_defaults_map_to_quality_plane(self):
        spec = RunSpec.from_cli_args(self._args())
        assert spec.plane == "quality"
        assert spec.dataset.kind == "cer"
        assert spec.dataset.params == {"n_series": 10_000, "population_scale": 100}
        assert spec.init.kind == "courbogen"
        assert spec.strategy == "G"
        assert spec.params.theta == 0.0  # Fig. 2 setting: no convergence test
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_flags_map_through(self):
        spec = RunSpec.from_cli_args(self._args(
            "--dataset", "numed", "--series", "500", "--scale", "10",
            "--k", "7", "--strategy", "uf4", "--epsilon", "1.2",
            "--iterations", "6", "--no-smoothing", "--churn", "0.2",
            "--seed", "11", "--plane", "vectorized",
        ))
        assert spec.dataset.params == {"n_series": 500, "population_scale": 10}
        assert spec.init.kind == "sample"
        assert spec.params.k == 7
        assert spec.strategy == "UF4"
        assert spec.params.epsilon == 1.2
        assert spec.params.use_smoothing is False
        assert spec.churn == 0.2
        assert spec.seed == 11
        assert spec.plane == "vectorized"

    def test_timeseries_needs_spec_file(self):
        with pytest.raises(ValueError, match="--spec"):
            RunSpec.from_cli_args(self._args("--dataset", "timeseries"))
