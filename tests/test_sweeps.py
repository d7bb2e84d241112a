"""Tests for the scenario-sweep subsystem (spec, store, executor,
aggregation) and the engine plumbing it rides on."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.runner import CampaignConfig
from repro.attacks import FLEET_TRANSFORMS, apply_fleet_transform
from repro.sweeps import (
    SCHEMA_VERSION,
    GridAxis,
    RandomAxis,
    SpecValidationError,
    SweepOptions,
    SweepSpec,
    SweepStore,
    default_workers,
    expand_scenarios,
    render_status,
    run,
    scenario_config,
    sweep_status,
)
from repro.sweeps.aggregate import (
    accuracy_pivot,
    render_sweep_summary,
    roc_by_axis,
    tidy_accuracy,
)
from repro.hdl.simulator import ENGINES
from repro.sweeps import scheduler
from repro.sweeps.executor import SweepReport
from repro.cli import default_sweep_spec
from repro.sweeps.spec import CONFIG_FIELDS, _derive_seed, canonical_json

#: Cheap correlation parameters shared by the executor tests: a full
#: campaign at this point takes a few tens of milliseconds.
QUICK = {
    "parameters.k": 4,
    "parameters.m": 4,
    "parameters.n1": 32,
    "parameters.n2": 64,
}


#: Values of the wrong JSON type for their field.  Unchecked, each
#: fails only inside every attempt of its scenario or, worse, runs:
#: ``"False"`` and ``"no"`` are truthy, so the fleet is watermarked.
ILL_TYPED = [
    ("watermarked", "False"),
    ("watermarked", "no"),
    ("parameters.n2", "many"),
    ("parameters.n1", 32.5),
    ("parameters.k", 4.0),
    ("parameters.n2", True),
    ("engine", "warp"),
    ("attack", "bogus"),
    ("adc", 5),
    ("variation", 3),
    ("fleet_seed", 1.5),
]

#: What each sweep field takes, as the README's table documents it,
#: written out apart from ``CONFIG_FIELDS`` so a changed row fails here.
FIELD_TYPES = {
    "watermarked": "bool",
    "single_reference": "bool",
    "fleet_seed": "int",
    "measurement_seed": "int",
    "analysis_seed": "int",
    "parameters.k": "int",
    "parameters.m": "int",
    "parameters.n1": "int",
    "parameters.n2": "int",
    "adc.bits": "int",
    "noise.sigma": "number",
    "noise.drift_sigma": "number",
    "adc.headroom": "number",
    "variation.gain_sigma": "number",
    "variation.offset_sigma": "number",
    "variation.component_sigma": "number",
    "engine": "engine",
    "attack": "attack",
    "design": "string",
    "adc": "null",
    "variation": "null",
    "waveform": "null",
}

#: JSON values to offer every field, each with the types that take it.
JSON_PROBES = [
    (True, {"bool"}),
    (False, {"bool"}),
    (7, {"int", "number"}),
    (0.5, {"number"}),
    (7.0, {"number"}),
    ("text", {"string"}),
    ("compiled", {"string", "engine"}),
    ("strip_pads", {"string", "attack"}),
    (None, {"null"}),
    ([1], set()),
    ({"bits": 8}, set()),
]


#: Well-typed values outside their domain on the :data:`QUICK` point,
#: each with a piece of the config constructor's own message.
OUT_OF_DOMAIN = [
    ({"adc.bits": 99}, "ADC bits must be in [1, 24], got 99"),
    ({"adc.bits": 0}, "ADC bits must be in [1, 24], got 0"),
    ({"noise.sigma": -1}, "noise sigma must be non-negative"),
    ({"noise.drift_sigma": -1}, "drift sigma must be non-negative"),
    ({"adc.headroom": -1}, "ADC headroom must be non-negative"),
    ({"variation.gain_sigma": -0.1}, "variation sigmas must be non-negative"),
    ({"parameters.k": 0}, "all parameters must be positive"),
    ({"parameters.n1": 2}, "expression (1) violated: n1 = 2 < k = 4"),
    ({"parameters.n2": 8}, "expression (2) violated: n2 = 8 < k*m = 16"),
    ({"parameters.m": 10**9}, "expression (2) violated"),
    ({"adc": None, "adc.bits": 8}, "cannot set both 'adc' and 'adc.bits'"),
    (
        {"variation": None, "variation.gain_sigma": 0.1},
        "cannot set both 'variation' and 'variation.gain_sigma'",
    ),
    ({"fleet_seed": -1}, "fleet_seed must be >= 0, got -1"),
    ({"analysis_seed": -1}, "analysis_seed must be >= 0, got -1"),
]

#: One in-domain value of every sweep field, on the :data:`QUICK` point.
IN_DOMAIN = [
    ("watermarked", False),
    ("single_reference", False),
    ("engine", "interpreted"),
    ("design", "paper"),
    ("fleet_seed", 0),
    ("measurement_seed", -1),
    ("analysis_seed", 0),
    ("adc", None),
    ("variation", None),
    ("waveform", None),
    ("parameters.k", 1),
    ("parameters.m", 16),
    ("parameters.n1", 4),
    ("parameters.n2", 16),
    ("noise.sigma", 0),
    ("noise.drift_sigma", 0.5),
    ("adc.bits", 1),
    ("adc.bits", 24),
    ("adc.headroom", 0.0),
    ("variation.gain_sigma", 0),
    ("variation.offset_sigma", 2.5),
    ("variation.component_sigma", 0.1),
    ("attack", "strip_pads"),
]

#: The duplicate draw: five integer draws over two values.
DUPLICATE_DRAWS = dict(
    random=(RandomAxis("parameters.n2", 600, 601, integer=True),),
    n_random=5,
    base={"parameters.k": 8, "parameters.m": 8, "parameters.n1": 64},
)


def quick_spec(name="quick", sigmas=(0.5, 1.0), attacks=("none",), seed=5):
    return SweepSpec(
        name=name,
        grid=(
            GridAxis("noise.sigma", tuple(sigmas)),
            GridAxis("attack", tuple(attacks)),
        ),
        base=dict(QUICK),
        seed=seed,
    )


def count_expansions(monkeypatch):
    """Record the spec name of every ``expand_scenarios`` call.

    The spy is installed at each name the CLI, :func:`run` and the
    service's jobs look the function up by.
    """
    import repro.service.jobs
    import repro.sweeps.api

    calls = []

    def spy(spec):
        calls.append(spec.name)
        return expand_scenarios(spec)

    for module in (repro.sweeps, repro.sweeps.api, repro.service.jobs):
        monkeypatch.setattr(module, "expand_scenarios", spy)
    return calls


def store_digests(root):
    # Byte-identity is defined over the top-level result files only:
    # operational metadata (.leases/, .attempts/, failed/) is excluded.
    digests = {}
    for entry in sorted(os.listdir(root)):
        path = os.path.join(root, entry)
        if entry.startswith(".") or not os.path.isfile(path):
            continue
        with open(path, "rb") as handle:
            digests[entry] = hashlib.sha256(handle.read()).hexdigest()
    return digests


class TestSweepSpec:
    def test_grid_expansion_count_and_order(self):
        spec = SweepSpec(
            name="s",
            grid=(
                GridAxis("noise.sigma", (0.5, 1.0, 1.5)),
                GridAxis("watermarked", (True, False)),
            ),
        )
        assert spec.n_scenarios == 6
        scenarios = expand_scenarios(spec)
        assert len(scenarios) == 6
        # Rightmost axis fastest.
        assert [s.assignment["noise.sigma"] for s in scenarios[:2]] == [0.5, 0.5]
        assert [s.assignment["watermarked"] for s in scenarios[:2]] == [True, False]

    def test_unknown_field_rejected_at_construction(self):
        for path in ("noise.sigmaa", "nope", "watermarked.x", "noise.sigma.deep"):
            with pytest.raises(KeyError, match="unknown sweep field"):
                GridAxis(path, (1.0,))
            with pytest.raises(KeyError, match="unknown sweep field"):
                SweepSpec(name="s", base={path: 1})

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="no values"):
            GridAxis("noise.sigma", ())
        with pytest.raises(ValueError, match="duplicate"):
            GridAxis("noise.sigma", (1.0, 1.0))
        with pytest.raises(ValueError, match="swept twice"):
            SweepSpec(
                name="s",
                grid=(
                    GridAxis("noise.sigma", (1.0,)),
                    GridAxis("noise.sigma", (2.0,)),
                ),
            )
        with pytest.raises(ValueError, match="n_random"):
            SweepSpec(name="s", random=(RandomAxis("noise.sigma", 0.1, 2.0),))

    def test_scenario_ids_unique_and_reproducible(self):
        spec = quick_spec(sigmas=(0.5, 1.0, 1.5), attacks=("none", "strip"))
        first = [s.scenario_id for s in expand_scenarios(spec)]
        second = [s.scenario_id for s in expand_scenarios(quick_spec(
            sigmas=(0.5, 1.0, 1.5), attacks=("none", "strip")))]
        assert first == second
        assert len(set(first)) == len(first)

    def test_derived_seeds_depend_on_spec_seed_not_name(self):
        base = expand_scenarios(quick_spec(seed=5))[0]
        renamed = expand_scenarios(quick_spec(name="other", seed=5))[0]
        reseeded = expand_scenarios(quick_spec(seed=6))[0]
        assert base.overrides == renamed.overrides
        assert base.overrides["measurement_seed"] != reseeded.overrides[
            "measurement_seed"
        ]

    def test_explicit_seed_not_overwritten(self):
        spec = SweepSpec(
            name="s",
            grid=(GridAxis("noise.sigma", (1.0,)),),
            base={"measurement_seed": 123},
        )
        scenario = expand_scenarios(spec)[0]
        assert scenario.overrides["measurement_seed"] == 123

    def test_random_axes_deterministic_per_seed(self):
        def draws(seed):
            spec = SweepSpec(
                name="r",
                random=(RandomAxis("noise.sigma", 0.2, 2.0, log=True),),
                n_random=5,
                seed=seed,
            )
            return [s.assignment["noise.sigma"] for s in expand_scenarios(spec)]

        assert draws(1) == draws(1)
        assert draws(1) != draws(2)
        assert all(0.2 <= v <= 2.0 for v in draws(1))

    def test_random_integer_axis(self):
        spec = SweepSpec(
            name="r",
            random=(RandomAxis("parameters.n2", 200, 2000, integer=True),),
            n_random=4,
            base={"parameters.k": 4, "parameters.m": 4, "parameters.n1": 32},
            seed=3,
        )
        values = [s.assignment["parameters.n2"] for s in expand_scenarios(spec)]
        assert all(isinstance(v, int) for v in values)

    def test_scenario_config_applies_overrides(self):
        spec = SweepSpec(
            name="s",
            grid=(GridAxis("noise.sigma", (1.7,)), GridAxis("attack", ("strip",))),
            base={"parameters.n2": 2000, "engine": "interpreted"},
        )
        scenario = expand_scenarios(spec)[0]
        config = scenario_config(scenario)
        assert config.noise.sigma == 1.7
        assert config.parameters.n2 == 2000
        assert config.engine == "interpreted"
        assert config.attack == "strip"

    def test_spec_dict_round_trip(self):
        spec = SweepSpec(
            name="rt",
            grid=(GridAxis("noise.sigma", (0.5, 1.5)),),
            random=(RandomAxis("variation.component_sigma", 0.01, 0.1),),
            n_random=3,
            base={"watermarked": False},
            seed=11,
        )
        clone = SweepSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert clone == spec
        assert [s.scenario_id for s in expand_scenarios(clone)] == [
            s.scenario_id for s in expand_scenarios(spec)
        ]


DERIVED_SEEDS = ("fleet_seed", "measurement_seed", "analysis_seed")


class TestTierScopedSeeds:
    """A derived seed mixes the axis values of its own tiers only, so
    scenarios that differ in ceiling or analysis axes share silicon and
    noise."""

    @pytest.mark.parametrize(
        "field, values, moved",
        [
            ("attack", ("none", "strip"), DERIVED_SEEDS),
            ("variation.gain_sigma", (0.01, 0.02), DERIVED_SEEDS),
            ("watermarked", (True, False), DERIVED_SEEDS),
            ("noise.sigma", (0.5, 1.0), DERIVED_SEEDS[1:]),
            ("adc.bits", (8, 10), DERIVED_SEEDS[1:]),
            ("parameters.n1", (32, 48), DERIVED_SEEDS[2:]),
            ("parameters.n2", (64, 128), DERIVED_SEEDS[2:]),
            ("parameters.k", (2, 4), DERIVED_SEEDS[2:]),
            ("engine", ("compiled", "interpreted"), ()),
        ],
    )
    def test_an_axis_moves_the_seeds_of_its_tier_and_after(self, field, values, moved):
        spec = SweepSpec(name="s", grid=(GridAxis(field, values),), base=QUICK)
        first, second = (s.overrides for s in expand_scenarios(spec))
        assert [s for s in DERIVED_SEEDS if first[s] != second[s]] == list(moved)

    def test_default_grid_seeds(self):
        spec = default_sweep_spec()
        scenarios = expand_scenarios(spec)

        def tiers(s):
            return s.assignment["attack"], s.assignment["noise.sigma"]

        fleet = {s.assignment["attack"]: s.overrides["fleet_seed"] for s in scenarios}
        measurement = {tiers(s): s.overrides["measurement_seed"] for s in scenarios}
        assert len(set(fleet.values())) == 2  # one per attack
        assert len(set(measurement.values())) == 8  # attack x sigma
        for s in scenarios:
            assert s.overrides["fleet_seed"] == fleet[s.assignment["attack"]]
            assert s.overrides["measurement_seed"] == measurement[tiers(s)]
        # The analysis seed mixes the whole assignment, as before.
        analysis = [s.overrides["analysis_seed"] for s in scenarios]
        assert len(set(analysis)) == 24
        assert analysis == [
            _derive_seed(spec.seed, canonical_json(s.assignment), "analysis_seed")
            for s in scenarios
        ]

    def test_random_ceiling_axis_keeps_one_fleet_and_measurement(self):
        spec = SweepSpec(
            name="r",
            random=(RandomAxis("parameters.n2", 200, 2000, integer=True),),
            n_random=6,
            base={"parameters.k": 4, "parameters.m": 4, "parameters.n1": 32},
            seed=3,
        )
        scenarios = expand_scenarios(spec)
        assert len({s.overrides["fleet_seed"] for s in scenarios}) == 1
        assert len({s.overrides["measurement_seed"] for s in scenarios}) == 1
        assert len({s.overrides["analysis_seed"] for s in scenarios}) == 6

    def test_unpinned_engine_sweep_stores_equal_metrics_per_sigma(self, tmp_path):
        spec = SweepSpec(
            name="engines",
            grid=(
                GridAxis("engine", ("compiled", "interpreted")),
                GridAxis("noise.sigma", (0.5, 1.0)),
            ),
            base=QUICK,
            seed=5,
        )
        store = SweepStore(str(tmp_path / "store"))
        run(spec, store)
        by_sigma = {}
        for scenario in expand_scenarios(spec):
            metrics = store.get(scenario.scenario_id)["metrics"]
            by_sigma.setdefault(scenario.assignment["noise.sigma"], []).append(metrics)
        for compiled, interpreted in by_sigma.values():
            assert compiled == interpreted


class TestSpecWireFormat:
    """The versioned JSON wire format the sweep service speaks."""

    def full_spec(self):
        return SweepSpec(
            name="wire",
            grid=(
                GridAxis("noise.sigma", (0.5, 1.5)),
                GridAxis("attack", ("none", "strip")),
            ),
            random=(
                RandomAxis("variation.component_sigma", 0.01, 0.1, log=True),
                RandomAxis("parameters.n2", 64, 256, integer=True),
            ),
            n_random=3,
            base={"watermarked": False, "parameters.k": 4, "parameters.m": 4},
            seed=11,
        )

    def test_round_trip_is_lossless(self):
        spec = self.full_spec()
        payload = spec.to_json_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        wire = json.dumps(payload)  # must actually survive JSON text
        clone = SweepSpec.from_json_dict(json.loads(wire))
        assert clone == spec
        assert [s.scenario_id for s in expand_scenarios(clone)] == [
            s.scenario_id for s in expand_scenarios(spec)
        ]

    def test_version_1_spec_is_rejected(self):
        # Version 2 campaigns share each DUT's A_DUT,m across the
        # references, so a version 1 spec no longer describes its results.
        payload = quick_spec().to_json_dict()
        payload["schema_version"] = 1
        with pytest.raises(SpecValidationError, match="version 2") as excinfo:
            SweepSpec.from_json_dict(payload)
        assert excinfo.value.path == "schema_version"

    def test_defaults_omitted_fields_round_trip(self):
        spec = SweepSpec(name="d", grid=(GridAxis("attack", ("none",)),))
        assert SweepSpec.from_json_dict(spec.to_json_dict()) == spec

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda p: p.pop("schema_version"), "schema_version"),
            (lambda p: p.update(schema_version=99), "schema_version"),
            (lambda p: p.update(extra=1), "extra"),
            (lambda p: p.update(name=7), "name"),
            (lambda p: p.update(seed="x"), "seed"),
            (lambda p: p.update(n_random=True), "n_random"),
            (lambda p: p["grid"][0].update(field="bogus"), "grid[0].field"),
            (lambda p: p["grid"][0].update(values="ha"), "grid[0].values"),
            (lambda p: p["grid"][0].pop("field"), "grid[0].field"),
            (lambda p: p["random"][0].update(low="x"), "random[0].low"),
            (
                lambda p: p["random"][0].update(unexpected=1),
                "random[0].unexpected",
            ),
            (lambda p: p.update(base={"bogus": 1}), "base.bogus"),
            (
                lambda p: p.update(base={"noise.sigma": [1]}),
                "base.noise.sigma",
            ),
            (lambda p: p.update(grid="no"), "grid"),
            pytest.param(
                lambda p: p.update(base={"noise.sigma": float("nan")}),
                "base.noise.sigma",
                id="nan-base.noise.sigma",
            ),
            pytest.param(
                lambda p: p.update(base={"variation.gain_sigma": float("nan")}),
                "base.variation.gain_sigma",
                id="nan-base.variation.gain_sigma",
            ),
            pytest.param(
                lambda p: p["grid"][0].update(values=[0.5, float("inf")]),
                "grid[0].values",
                id="inf-grid[0].values",
            ),
            pytest.param(
                lambda p: p["grid"][0].update(values=[0.5, 10**400]),
                "grid[0].values",
                id="overflow-grid[0].values",
            ),
            *(
                pytest.param(
                    lambda p, key=key: p.update(base={key: 10**400}),
                    f"base.{key}",
                    id=f"overflow-base.{key}",
                )
                for key in (
                    "noise.sigma",
                    "noise.drift_sigma",
                    "adc.headroom",
                    "variation.gain_sigma",
                )
            ),
            pytest.param(
                lambda p: p["random"][0].update(high=float("inf")),
                "random[0]",
                id="inf-random[0].high",
            ),
            pytest.param(
                lambda p: p["random"][1].update(low=-float("inf")),
                "random[1]",
                id="inf-random[1].low",
            ),
            pytest.param(
                lambda p: p["random"][1].update(high=10**400),
                "random[1]",
                id="overflow-random[1].high",
            ),
        ],
    )
    def test_validation_errors_name_offending_path(self, mutate, path):
        payload = self.full_spec().to_json_dict()
        mutate(payload)
        with pytest.raises(SpecValidationError) as excinfo:
            SweepSpec.from_json_dict(payload)
        assert excinfo.value.path == path
        assert str(excinfo.value).startswith(path + ":")

    @pytest.mark.parametrize(
        "build",
        [
            lambda v: GridAxis("noise.sigma", (0.5, v)),
            lambda v: GridAxis("parameters.k", (v,)),
            lambda v: RandomAxis("noise.sigma", 0.1, v),
            lambda v: RandomAxis("noise.sigma", -v, 1.0),
            lambda v: SweepSpec(name="x", base={"variation.gain_sigma": v}),
        ],
    )
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "1e400"]
    )
    def test_non_finite_values_rejected(self, build, value):
        # NaN would expand into a campaign with sigma = NaN and write the
        # non-JSON token NaN into the scenario digest and record; an
        # integer beyond the float range fails the campaign's noise draw.
        with pytest.raises(ValueError, match="finite"):
            build(value)

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(SpecValidationError) as excinfo:
            SweepSpec.from_json_dict(["not", "a", "dict"])
        assert excinfo.value.path == "$"

    @pytest.mark.parametrize("field, value", ILL_TYPED)
    def test_ill_typed_values_rejected_naming_the_path(self, field, value):
        for payload, path in (
            ({"base": {field: value}}, f"base.{field}"),
            ({"grid": [{"field": field, "values": [value]}]}, "grid[0].values"),
        ):
            payload.update(schema_version=SCHEMA_VERSION, name="typed")
            with pytest.raises(SpecValidationError) as excinfo:
                SweepSpec.from_json_dict(payload)
            assert excinfo.value.path == path
            assert repr(field) in excinfo.value.detail

    def test_well_typed_values_keep_their_type(self):
        base = {
            "watermarked": False,
            "single_reference": True,
            "engine": "compiled",
            "design": "paper",
            "adc": None,
            "noise.sigma": 1,
            "parameters.n2": 1024,
            "attack": "strip_pads",
        }
        spec = SweepSpec.from_json_dict(
            {"schema_version": SCHEMA_VERSION, "name": "typed", "base": base}
        )
        (scenario,) = expand_scenarios(spec)
        for field, value in base.items():
            assert type(scenario.overrides[field]) is type(value)
            assert scenario.overrides[field] == value

    def test_random_axis_needs_a_number_field(self):
        with pytest.raises(ValueError, match="integer set"):
            RandomAxis("parameters.n2", 64, 256)
        for field in ("watermarked", "engine", "attack", "adc"):
            with pytest.raises(ValueError, match="cannot be randomly sampled"):
                RandomAxis(field, 0, 1, integer=True)
        RandomAxis("parameters.n2", 64, 256, integer=True)
        RandomAxis("noise.sigma", 0.5, 2.0, integer=True)

    def test_every_field_has_a_documented_type(self):
        assert FIELD_TYPES.keys() == CONFIG_FIELDS.keys()

    @pytest.mark.parametrize("field", sorted(FIELD_TYPES))
    def test_each_field_takes_only_its_type(self, field):
        for value, types in JSON_PROBES:
            payload = {
                "schema_version": SCHEMA_VERSION,
                "name": "typed",
                "base": {field: value},
            }
            if FIELD_TYPES[field] in types:
                assert SweepSpec.from_json_dict(payload).base[field] == value
                continue
            with pytest.raises(SpecValidationError) as excinfo:
                SweepSpec.from_json_dict(payload)
            assert excinfo.value.path == f"base.{field}", value

    def test_name_fields_take_every_name(self):
        for field, names in (("engine", ENGINES), ("attack", FLEET_TRANSFORMS)):
            for name in names:
                payload = {
                    "schema_version": SCHEMA_VERSION,
                    "name": "named",
                    "base": {field: name},
                }
                assert SweepSpec.from_json_dict(payload).base[field] == name


class TestConfigOverrides:
    def config_of(self, base):
        (scenario,) = expand_scenarios(SweepSpec(name="o", base=base))
        return scenario_config(scenario)

    def test_nested_and_top_level(self):
        config = self.config_of(
            {"noise.sigma": 0.3, "watermarked": False, "adc.bits": 8}
        )
        assert config.noise.sigma == 0.3
        assert config.watermarked is False
        assert config.adc.bits == 8
        assert config.noise.drift_sigma == CampaignConfig().noise.drift_sigma

    def test_nullable_nested_field(self):
        config = self.config_of({"adc": None, "variation": None})
        assert config.adc is None and config.variation is None

    def test_conflicting_whole_and_sub_override(self):
        with pytest.raises(SpecValidationError) as excinfo:
            self.config_of({"adc": None, "adc.bits": 8})
        assert excinfo.value.path == "base"
        assert excinfo.value.detail == (
            "scenario {}: cannot set both 'adc' and 'adc.bits'"
        )


class TestDomainsAtExpansion:
    """Expansion builds every scenario's config: the config's own
    constructors are the spec's domain check."""

    @pytest.mark.parametrize("bad, message", OUT_OF_DOMAIN)
    def test_base_value_rejected_naming_the_scenario(self, bad, message):
        spec = SweepSpec(name="domain", base={**QUICK, **bad})
        with pytest.raises(SpecValidationError) as excinfo:
            expand_scenarios(spec)
        assert excinfo.value.path == "base"
        assert excinfo.value.detail.startswith("scenario {}: ")
        assert message in excinfo.value.detail

    @pytest.mark.parametrize("bad, message", OUT_OF_DOMAIN)
    def test_axis_value_rejected_naming_the_scenario(self, bad, message):
        field, value = list(bad.items())[-1]
        base = {key: v for key, v in {**QUICK, **bad}.items() if key != field}
        spec = SweepSpec(name="domain", grid=(GridAxis(field, (value,)),), base=base)
        with pytest.raises(SpecValidationError) as excinfo:
            expand_scenarios(spec)
        assert excinfo.value.path == "$"
        assert excinfo.value.detail.startswith(
            f"scenario {canonical_json({field: value})}: "
        )
        assert message in excinfo.value.detail

    def test_first_bad_scenario_is_named(self):
        spec = SweepSpec(
            name="n1",
            grid=(GridAxis("parameters.n1", (32, 2)),),
            base={k: v for k, v in QUICK.items() if k != "parameters.n1"},
        )
        with pytest.raises(SpecValidationError) as excinfo:
            expand_scenarios(spec)
        assert str(excinfo.value) == (
            '$: scenario {"parameters.n1":2}: '
            "expression (1) violated: n1 = 2 < k = 4"
        )

    def test_random_axes_are_checked_on_their_draws(self):
        # The bounds cross the domain; the draws are what must build.
        inside = SweepSpec(
            name="bits",
            random=(RandomAxis("adc.bits", 1, 25, integer=True),),
            n_random=4,
            base=dict(QUICK),
            seed=0,
        )
        assert max(s.assignment["adc.bits"] for s in expand_scenarios(inside)) <= 24
        negative = SweepSpec(
            name="sigma",
            random=(RandomAxis("noise.sigma", -1.0, 1.0),),
            n_random=4,
            base=dict(QUICK),
            seed=0,
        )
        with pytest.raises(SpecValidationError) as excinfo:
            expand_scenarios(negative)
        assert excinfo.value.path == "$"
        assert excinfo.value.detail.startswith('scenario {"noise.sigma":-0.')
        assert "noise sigma must be non-negative" in excinfo.value.detail

    def test_duplicate_draws_rejected(self):
        with pytest.raises(SpecValidationError) as excinfo:
            expand_scenarios(SweepSpec(name="dup", **DUPLICATE_DRAWS))
        assert excinfo.value.path == "$"
        assert "duplicate scenarios" in excinfo.value.detail

    @pytest.mark.parametrize("field, value", IN_DOMAIN)
    def test_in_domain_value_builds(self, field, value):
        (scenario,) = expand_scenarios(
            SweepSpec(name="ok", base={**QUICK, field: value})
        )
        config = scenario_config(scenario)
        for name in field.split("."):
            config = getattr(config, name)
        assert config == value

    @pytest.mark.parametrize("seed", ["fleet_seed", "analysis_seed"])
    def test_negative_generator_seed_rejected_by_the_config(self, seed):
        with pytest.raises(ValueError, match=f"{seed} must be >= 0"):
            CampaignConfig(**{seed: -1})
        CampaignConfig(**{seed: 0})

    def test_negative_measurement_seed_runs(self, tmp_path):
        # It is only hashed into the measurement key.
        spec = SweepSpec(name="m", base={**QUICK, "measurement_seed": -1})
        report = run(spec, SweepStore(str(tmp_path / "store")))
        assert report.n_executed == 1 and not report.failed_ids

    def test_random_axes_need_a_non_negative_spec_seed(self):
        axis = RandomAxis("noise.sigma", 0.5, 2.0)
        with pytest.raises(ValueError, match="seed >= 0"):
            SweepSpec(name="r", random=(axis,), n_random=2, seed=-1)
        # Without random axes the spec seed only feeds the digests.
        assert expand_scenarios(SweepSpec(name="g", base=dict(QUICK), seed=-1))

    def test_random_range_beyond_the_floats_rejected(self):
        with pytest.raises(ValueError, match="range must be finite"):
            RandomAxis("noise.sigma", -1.7e308, 1.7e308)


#: JSON scalars, the non-finite floats and integers beyond the float
#: range among them.
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.sampled_from([10**400, -(10**400), 2**63]),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["paper", *ENGINES, *FLEET_TRANSFORMS]),
)
#: Scalars, lists and objects nested a few levels deep.
JSON_JUNK = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def typed_values(field):
    """Values of the field's JSON type, in its domain or not."""
    kind = CONFIG_FIELDS[field]
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    return {
        bool: st.booleans(),
        int: st.integers(-3, 70),
        float: st.integers(-3, 70) | st.floats(-1, 30),
        str: st.just("paper"),
        None: st.none(),
    }[kind]


def loose_values(field):
    """Values of the field's JSON type, or any JSON scalar."""
    return typed_values(field) | JSON_SCALARS


def spec_payloads(values):
    """Spec payloads whose axis and base values are drawn by ``values``."""
    fields = st.sampled_from(sorted(CONFIG_FIELDS))
    grid_axis = fields.flatmap(
        lambda field: st.fixed_dictionaries(
            {
                "field": st.just(field),
                "values": st.lists(
                    values(field), min_size=1, max_size=4, unique_by=repr
                ),
            }
        )
    )
    bound = st.one_of(
        st.integers(-3, 70),
        st.floats(-1, 30),
        st.floats(),
        st.sampled_from([-1e308, 1e308]),
    )

    def random_axis(field):
        return st.builds(
            lambda low, high, log, integer: {
                "field": field,
                "low": min(low, high),
                "high": max(low, high),
                "log": log,
                "integer": integer,
            },
            bound,
            bound,
            st.booleans(),
            st.just(True) if CONFIG_FIELDS[field] is int else st.booleans(),
        )

    numbers = sorted(f for f, kind in CONFIG_FIELDS.items() if kind in (int, float))
    draws = st.fixed_dictionaries(
        {
            "random": st.lists(
                st.sampled_from(numbers).flatmap(random_axis), min_size=1, max_size=2
            ),
            "n_random": st.integers(1, 6),
        }
    )
    base = fields.flatmap(lambda field: st.tuples(st.just(field), values(field)))
    spec = st.fixed_dictionaries(
        {"schema_version": st.just(SCHEMA_VERSION), "name": st.just("fuzz")},
        optional={
            "grid": st.lists(grid_axis, max_size=3),
            "base": st.lists(base, max_size=6).map(dict),
            "seed": st.integers(-2, 2**40),
        },
    )
    return st.tuples(spec, st.just({}) | draws).map(
        lambda parts: {**parts[0], **parts[1]}
    )


#: Spec payloads: well typed; loosely typed; well typed but for one
#: part, which is junk (an unknown part among them); and junk.
SPEC_PAYLOADS = st.one_of(
    spec_payloads(typed_values),
    spec_payloads(loose_values),
    st.tuples(
        spec_payloads(typed_values),
        st.sampled_from(
            ["schema_version", "name", "grid", "random", "n_random", "base", "seed"]
            + ["extra"]
        ),
        JSON_JUNK,
    ).map(lambda parts: {**parts[0], parts[1]: parts[2]}),
    JSON_JUNK,
)


@given(SPEC_PAYLOADS)
def test_spec_wire_format_fuzz(payload):
    # Only SpecValidationError leaves the wire format and expansion, and
    # a spec that expands runs only configs that build.
    try:
        spec = SweepSpec.from_json_dict(payload)
    except SpecValidationError:
        return
    if spec.n_scenarios > 64:
        return
    try:
        scenarios = expand_scenarios(spec)
    except SpecValidationError:
        return
    assert len(scenarios) == spec.n_scenarios
    for scenario in scenarios:
        scenario_config(scenario)


class TestSweepStore:
    def test_round_trip(self, tmp_path):
        store = SweepStore(str(tmp_path / "store"))
        record = {"scenario_id": "abc", "metrics": {"accuracy": {"x": 1.0}}}
        arrays = {"C/IP_A/DUT#1": np.arange(4.0)}
        assert not store.has("abc")
        store.put("abc", record, arrays)
        assert store.has("abc") and "abc" in store
        assert store.get("abc") == record
        np.testing.assert_array_equal(
            store.get_arrays("abc")["C/IP_A/DUT#1"], np.arange(4.0)
        )
        assert store.ids() == ["abc"]
        assert len(store) == 1

    def test_no_temp_residue_and_deterministic_bytes(self, tmp_path):
        a, b = SweepStore(str(tmp_path / "a")), SweepStore(str(tmp_path / "b"))
        record = {"scenario_id": "abc", "value": 1.25}
        arrays = {"x": np.ones(3)}
        a.put("abc", record, arrays)
        b.put("abc", record, arrays)
        assert store_digests(a.root) == store_digests(b.root)
        assert not [f for f in os.listdir(a.root) if f.startswith(".tmp-")]


class TestRunSweep:
    def test_executes_then_resumes(self, tmp_path):
        spec = quick_spec()
        store = SweepStore(str(tmp_path / "store"))
        report = run(spec, store)
        assert isinstance(report, SweepReport)
        assert report.n_scenarios == 2
        assert report.n_executed == 2 and report.n_cached == 0
        again = run(spec, store)
        assert again.n_executed == 0 and again.n_cached == 2

    def test_interrupted_sweep_reruns_only_missing(self, tmp_path):
        spec = quick_spec(sigmas=(0.5, 1.0, 1.5))
        store = SweepStore(str(tmp_path / "store"))
        run(spec, store)
        before = store_digests(store.root)
        # Simulate a kill mid-sweep: one scenario's result never landed.
        victim = expand_scenarios(spec)[1].scenario_id
        os.unlink(store.record_path(victim))
        os.unlink(store.arrays_path(victim))
        report = run(spec, store)
        assert report.executed_ids == [victim]
        assert report.n_cached == 2
        # The re-executed scenario reproduces its exact bytes.
        assert store_digests(store.root) == before

    def test_extending_a_sweep_reuses_overlap(self, tmp_path):
        store = SweepStore(str(tmp_path / "store"))
        run(quick_spec(sigmas=(0.5, 1.0)), store)
        extended = quick_spec(sigmas=(0.5, 1.0, 1.5, 2.0))
        report = run(extended, store)
        assert report.n_cached == 2 and report.n_executed == 2

    def test_failure_quarantines_and_continues(
        self, tmp_path, monkeypatch, fail_scenario
    ):
        # The middle scenario fails in every attempt, so it can never
        # succeed; it must be quarantined while every sibling completes
        # and the sweep returns normally.
        from repro.sweeps import FailureLog

        monkeypatch.setattr(scheduler, "BACKOFF_BASE", 0.0)
        spec = SweepSpec(
            name="fail",
            grid=(GridAxis("parameters.n1", (32, 40, 48)),),
            base={k: v for k, v in QUICK.items() if k != "parameters.n1"},
        )
        bad = expand_scenarios(spec)[1].scenario_id
        fail_scenario(bad)
        store = SweepStore(str(tmp_path / "store"))
        report = run(spec, store, SweepOptions(max_retries=1))
        assert report.failed_ids == [bad]
        assert len(store) == 2
        good_ids = {
            s.scenario_id for s in expand_scenarios(spec)
            if s.scenario_id != bad
        }
        assert set(store.ids()) == good_ids
        quarantine = FailureLog(store.root).load_quarantine(bad)
        assert quarantine["attempts"] == 2
        assert quarantine["error"]["type"]

    def test_progress_callback(self, tmp_path):
        spec = quick_spec()
        store = SweepStore(str(tmp_path / "store"))
        seen = []
        run(spec, store, progress=lambda sid, ran: seen.append((sid, ran)))
        assert sorted(sid for sid, ran in seen if ran) == sorted(store.ids())
        seen.clear()
        run(spec, store, progress=lambda sid, ran: seen.append((sid, ran)))
        assert all(not ran for _, ran in seen) and len(seen) == 2

    def test_rejects_bad_worker_count(self, tmp_path):
        with pytest.raises(ValueError):
            run(quick_spec(), SweepStore(str(tmp_path)), SweepOptions(n_workers=0))

    def test_version_1_records_are_never_served(self, tmp_path, monkeypatch):
        # A root shared across the schema bump: the version 2 sweep of
        # the same spec executes every scenario and leaves the version 1
        # records as they were.
        from repro.sweeps import spec as spec_module

        spec = quick_spec(attacks=("none", "strip"))
        store = SweepStore(str(tmp_path / "store"))
        with monkeypatch.context() as patch:
            patch.setattr(spec_module, "SCHEMA_VERSION", 1)
            old = run(spec, store)
        v1_records = store_digests(store.root)
        report = run(spec, store)
        assert report.cached_ids == []
        assert report.n_executed == old.n_executed == 4
        assert set(report.scenario_ids).isdisjoint(old.scenario_ids)
        digests = store_digests(store.root)
        assert {name: digests[name] for name in v1_records} == v1_records


class TestWorkerDeterminism:
    def test_four_workers_bit_identical_to_one(self, tmp_path):
        spec = quick_spec(sigmas=(0.4, 0.8, 1.2, 1.6), attacks=("none", "strip"))
        serial = SweepStore(str(tmp_path / "serial"))
        pooled = SweepStore(str(tmp_path / "pooled"))
        report1 = run(spec, serial)
        report4 = run(spec, pooled, SweepOptions(n_workers=4))
        assert report1.n_executed == report4.n_executed == 8
        assert report1.executed_ids == report4.executed_ids
        assert store_digests(serial.root) == store_digests(pooled.root)


class TestAttacks:
    def test_attack_names(self):
        assert set(FLEET_TRANSFORMS) == {"none", "strip", "strip_pads"}

    def test_unknown_attack_fails_fast(self):
        with pytest.raises(KeyError, match="unknown attack"):
            apply_fleet_transform({}, "melt")

    def test_strip_attack_defeats_identification(self, tmp_path):
        # At low noise the genuine fleet identifies perfectly; a fully
        # stripped DUT fleet must not (the keyed signature is gone).
        store = SweepStore(str(tmp_path / "store"))
        spec = quick_spec(sigmas=(0.25,), attacks=("none", "strip"))
        run(spec, store)
        rows = tidy_accuracy(store, expand_scenarios(spec))
        by_attack = {
            row["attack"]: row["accuracy"]
            for row in rows
            if row["distinguisher"] == "higher-mean"
        }
        assert by_attack["none"] == 1.0
        assert by_attack["strip"] < 1.0


class TestAggregation:
    @pytest.fixture(scope="class")
    def populated(self, tmp_path_factory):
        spec = quick_spec(sigmas=(0.5, 1.0), attacks=("none", "strip"), seed=9)
        store = SweepStore(str(tmp_path_factory.mktemp("agg")))
        run(spec, store)
        return spec, store

    def test_tidy_rows_carry_axes(self, populated):
        spec, store = populated
        rows = tidy_accuracy(store, expand_scenarios(spec))
        assert len(rows) == 4 * 2  # scenarios x distinguishers
        for row in rows:
            assert {"scenario_id", "noise.sigma", "attack", "distinguisher",
                    "accuracy", "mean_confidence"} <= set(row)
            assert 0.0 <= row["accuracy"] <= 1.0

    def test_restriction_to_scenarios(self, populated):
        spec, store = populated
        subset = expand_scenarios(quick_spec(sigmas=(0.5,), attacks=("none",),
                                             seed=9))
        rows = tidy_accuracy(store, subset)
        assert len(rows) == 2

    def test_accuracy_pivot_renders(self, populated):
        spec, store = populated
        rows = tidy_accuracy(store, expand_scenarios(spec))
        table = accuracy_pivot(rows, "noise.sigma", "attack")
        assert "noise.sigma" in table and "strip" in table

    def test_roc_by_axis(self, populated):
        spec, store = populated
        rows = roc_by_axis(store, "noise.sigma", expand_scenarios(spec))
        assert [row["noise.sigma"] for row in rows] == [0.5, 1.0]
        for row in rows:
            assert 0.0 <= row["auc"] <= 1.0
            assert row["n_genuine"] == 8 and row["n_counterfeit"] == 24

    def test_summary_renders(self, populated):
        spec, store = populated
        text = render_sweep_summary(store, expand_scenarios(spec))
        assert "accuracy[lower-variance]" in text and "screening AUC" in text

    def test_empty_summary(self, tmp_path):
        store = SweepStore(str(tmp_path / "empty"))
        assert "no results" in render_sweep_summary(store)


class TestEnginePlumbing:
    def test_engine_reaches_devices(self):
        from repro.experiments.runner import manufacture_fleet

        refds, duts = manufacture_fleet(CampaignConfig(engine="interpreted"))
        assert all(d.engine == "interpreted" for d in refds.values())
        assert all(d.engine == "interpreted" for d in duts.values())

    def test_engines_agree_on_a_scenario(self, tmp_path):
        # The engine axis must not change results: the compiled engine
        # is bit-identical to the oracle, so every stored byte except
        # the engine override itself matches.
        from repro.sweeps.scenario import run_scenario

        def result(engine):
            spec = SweepSpec(
                name="e",
                grid=(GridAxis("noise.sigma", (0.5,)),),
                base=dict(QUICK, engine=engine),
            )
            payload = run_scenario(expand_scenarios(spec)[0])
            return payload["record"]["metrics"], payload["arrays"]

        compiled_metrics, compiled_arrays = result("compiled")
        interpreted_metrics, interpreted_arrays = result("interpreted")
        assert compiled_metrics == interpreted_metrics
        for key in compiled_arrays:
            np.testing.assert_array_equal(
                compiled_arrays[key], interpreted_arrays[key]
            )


class TestRocOrdering:
    def test_numeric_axis_values_sort_numerically(self, tmp_path):
        spec = SweepSpec(
            name="order",
            grid=(GridAxis("parameters.n2", (1024, 256, 512)),),
            base={k: v for k, v in QUICK.items() if k != "parameters.n2"},
        )
        store = SweepStore(str(tmp_path / "store"))
        run(spec, store)
        rows = roc_by_axis(store, "parameters.n2", expand_scenarios(spec))
        assert [row["parameters.n2"] for row in rows] == [256, 512, 1024]


class TestUnifiedFacade:
    """``repro.sweeps.run`` over both execution strategies."""

    def test_plain_and_scheduled_runs_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scheduler, "POLL_INTERVAL", 0.01)
        spec = quick_spec(name="facade", attacks=("none", "strip"))
        plain = SweepStore(str(tmp_path / "plain"))
        run(spec, plain)

        scheduled = SweepStore(str(tmp_path / "scheduled"))
        run(spec, scheduled, SweepOptions(lease_ttl=30.0))
        assert store_digests(scheduled.root) == store_digests(plain.root)

    def test_lease_setting_routes_to_lease_scheduler(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scheduler, "POLL_INTERVAL", 0.01)
        spec = quick_spec(name="routed", sigmas=(0.5,))
        plain = SweepStore(str(tmp_path / "plain"))
        run(spec, plain)
        scheduled = SweepStore(str(tmp_path / "scheduled"))
        run(spec, scheduled, SweepOptions(scenario_timeout=60.0))
        # Several workers select the scheduler without a lease setting.
        multi = SweepStore(str(tmp_path / "multi"))
        run(spec, multi, SweepOptions(n_workers=2))
        # Both executors record attempt history in .attempts/; only the
        # lease scheduler takes leases.
        assert not os.path.exists(os.path.join(plain.root, ".leases"))
        assert os.path.isdir(os.path.join(scheduled.root, ".leases"))
        assert os.path.isdir(os.path.join(multi.root, ".leases"))
        assert len(plain) == len(scheduled) == len(multi) == 1

    def test_default_options_run(self, tmp_path):
        spec = quick_spec(name="defaults", sigmas=(0.5,))
        store = SweepStore(str(tmp_path / "store"))
        report = run(spec, store)  # options default to SweepOptions()
        assert report.n_executed == 1

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            SweepOptions(n_workers=0)

    def test_default_workers_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_workers() == 3


#: A bad value of each :class:`SweepOptions` field.
BAD_OPTIONS = (
    [("n_workers", value) for value in (2.5, True, "2", 0)]
    + [("max_retries", value) for value in (-1, True, 2.5)]
    + [
        (name, value)
        for name in ("lease_ttl", "scenario_timeout", "status_interval")
        for value in (float("nan"), float("inf"), 0, True, 10**400)
    ]
)


class TestSweepOptions:
    def test_six_settings(self):
        assert [field.name for field in dataclasses.fields(SweepOptions)] == [
            "n_workers",
            "artifacts",
            "max_retries",
            "lease_ttl",
            "scenario_timeout",
            "status_interval",
        ]

    @pytest.mark.parametrize(
        "name, value",
        [pytest.param(*bad, id=f"{bad[0]}={bad[1]!r:.8}") for bad in BAD_OPTIONS],
    )
    def test_bad_value_raises_naming_the_field(self, name, value):
        # The one validation site: an integer beyond the float range is
        # not a finite number of seconds, and no bool passes as a number.
        with pytest.raises(ValueError, match=f"^{name}: expected"):
            SweepOptions(**{name: value})


class TestSweepStatus:
    def test_counts_and_rendering(self, tmp_path):
        spec = quick_spec(name="status", attacks=("none", "strip"))
        scenario_ids = [s.scenario_id for s in expand_scenarios(spec)]
        store = SweepStore(str(tmp_path / "store"))

        empty = sweep_status(store.root, scenario_ids=scenario_ids)
        assert empty.completed == 0 and empty.pending == len(scenario_ids)
        assert not empty.done

        run(spec, store)
        status = sweep_status(store.root, scenario_ids=scenario_ids)
        assert status.completed == len(scenario_ids)
        assert status.pending == 0 and status.done
        assert status.quarantined == 0 and status.leased == 0
        text = render_status(status)
        assert text.startswith(f"completed {len(scenario_ids)}/")
        assert "pending 0" in text and "quarantined 0" in text
        payload = json.loads(json.dumps(status.to_json_dict()))
        assert payload["completed"] == len(scenario_ids)

    def test_unscoped_status_covers_whole_store(self, tmp_path):
        store = SweepStore(str(tmp_path / "store"))
        run(quick_spec(name="all", sigmas=(0.5,)), store)
        status = sweep_status(store.root)
        assert status.completed == 1
        assert status.total is None and status.pending is None

    def test_snapshot_does_not_create_metadata_dirs(self, tmp_path):
        store = SweepStore(str(tmp_path / "store"))
        sweep_status(store.root)
        assert not os.path.exists(os.path.join(store.root, ".leases"))
        assert not os.path.exists(os.path.join(store.root, ".attempts"))

    def test_quarantine_counted(self, tmp_path, monkeypatch, fail_scenario):
        monkeypatch.setattr(scheduler, "BACKOFF_BASE", 0.0)
        spec = SweepSpec(
            name="qstat",
            grid=(GridAxis("parameters.n1", (32, 40)),),
            base={k: v for k, v in QUICK.items() if k != "parameters.n1"},
        )
        scenario_ids = [s.scenario_id for s in expand_scenarios(spec)]
        fail_scenario(scenario_ids[1])
        store = SweepStore(str(tmp_path / "store"))
        run(spec, store, SweepOptions(max_retries=1))
        status = sweep_status(store.root, scenario_ids=scenario_ids)
        assert status.completed == 1 and status.quarantined == 1
        assert status.pending == 0 and status.done
