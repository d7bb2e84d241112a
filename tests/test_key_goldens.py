"""Absolute goldens for artifact keys, scenario ids and keyed acquisition.

The byte-identity tests elsewhere compare two paths of one tree, so a
change that moved every key alike (and so re-seeded every acquisition)
would still pass them.  These constants were computed before the key
payloads were built from the tier table; a change to any of them is a
deliberate schema change (``ARTIFACT_SCHEMA`` or ``SCHEMA_VERSION``),
not a refactor.  A deliberate change to how a spec expands (its derived
seeds) also moves ``DEFAULT_SWEEP_IDS_SHA256``; it needs no schema
bump, because scenario ids hash the seeds.

BLAS-dependent values, such as correlation sets, stay out: every value
pinned here is a digest of canonical JSON or of elementwise float
arithmetic.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.acquisition.bench import acquire_keyed
from repro.acquisition.oscilloscope import Oscilloscope
from repro.cli import default_sweep_spec
from repro.core.process import ProcessParameters
from repro.experiments.artifacts import fleet_key, measurement_base_key
from repro.experiments.runner import CampaignConfig, manufacture_fleet
from repro.power.noise import NoiseModel
from repro.sweeps import GridAxis, SweepSpec, expand_scenarios

CONFIGS = {
    "default": CampaignConfig(),
    "imported_c17": CampaignConfig(design="imported:benchmarks/netlists/c17.v"),
    "interpreted": CampaignConfig(engine="interpreted"),
    "no_adc_no_variation": CampaignConfig(adc=None, variation=None),
    "noisy_quick": CampaignConfig(
        noise=NoiseModel(sigma=1.5),
        parameters=ProcessParameters(k=8, m=8, n1=64, n2=256),
    ),
    "plain_multi_reference": CampaignConfig(single_reference=False, watermarked=False),
}

KEY_FUNCTIONS = (fleet_key, measurement_base_key)

#: ``(fleet, measurement base)`` keys per config and attack.
KEYS = {
    ("default", "none"): (
        "c47486dc163074d90b5366bf744becdc",
        "a251198c035adedb3a79ed94a343df85",
    ),
    ("default", "strip"): (
        "f9d218e3300ee50f2dafd9c45cd0df53",
        "aa186b2b5c47563bd8111974510d765d",
    ),
    ("imported_c17", "none"): (
        "3b4165bf20cb90d013b6b51b46120db1",
        "5ae3feeaaf41c52f78987ac56d6f6d67",
    ),
    ("imported_c17", "strip"): (
        "758d0f56f731eecaeb455a064ed28976",
        "89e1d93ca211e2108361e52a12af9fbc",
    ),
    ("interpreted", "none"): (
        "9a8185d0323c347f25e6c7db234d5d36",
        "a251198c035adedb3a79ed94a343df85",
    ),
    ("interpreted", "strip"): (
        "78c6f93442e7b6a63fcedece049ce383",
        "aa186b2b5c47563bd8111974510d765d",
    ),
    ("no_adc_no_variation", "none"): (
        "8a5150caf9cd80d9edf70bb617e3a419",
        "6b089b167e682d9fc394732859fec700",
    ),
    ("no_adc_no_variation", "strip"): (
        "68d526ce5b59c3e44ba8b942cf290cd7",
        "e56a7e465cffd9ee5eda2732df220563",
    ),
    ("noisy_quick", "none"): (
        "c47486dc163074d90b5366bf744becdc",
        "0ad9692fc175e0c72ecb40222a2834a1",
    ),
    ("noisy_quick", "strip"): (
        "f9d218e3300ee50f2dafd9c45cd0df53",
        "c8718c0713e3377705167e4f42b7cbfb",
    ),
    ("plain_multi_reference", "none"): (
        "f074d3413ba46c99ce0cfe06f1310d78",
        "a5e66a428c2534b5242fe4266f01889b",
    ),
    ("plain_multi_reference", "strip"): (
        "b15717c88bee7268686e908b299db79c",
        "915c84734f813b88c8dbbd64adde2802",
    ),
}

#: sha256 over the newline-joined scenario ids of ``default_sweep_spec()``,
#: in expansion order (``SCHEMA_VERSION`` 2, tier-scoped derived seeds).
DEFAULT_SWEEP_IDS_SHA256 = (
    "6da46aebf212c62712f8992546901fbedc30d220db49b638038bd64899aedef5"
)

#: The two pinned-seed sweeps of CI's ``sweep-cli-smoke`` job, as the
#: CLI builds them: ``smoke`` pins the fleet and measurement seeds and
#: derives the analysis seed, ``smoke-analysis`` pins all three.
PINNED_SMOKE_SPECS = (
    SweepSpec(
        name="smoke",
        grid=(
            GridAxis("noise.sigma", (0.5, 1.0)),
            GridAxis("attack", ("none", "strip")),
        ),
        base={
            "parameters.k": 4,
            "parameters.m": 4,
            "parameters.n1": 32,
            "parameters.n2": 64,
            "engine": "auto",
            "fleet_seed": 1,
            "measurement_seed": 2,
        },
        seed=42,
    ),
    SweepSpec(
        name="smoke-analysis",
        grid=(
            GridAxis("parameters.k", (2, 4)),
            GridAxis("analysis_seed", (1, 2)),
        ),
        base={
            "parameters.k": 8,
            "parameters.m": 4,
            "parameters.n1": 32,
            "parameters.n2": 64,
            "engine": "auto",
            "fleet_seed": 1,
            "measurement_seed": 2,
        },
        seed=42,
    ),
)

#: sha256 over the newline-joined scenario ids of ``PINNED_SMOKE_SPECS``,
#: in expansion order (``SCHEMA_VERSION`` 2).
PINNED_SMOKE_IDS_SHA256 = (
    "53d07cb82162a0938bc6f524b8faea83e4522f75757132f0360c8ca09cb6f71e"
)

#: sha256 over the trace matrices ``acquire_keyed`` returns for 64 rows
#: of each device of the default fleet (RefDs, then DUTs), keyed by the
#: measurement base key of a quick config.
QUICK_ACQUISITION_SHA256 = (
    "3dbafe85e1ce42dad41da002033876cbc77e2584a971c85ea999dc5d06812590"
)


@pytest.mark.parametrize("name, attack", sorted(KEYS))
def test_artifact_keys(name, attack):
    config = dataclasses.replace(CONFIGS[name], attack=attack)
    keys = tuple(key_of(config) for key_of in KEY_FUNCTIONS)
    assert keys == KEYS[name, attack]


def test_default_sweep_scenario_ids():
    ids = [scenario.scenario_id for scenario in expand_scenarios(default_sweep_spec())]
    assert len(ids) == 24
    digest = hashlib.sha256("\n".join(ids).encode()).hexdigest()
    assert digest == DEFAULT_SWEEP_IDS_SHA256


def test_pinned_smoke_scenario_ids():
    ids = [
        scenario.scenario_id
        for spec in PINNED_SMOKE_SPECS
        for scenario in expand_scenarios(spec)
    ]
    assert len(ids) == 8
    digest = hashlib.sha256("\n".join(ids).encode()).hexdigest()
    assert digest == PINNED_SMOKE_IDS_SHA256


def test_quick_keyed_acquisition_bytes():
    config = CampaignConfig(parameters=ProcessParameters(k=4, m=4, n1=32, n2=64))
    refds, duts = manufacture_fleet(config)
    acquired = acquire_keyed(
        Oscilloscope(config.noise, config.adc),
        measurement_base_key(config),
        [(device, 64) for device in (*refds.values(), *duts.values())],
    )
    digest = hashlib.sha256()
    for traces in acquired:
        assert traces.matrix.shape == (64, 1024)
        digest.update(traces.matrix.tobytes())
    assert digest.hexdigest() == QUICK_ACQUISITION_SHA256
