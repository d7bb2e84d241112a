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
from repro.experiments.artifacts import (
    analysis_key,
    fleet_key,
    measurement_base_key,
    measurement_key,
)
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

KEY_FUNCTIONS = (fleet_key, measurement_base_key, measurement_key, analysis_key)

#: ``(fleet, measurement base, measurement, analysis)`` keys per config
#: and attack.
KEYS = {
    ("default", "none"): (
        "c47486dc163074d90b5366bf744becdc",
        "a251198c035adedb3a79ed94a343df85",
        "fe843e1bdb8a2186b66ded964495463e",
        "4ce8803e79b7b66d6f1217878bb6b35a",
    ),
    ("default", "strip"): (
        "f9d218e3300ee50f2dafd9c45cd0df53",
        "aa186b2b5c47563bd8111974510d765d",
        "ba65dbf3154442524aee403ea9f7204b",
        "0848a65a4e11ebf876ded630a2442ed8",
    ),
    ("imported_c17", "none"): (
        "3b4165bf20cb90d013b6b51b46120db1",
        "5ae3feeaaf41c52f78987ac56d6f6d67",
        "a8e47172893d888177b06d381ec7524f",
        "902ae4b2dbc5face12ca384fce1a1989",
    ),
    ("imported_c17", "strip"): (
        "758d0f56f731eecaeb455a064ed28976",
        "89e1d93ca211e2108361e52a12af9fbc",
        "576d9aa52bb6c7121d9c343d6865fd97",
        "6223d375229944b4abcdaa94e5bf915a",
    ),
    ("interpreted", "none"): (
        "9a8185d0323c347f25e6c7db234d5d36",
        "a251198c035adedb3a79ed94a343df85",
        "fe843e1bdb8a2186b66ded964495463e",
        "4ce8803e79b7b66d6f1217878bb6b35a",
    ),
    ("interpreted", "strip"): (
        "78c6f93442e7b6a63fcedece049ce383",
        "aa186b2b5c47563bd8111974510d765d",
        "ba65dbf3154442524aee403ea9f7204b",
        "0848a65a4e11ebf876ded630a2442ed8",
    ),
    ("no_adc_no_variation", "none"): (
        "8a5150caf9cd80d9edf70bb617e3a419",
        "6b089b167e682d9fc394732859fec700",
        "4ea76b5ae4a1393772d0cb8c3a7ad1e2",
        "2c12e89ccc6fdfd821de981c6ed47665",
    ),
    ("no_adc_no_variation", "strip"): (
        "68d526ce5b59c3e44ba8b942cf290cd7",
        "e56a7e465cffd9ee5eda2732df220563",
        "c12c7bcc9f8fe253ae925595c505bc68",
        "c5266f96e7837c0aa28fb035ead97a28",
    ),
    ("noisy_quick", "none"): (
        "c47486dc163074d90b5366bf744becdc",
        "0ad9692fc175e0c72ecb40222a2834a1",
        "0bc214043e90fa096bc77ee45c82ee70",
        "3930a14949636fed743afd07c3db6c8d",
    ),
    ("noisy_quick", "strip"): (
        "f9d218e3300ee50f2dafd9c45cd0df53",
        "c8718c0713e3377705167e4f42b7cbfb",
        "5962f91ded09b38f9635e719d4b8f998",
        "bb618b4dec95768d9b727f3ffb757d12",
    ),
    ("plain_multi_reference", "none"): (
        "f074d3413ba46c99ce0cfe06f1310d78",
        "a5e66a428c2534b5242fe4266f01889b",
        "ec1b37005bbf0a8b783aca543c8ccc06",
        "c0eb7a8c1bde79257c7a4d013fecce65",
    ),
    ("plain_multi_reference", "strip"): (
        "b15717c88bee7268686e908b299db79c",
        "915c84734f813b88c8dbbd64adde2802",
        "d98fde137544319722081a2a2c008d71",
        "c9692352349e3e14dd5482bc9f3ff752",
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
