"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# One moderate profile for everything: property tests stay meaningful
# but the suite finishes quickly.
settings.register_profile(
    "repro",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

# A deeper run for the fuzz tests, selected on the command line (CI's
# verilog-fuzz job): --hypothesis-profile=fuzz --hypothesis-seed=0.
settings.register_profile(
    "fuzz", parent=settings.get_profile("repro"), max_examples=2000
)


@pytest.fixture(scope="session")
def paper_campaign():
    """One full paper-parameter campaign, shared by integration tests."""
    from repro.experiments.runner import CampaignConfig, run_campaign

    config = CampaignConfig(measurement_seed=42, analysis_seed=7)
    return run_campaign(config)


@pytest.fixture(scope="session")
def device_fleet():
    """The eight manufactured devices with process variation."""
    from repro.experiments.designs import build_device_fleet
    from repro.power.variation import VariationModel

    return build_device_fleet(variation_model=VariationModel(), seed=2014)


@pytest.fixture()
def rng():
    """A fresh, seeded random generator per test."""
    return np.random.default_rng(12345)
