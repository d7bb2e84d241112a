"""Tests for the analysis helpers and Monte-Carlo validation."""

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    estimate_reuse_probability,
    property_p1_numeric,
    property_p2_numeric,
)
from repro.analysis.stats import binomial_confidence


class TestBinomialConfidence:
    def test_interval_contains_point_estimate(self):
        low, high = binomial_confidence(8, 10)
        assert low <= 0.8 <= high

    def test_bounds_clip_to_unit(self):
        low, high = binomial_confidence(0, 5)
        assert low == 0.0
        low, high = binomial_confidence(5, 5)
        assert high == 1.0

    def test_narrower_with_more_trials(self):
        low_small, high_small = binomial_confidence(50, 100)
        low_big, high_big = binomial_confidence(500, 1000)
        assert (high_big - low_big) < (high_small - low_small)

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_confidence(2, 0)
        with pytest.raises(ValueError):
            binomial_confidence(7, 5)


class TestMonteCarlo:
    def test_estimate_agrees_with_closed_form(self):
        # Small alpha makes P(zeta) large enough to estimate quickly.
        estimate = estimate_reuse_probability(
            alpha=2.0, k=5, m=10, trials=800, rng=0
        )
        assert abs(estimate.z_score) < 4.0

    def test_estimate_metadata(self):
        estimate = estimate_reuse_probability(alpha=2.0, k=5, m=5, trials=50, rng=1)
        assert estimate.n2 == 50
        assert estimate.trials == 50
        assert 0 <= estimate.estimate <= 1

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            estimate_reuse_probability(trials=0)

    def test_rejects_bad_tracked_element(self):
        with pytest.raises(ValueError):
            estimate_reuse_probability(
                alpha=2.0, k=5, m=5, trials=10, tracked_element=10_000
            )

    def test_symmetry_across_elements(self):
        # Any tracked element has the same reuse probability.
        e0 = estimate_reuse_probability(
            alpha=1.0, k=10, m=10, trials=400, rng=2, tracked_element=0
        )
        e50 = estimate_reuse_probability(
            alpha=1.0, k=10, m=10, trials=400, rng=3, tracked_element=50
        )
        spread = abs(e0.estimate - e50.estimate)
        combined_se = np.hypot(e0.standard_error, e50.standard_error)
        assert spread < 4 * combined_se

    def test_property_p1(self):
        assert property_p1_numeric(m=20)

    def test_property_p2(self):
        assert property_p2_numeric(alpha=10.0)
        assert property_p2_numeric(alpha=2.0)
