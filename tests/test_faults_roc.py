"""Tests for measurement-fault injection and ROC analysis."""

import numpy as np
import pytest

from repro.acquisition.bench import MeasurementBench
from repro.acquisition.device import Device
from repro.acquisition.faults import (
    clip_traces,
    desynchronize,
    drop_samples,
    gain_drift,
)
from repro.acquisition.traces import TraceSet
from repro.analysis.roc import (
    detection_gap_sweep,
    roc_from_scores,
    sample_mean_scores,
    screening_roc,
)
from repro.core.process import CorrelationProcess, ProcessParameters
from repro.experiments.designs import build_paper_ip
from repro.power.models import PowerModel


@pytest.fixture()
def traces(rng):
    return TraceSet("dev", rng.normal(0, 1, size=(20, 64)))


class TestFaultModels:
    def test_clip_limits_range(self, traces):
        clipped = clip_traces(traces, saturation_sigmas=0.5)
        center = traces.matrix.mean()
        spread = traces.matrix.std()
        assert clipped.matrix.max() <= center + 0.5 * spread + 1e-12
        assert clipped.matrix.min() >= center - 0.5 * spread - 1e-12

    def test_clip_validation(self, traces):
        with pytest.raises(ValueError):
            clip_traces(traces, saturation_sigmas=0)

    def test_dropout_replaces_fraction(self, traces):
        dropped = drop_samples(traces, dropout_rate=0.5, rng=1)
        changed = np.mean(dropped.matrix != traces.matrix)
        assert 0.3 < changed < 0.7

    def test_dropout_zero_is_identity(self, traces):
        dropped = drop_samples(traces, dropout_rate=0.0, rng=1)
        np.testing.assert_allclose(dropped.matrix, traces.matrix)

    def test_dropout_validation(self, traces):
        with pytest.raises(ValueError):
            drop_samples(traces, dropout_rate=1.0)

    def test_desynchronize_permutes_rows(self, traces):
        shifted = desynchronize(traces, max_shift=5, rng=2)
        # Values preserved per row (circular shift), order changed.
        for original, moved in zip(traces.matrix, shifted.matrix):
            assert sorted(original) == pytest.approx(sorted(moved))

    def test_desynchronize_zero_shift(self, traces):
        shifted = desynchronize(traces, max_shift=0)
        np.testing.assert_allclose(shifted.matrix, traces.matrix)

    def test_gain_drift_scales_late_traces(self, traces):
        drifted = gain_drift(traces, drift_fraction=0.5)
        np.testing.assert_allclose(drifted.matrix[0], traces.matrix[0])
        np.testing.assert_allclose(drifted.matrix[-1], 1.5 * traces.matrix[-1])

    def test_fault_validation(self, traces):
        with pytest.raises(ValueError):
            desynchronize(traces, max_shift=-1)
        with pytest.raises(ValueError):
            gain_drift(traces, drift_fraction=-0.1)


class TestFaultImpactOnVerification:
    """Which bench faults break the correlation verification?"""

    PARAMS = ProcessParameters(k=20, m=10, n1=120, n2=1200)

    def _matching_sets(self):
        refd = Device("R", build_paper_ip("IP_A"), PowerModel(), default_cycles=256)
        dut = Device("D", build_paper_ip("IP_A"), PowerModel(), default_cycles=256)
        bench = MeasurementBench(seed=4)
        return bench.measure(refd, 120), bench.measure(dut, 1200)

    def _mean_rho(self, t_ref, t_dut):
        process = CorrelationProcess(self.PARAMS, strict=False)
        return process.run(t_ref, t_dut, np.random.default_rng(0)).mean

    def test_mild_clipping_tolerated(self):
        t_ref, t_dut = self._matching_sets()
        baseline = self._mean_rho(t_ref, t_dut)
        clipped = clip_traces(t_dut, saturation_sigmas=2.5)
        assert self._mean_rho(t_ref, clipped) > baseline - 0.1

    def test_dropout_tolerated(self):
        t_ref, t_dut = self._matching_sets()
        baseline = self._mean_rho(t_ref, t_dut)
        dropped = drop_samples(t_dut, dropout_rate=0.05, rng=5)
        assert self._mean_rho(t_ref, dropped) > baseline - 0.1

    def test_gain_drift_tolerated(self):
        # Pearson is gain invariant per trace.
        t_ref, t_dut = self._matching_sets()
        baseline = self._mean_rho(t_ref, t_dut)
        drifted = gain_drift(t_dut, drift_fraction=0.3)
        assert self._mean_rho(t_ref, drifted) > baseline - 0.05

    def test_desynchronisation_is_fatal(self):
        # The scheme requires aligned traces (the paper resets all FSMs
        # before measuring); heavy trigger jitter destroys the match.
        t_ref, t_dut = self._matching_sets()
        baseline = self._mean_rho(t_ref, t_dut)
        shifted = desynchronize(t_dut, max_shift=100, rng=6)
        assert self._mean_rho(t_ref, shifted) < baseline - 0.3


class TestROC:
    def test_separable_populations_auc_near_one(self):
        curve = roc_from_scores([0.9, 0.95, 0.92], [0.1, 0.2, 0.15])
        assert curve.auc == pytest.approx(1.0)

    def test_identical_populations_auc_half(self, rng):
        scores = rng.normal(0, 1, size=500)
        curve = roc_from_scores(scores, rng.normal(0, 1, size=500))
        assert curve.auc == pytest.approx(0.5, abs=0.06)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            roc_from_scores([], [0.1])

    def test_curve_endpoints(self):
        curve = roc_from_scores([1.0, 2.0], [0.0, 0.5])
        assert curve.true_positive_rates.max() == 1.0
        assert curve.false_positive_rates.min() == 0.0

    def test_operating_point_respects_fpr(self):
        curve = screening_roc(rng=0)
        threshold, fpr, tpr = curve.operating_point(max_fpr=0.01)
        assert fpr <= 0.01
        assert tpr > 0.9  # the reproduction's operating point separates well

    def test_operating_point_validation(self):
        curve = roc_from_scores([1.0, 2.0], [0.0, 0.5])
        with pytest.raises(ValueError):
            curve.operating_point(max_fpr=-0.1)

    def test_sample_mean_scores_shapes(self):
        genuine, counterfeit = sample_mean_scores(0.98, 0.93, 20, 1024, 100, rng=1)
        assert genuine.shape == (100,)
        assert counterfeit.shape == (100,)
        assert genuine.mean() > counterfeit.mean()

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            sample_mean_scores(1.0, 0.9, 20, 1024, 10)
        with pytest.raises(ValueError):
            sample_mean_scores(0.9, 0.8, 1, 1024, 10)

    def test_auc_grows_with_gap(self):
        sweep = detection_gap_sweep([0.001, 0.01, 0.05], n_samples=500, rng=2)
        aucs = [auc for _gap, auc in sweep]
        assert aucs[0] < aucs[-1]
        assert aucs[-1] > 0.99

    def test_gap_sweep_validation(self):
        with pytest.raises(ValueError):
            detection_gap_sweep([0.0])
