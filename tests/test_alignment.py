"""Tests for cross-correlation trace realignment."""

import numpy as np
import pytest

from repro.acquisition.alignment import align_traces, estimate_shift
from repro.acquisition.bench import MeasurementBench
from repro.acquisition.device import Device
from repro.acquisition.faults import desynchronize
from repro.acquisition.traces import TraceSet
from repro.core.correlation import pearson_many
from repro.core.process import CorrelationProcess, ProcessParameters
from repro.experiments.designs import build_paper_ip
from repro.power.models import PowerModel


def periodic_traces(n=30, l=256, sigma=0.3, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(l)
    signal = np.sin(2 * np.pi * t / 16) + 0.5 * np.sin(2 * np.pi * t / 5)
    return TraceSet("dev", signal + rng.normal(0, sigma, size=(n, l))), signal


class TestEstimateShift:
    def test_zero_shift_detected(self):
        traces, signal = periodic_traces(n=1, sigma=0.0)
        assert estimate_shift(traces[0], signal, max_shift=8) == 0

    def test_positive_shift_detected(self):
        _traces, signal = periodic_traces(n=1, sigma=0.0)
        shifted = np.roll(signal, 3)
        assert estimate_shift(shifted, signal, max_shift=8) == 3

    def test_negative_shift_detected(self):
        _traces, signal = periodic_traces(n=1, sigma=0.0)
        shifted = np.roll(signal, -3)
        assert estimate_shift(shifted, signal, max_shift=8) == -3

    def test_shift_beyond_window_not_reported(self):
        _traces, signal = periodic_traces(n=1, sigma=0.0)
        shifted = np.roll(signal, 12)
        estimate = estimate_shift(shifted, signal, max_shift=2)
        assert abs(estimate) <= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_shift(np.zeros(4), np.zeros(5), 1)
        with pytest.raises(ValueError):
            estimate_shift(np.zeros(4), np.zeros(4), -1)


class TestAlignTraces:
    def test_realigns_jittered_traces(self):
        traces, signal = periodic_traces(sigma=0.2)
        jittered = desynchronize(traces, max_shift=4, rng=1)
        before = pearson_many(signal, jittered.matrix).mean()
        aligned, shifts = align_traces(jittered, max_shift=6)
        after = pearson_many(signal, aligned.matrix).mean()
        assert after > before
        assert shifts.shape == (traces.n_traces,)

    def test_explicit_reference(self):
        traces, signal = periodic_traces(sigma=0.2)
        jittered = desynchronize(traces, max_shift=4, rng=2)
        aligned, _shifts = align_traces(jittered, reference=signal, max_shift=6)
        before = pearson_many(signal, jittered.matrix).mean()
        assert pearson_many(signal, aligned.matrix).mean() > before

    def test_already_aligned_is_stable(self):
        traces, _signal = periodic_traces(sigma=0.2)
        aligned, shifts = align_traces(traces, max_shift=4)
        # The clean set needs (almost) no correction.
        assert np.mean(shifts == 0) > 0.8

    def test_validation(self):
        traces, _signal = periodic_traces()
        with pytest.raises(ValueError):
            align_traces(traces, iterations=0)


class TestAlignmentRescuesVerification:
    PARAMS = ProcessParameters(k=20, m=10, n1=120, n2=1200)

    def test_jitter_then_alignment_restores_correlation(self):
        refd = Device("R", build_paper_ip("IP_A"), PowerModel(), default_cycles=256)
        dut = Device("D", build_paper_ip("IP_A"), PowerModel(), default_cycles=256)
        bench = MeasurementBench(seed=4)
        t_ref = bench.measure(refd, 120)
        t_dut = bench.measure(dut, 1200)
        process = CorrelationProcess(self.PARAMS, strict=False)

        baseline = process.run(t_ref, t_dut, np.random.default_rng(0)).mean
        jittered = desynchronize(t_dut, max_shift=8, rng=5)
        broken = process.run(t_ref, jittered, np.random.default_rng(0)).mean
        repaired, _shifts = align_traces(jittered, max_shift=12)
        restored = process.run(t_ref, repaired, np.random.default_rng(0)).mean

        assert broken < baseline - 0.2
        assert restored > broken + 0.2
        assert restored > 0.8 * baseline
