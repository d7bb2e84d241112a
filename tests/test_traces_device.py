"""Tests for trace containers, devices and the oscilloscope."""

import numpy as np
import pytest

from repro.acquisition.bench import MeasurementBench, acquire_traces, make_rng
from repro.acquisition.device import Device
from repro.acquisition.oscilloscope import ADCConfig, Oscilloscope
from repro.acquisition.traces import TraceSet
from repro.experiments.designs import build_paper_ip
from repro.power.models import PowerModel
from repro.power.noise import NoiseModel
from repro.power.variation import DeviceVariation


@pytest.fixture()
def device():
    ip = build_paper_ip("IP_A")
    return Device("dev", ip, PowerModel(), default_cycles=256)


class TestTraceSet:
    def make(self, n=4, l=8):
        return TraceSet("dev", np.arange(n * l, dtype=float).reshape(n, l))

    def test_shape_properties(self):
        traces = self.make()
        assert traces.n_traces == 4
        assert traces.trace_length == 8
        assert len(traces) == 4

    def test_indexing_and_iteration(self):
        traces = self.make()
        assert list(traces[1]) == list(traces.matrix[1])
        assert len(list(iter(traces))) == 4

    def test_mean_trace(self):
        traces = TraceSet("d", np.array([[0.0, 2.0], [2.0, 4.0]]))
        assert list(traces.mean_trace()) == [1.0, 3.0]

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            TraceSet("d", np.zeros(5))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TraceSet("d", np.zeros((0, 5)))


class TestDevice:
    def test_waveform_is_deterministic(self, device):
        w1 = device.deterministic_waveform()
        w2 = device.deterministic_waveform()
        assert w1 is w2  # cached

    def test_waveform_length(self, device):
        assert device.deterministic_waveform().size == device.trace_length()

    def test_same_ip_same_waveform_without_variation(self):
        d1 = Device("a", build_paper_ip("IP_A"), PowerModel())
        d2 = Device("b", build_paper_ip("IP_A"), PowerModel())
        np.testing.assert_allclose(
            d1.deterministic_waveform(), d2.deterministic_waveform()
        )

    def test_gain_scales_waveform(self):
        nominal = Device("a", build_paper_ip("IP_A"), PowerModel())
        scaled = Device(
            "b",
            build_paper_ip("IP_A"),
            PowerModel(),
            variation=DeviceVariation(gain=2.0, offset=1.0, component_scales={}),
        )
        np.testing.assert_allclose(
            scaled.deterministic_waveform(),
            2.0 * nominal.deterministic_waveform() + 1.0,
        )

    def test_effective_model_applies_component_scales(self):
        variation = DeviceVariation(
            gain=1.0, offset=0.0, component_scales={"ctr_reg": 1.5}
        )
        device = Device("a", build_paper_ip("IP_A"), PowerModel(), variation=variation)
        assert device.effective_model.weight_for("ctr_reg", "register") == 1.5

    def test_rejects_bad_default_cycles(self):
        with pytest.raises(ValueError):
            Device("a", build_paper_ip("IP_A"), PowerModel(), default_cycles=0)

    def test_custom_cycle_count(self, device):
        assert device.deterministic_waveform(64).size == 64 * 4


class TestOscilloscope:
    def test_acquire_shape(self, device, rng):
        scope = Oscilloscope(NoiseModel(sigma=1.0))
        traces = scope.acquire(device, 7, rng)
        assert traces.n_traces == 7
        assert traces.trace_length == device.trace_length()

    def test_acquire_rejects_nonpositive(self, device, rng):
        with pytest.raises(ValueError):
            Oscilloscope().acquire(device, 0, rng)

    def test_noise_free_acquisition_equals_waveform(self, device, rng):
        scope = Oscilloscope(NoiseModel(sigma=0.0), adc=None)
        traces = scope.acquire(device, 2, rng)
        np.testing.assert_allclose(traces[0], device.deterministic_waveform())

    def test_averaging_recovers_waveform(self, device):
        scope = Oscilloscope(NoiseModel(sigma=1.0), adc=None)
        traces = scope.acquire(device, 400, np.random.default_rng(3))
        averaged = traces.mean_trace()
        base = device.deterministic_waveform()
        residual = np.std(averaged - base) / np.std(base)
        assert residual < 0.1

    def test_adc_quantises_to_grid(self, device, rng):
        scope = Oscilloscope(NoiseModel(sigma=0.5), adc=ADCConfig(bits=6))
        traces = scope.acquire(device, 3, rng)
        unique = np.unique(traces.matrix)
        assert unique.size <= 64

    def test_adc_validation(self):
        with pytest.raises(ValueError):
            ADCConfig(bits=0)
        with pytest.raises(ValueError):
            ADCConfig(headroom=-1.0)


class TestBench:
    def test_acquire_traces_function(self, device):
        traces = acquire_traces(device, 5, rng=1)
        assert traces.n_traces == 5

    def test_make_rng_passthrough(self):
        generator = np.random.default_rng(0)
        assert make_rng(generator) is generator

    def test_bench_no_cache(self, device):
        bench = MeasurementBench(seed=0)
        first = bench.measure(device, 10)
        second = bench.measure(device, 10)
        assert not np.allclose(first.matrix, second.matrix)

    def test_reproducible_with_same_seed(self, device):
        t1 = MeasurementBench(seed=9).measure(device, 5)
        t2 = MeasurementBench(seed=9).measure(device, 5)
        np.testing.assert_allclose(t1.matrix, t2.matrix)
