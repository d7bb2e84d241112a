"""Tests for waveform rendering, noise and process variation."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.correlation import pearson
from repro.experiments.runner import CampaignConfig, manufacture_fleet
from repro.power.noise import NoiseModel
from repro.power.supply import WaveformConfig, render_waveform
from repro.power.variation import DeviceVariation, VariationModel

#: sha256 over the ``deterministic_waveform()`` bytes of the default
#: paper fleet (RefDs, then DUTs), as scipy's ``lfilter`` rendered them.
PAPER_FLEET_WAVEFORM_SHA256 = (
    "f7650a5a6cd328cd83d1be89beabdabe02266a036069bbca0a3ec844b1f90542"
)

#: The paper's fleet and one fleet per vendored corpus circuit.
CORPUS = Path(__file__).resolve().parents[1] / "benchmarks" / "netlists"
FLEET_DESIGNS = ["paper"] + [
    f"imported:benchmarks/netlists/{path.name}" for path in sorted(CORPUS.glob("*.v"))
]

#: Finite samples that stress the filter's rounding: signed zeros,
#: subnormals, negatives and magnitudes near the float64 limit.
finite_samples = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, -4e-323, 2.2e-308, -2.2e-308, 1e308, -1e308]
    ),
)


def lfilter_render(cycle_power, config):
    """The rendering with ``scipy.signal.lfilter`` as the PDN filter."""
    signal = pytest.importorskip("scipy.signal")
    samples = np.outer(np.asarray(cycle_power, dtype=float), config.pulse_kernel())
    return signal.lfilter(
        [1.0 - config.pdn_pole], [1.0, -config.pdn_pole], samples.reshape(-1)
    )


class TestWaveformConfig:
    def test_kernel_sums_to_one(self):
        config = WaveformConfig(samples_per_cycle=6, pulse_decay=0.5)
        assert np.isclose(config.pulse_kernel().sum(), 1.0)

    def test_kernel_peaks_at_clock_edge(self):
        kernel = WaveformConfig().pulse_kernel()
        assert kernel[0] == kernel.max()

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            WaveformConfig(samples_per_cycle=0)

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            WaveformConfig(pulse_decay=0.0)
        with pytest.raises(ValueError):
            WaveformConfig(pulse_decay=1.5)

    def test_rejects_bad_pole(self):
        with pytest.raises(ValueError):
            WaveformConfig(pdn_pole=1.0)


class TestRenderWaveform:
    def test_output_length(self):
        config = WaveformConfig(samples_per_cycle=4, pdn_pole=0.0)
        out = render_waveform(np.ones(10), config)
        assert out.size == 40

    def test_energy_preserved_without_filter(self):
        config = WaveformConfig(samples_per_cycle=4, pdn_pole=0.0)
        power = np.array([1.0, 2.0, 3.0])
        out = render_waveform(power, config)
        assert np.isclose(out.sum(), power.sum())

    def test_filter_preserves_dc_gain(self):
        config = WaveformConfig(samples_per_cycle=2, pdn_pole=0.4)
        out = render_waveform(np.ones(500), config)
        # Unity DC gain: the settled output oscillates around the
        # unfiltered per-sample mean of 0.5.
        assert np.isclose(out[-20:].mean(), 0.5, atol=0.01)

    def test_filter_smooths(self):
        impulse = np.zeros(20)
        impulse[10] = 1.0
        sharp = render_waveform(impulse, WaveformConfig(pdn_pole=0.0))
        smooth = render_waveform(impulse, WaveformConfig(pdn_pole=0.5))
        assert smooth.max() < sharp.max()

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            render_waveform(np.ones((2, 2)), WaveformConfig())

    @given(st.integers(min_value=1, max_value=8))
    def test_samples_per_cycle_scales_length(self, s):
        config = WaveformConfig(samples_per_cycle=s, pdn_pole=0.0)
        assert render_waveform(np.ones(7), config).size == 7 * s


class TestPDNFilterBytes:
    """The in-tree PDN filter keeps ``scipy.signal.lfilter``'s bytes."""

    # With one sample per cycle the filter sees the input itself; this
    # vector tells lfilter's ``z = x*0.0 + p*y`` from ``z = p*y``.
    @example(np.array([-4e-323, 0.0, -0.0]), 0.25, 1)
    @given(
        arrays(np.float64, st.integers(1, 48), elements=finite_samples),
        st.sampled_from([0.25, 0.05, 0.5, 0.9, 0.999]),
        st.sampled_from([1, 4]),
    )
    def test_matches_lfilter_on_finite_inputs(self, cycle_power, pole, spc):
        config = WaveformConfig(samples_per_cycle=spc, pdn_pole=pole)
        expected = lfilter_render(cycle_power, config)
        assert render_waveform(cycle_power, config).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("design", FLEET_DESIGNS)
    def test_matches_lfilter_on_fleet_cycle_power(self, design):
        refds, duts = manufacture_fleet(CampaignConfig(design=design))
        for device in (*refds.values(), *duts.values()):
            cycle_power = device.effective_model.cycle_power(device.activity())
            rendered = render_waveform(cycle_power, device.waveform)
            expected = lfilter_render(cycle_power, device.waveform)
            assert rendered.tobytes() == expected.tobytes(), device.name

    def test_paper_fleet_waveform_digest(self):
        refds, duts = manufacture_fleet(CampaignConfig())
        digest = hashlib.sha256()
        for device in (*refds.values(), *duts.values()):
            digest.update(device.deterministic_waveform().tobytes())
        assert digest.hexdigest() == PAPER_FLEET_WAVEFORM_SHA256


class TestNoiseModel:
    def test_shape(self, rng):
        noise = NoiseModel(sigma=1.0).sample(5, 100, 2.0, rng)
        assert noise.shape == (5, 100)

    def test_scales_with_signal_std(self, rng):
        model = NoiseModel(sigma=1.0)
        small = model.sample(200, 50, 1.0, np.random.default_rng(0))
        large = model.sample(200, 50, 3.0, np.random.default_rng(0))
        assert np.isclose(large.std(), 3 * small.std(), rtol=0.05)

    def test_zero_sigma_is_silent(self, rng):
        noise = NoiseModel(sigma=0.0).sample(3, 10, 1.0, rng)
        assert np.all(noise == 0)

    def test_drift_accumulates(self, rng):
        model = NoiseModel(sigma=0.0, drift_sigma=1.0)
        noise = model.sample(500, 400, 1.0, rng)
        early = noise[:, :40].std()
        late = noise[:, -40:].std()
        assert late > early

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma=-1.0)

    def test_rejects_bad_shape_request(self, rng):
        with pytest.raises(ValueError):
            NoiseModel().sample(0, 10, 1.0, rng)

    def test_empirical_sigma_matches(self, rng):
        noise = NoiseModel(sigma=2.0).sample(100, 1000, 1.0, rng)
        assert np.isclose(noise.std(), 2.0, rtol=0.05)


class TestVariation:
    def test_nominal_is_identity(self):
        nominal = DeviceVariation.nominal()
        assert nominal.gain == 1.0
        assert nominal.offset == 0.0
        assert nominal.component_scales == {}

    def test_sample_covers_components(self, rng):
        model = VariationModel()
        variation = model.sample(["a", "b"], rng)
        assert set(variation.component_scales) == {"a", "b"}

    def test_sample_scales_near_one(self, rng):
        model = VariationModel(component_sigma=0.02)
        variation = model.sample([f"c{i}" for i in range(200)], rng)
        scales = np.array(list(variation.component_scales.values()))
        assert np.isclose(scales.mean(), 1.0, atol=0.01)
        assert scales.std() < 0.05

    def test_rejects_negative_sigmas(self):
        with pytest.raises(ValueError):
            VariationModel(gain_sigma=-0.1)

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            DeviceVariation(gain=0.0, offset=0.0, component_scales={})

    def test_pearson_invariant_to_gain_and_offset(self, rng):
        # The core claim behind "insensitive to CMOS process variation".
        trace = rng.normal(size=512)
        transformed = 3.7 * trace - 11.0
        assert np.isclose(pearson(trace, transformed), 1.0)

    def test_pearson_flips_sign_with_negative_gain(self, rng):
        trace = rng.normal(size=512)
        assert np.isclose(pearson(trace, -trace), -1.0)
