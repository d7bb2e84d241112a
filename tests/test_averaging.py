"""Tests for k-averaged trace construction."""

import hashlib

import numpy as np
import pytest

from repro.acquisition.device import Device
from repro.acquisition.oscilloscope import ADCConfig, Oscilloscope
from repro.acquisition.traces import TraceSet
from repro.core.averaging import (
    averaging_noise_reduction,
    k_average_rows,
    k_averaged_set,
    k_averaged_trace,
)
from repro.core.selection import selection_indices_batch
from repro.experiments.designs import build_paper_ip
from repro.power.models import PowerModel


def noisy_traces(n=200, l=64, sigma=1.0, seed=0):
    rng = np.random.default_rng(seed)
    signal = np.sin(np.linspace(0, 8 * np.pi, l))
    matrix = signal[np.newaxis, :] + rng.normal(0, sigma, size=(n, l))
    return TraceSet("dev", matrix), signal


class TestKAveragedTrace:
    def test_shape(self, rng):
        traces, _signal = noisy_traces()
        averaged = k_averaged_trace(traces, 10, rng)
        assert averaged.shape == (64,)

    def test_k_equals_n_gives_global_mean(self, rng):
        traces, _signal = noisy_traces(n=20)
        averaged = k_averaged_trace(traces, 20, rng)
        np.testing.assert_allclose(averaged, traces.mean_trace())

    def test_k_one_returns_a_member_trace(self, rng):
        traces, _signal = noisy_traces(n=5)
        averaged = k_averaged_trace(traces, 1, rng)
        assert any(np.allclose(averaged, row) for row in traces.matrix)

    def test_averaging_reduces_noise(self):
        traces, signal = noisy_traces(n=500, sigma=1.0)
        rng = np.random.default_rng(1)
        residual_1 = np.std(k_averaged_trace(traces, 1, rng) - signal)
        residual_100 = np.std(k_averaged_trace(traces, 100, rng) - signal)
        assert residual_100 < residual_1 / 5  # ~ sqrt(100)/2 margin


class TestKAveragedSet:
    def test_shape(self, rng):
        traces, _signal = noisy_traces()
        a_set = k_averaged_set(traces, 10, 7, rng)
        assert a_set.shape == (7, 64)

    def test_rows_differ(self, rng):
        traces, _signal = noisy_traces()
        a_set = k_averaged_set(traces, 10, 5, rng)
        assert not np.allclose(a_set[0], a_set[1])

    def test_rows_concentrate_around_signal(self, rng):
        traces, signal = noisy_traces(n=2000, sigma=1.0)
        a_set = k_averaged_set(traces, 100, 10, rng)
        residuals = np.std(a_set - signal, axis=1)
        assert np.all(residuals < 0.3)

    def test_rejects_k_too_large(self, rng):
        traces, _signal = noisy_traces(n=5)
        with pytest.raises(ValueError):
            k_averaged_set(traces, 6, 2, rng)


def gathered_mean(matrix, indices):
    """The ``(m, k, l)`` gather that ``k_average_rows`` replaces."""
    return matrix[indices].mean(axis=1)


def gaussian_matrix():
    return np.random.default_rng(5).normal(0.0, 1.0, size=(120, 48))


def adc_matrix():
    device = Device("dev", build_paper_ip("IP_A"), PowerModel(), default_cycles=16)
    scope = Oscilloscope(adc=ADCConfig(bits=6))
    return scope.acquire(device, 120, np.random.default_rng(6)).matrix


def signed_zero_matrix():
    # Columns 0 and 1 are -0.0 in every row, so all their addends are
    # -0.0; the other columns mix +0.0 and -0.0 with nonzero values.
    matrix = np.random.default_rng(7).choice([-0.0, 0.0, 0.5, -0.25], size=(120, 24))
    matrix[:, :2] = -0.0
    return matrix


MATRICES = {
    "gaussian": gaussian_matrix,
    "adc": adc_matrix,
    "signed_zeros": signed_zero_matrix,
}


def fixed_case():
    """An RNG-free matrix with -0.0 entries and a (4, 50) index matrix."""
    values = np.arange(60 * 12, dtype=float).reshape(60, 12)
    matrix = (values * values - 250_000.0) / 7.0
    matrix[:, 0] = -0.0
    matrix[::3, 5] = -0.0
    indices = (7 * np.arange(4 * 50).reshape(4, 50)) % 60
    return matrix, indices


#: sha256 of ``gathered_mean(*fixed_case())``, computed with NumPy 2.4
#: before ``k_average_rows`` replaced the gather.  Summing the columns
#: in another order, pairwise, or from a copy of the first row instead
#: of +0.0 each gives another digest.
FIXED_CASE_SHA256 = "7a8f09462a96a17d4b2d9b3eb51d1caf8943eb4b09501a8d3a8dfa3104104912"


class TestKAverageRowsBytes:
    """The running sum has the bytes of the gathered mean."""

    @pytest.mark.parametrize("name", sorted(MATRICES))
    @pytest.mark.parametrize("k", [1, 2, 50])
    @pytest.mark.parametrize("m", [1, 20])
    def test_matches_gathered_mean(self, name, k, m):
        matrix = MATRICES[name]()
        before = matrix.tobytes()
        indices = selection_indices_batch(len(matrix), k, m, np.random.default_rng(k))
        expected = gathered_mean(matrix, indices).tobytes()
        assert k_average_rows(matrix, indices).tobytes() == expected
        a_set = k_averaged_set(TraceSet("dev", matrix), k, m, np.random.default_rng(k))
        assert a_set.tobytes() == expected
        assert matrix.tobytes() == before

    def test_single_sample_traces(self):
        # l == 1 is where NumPy sums the k axis pairwise.
        matrix = gaussian_matrix()[:, :1]
        indices = selection_indices_batch(120, 50, 20, np.random.default_rng(0))
        expected = gathered_mean(matrix, indices).tobytes()
        assert k_average_rows(matrix, indices).tobytes() == expected

    def test_read_only_prefix_view(self):
        # The artifact cache serves frozen prefix views of its matrices.
        matrix = gaussian_matrix()[:80]
        matrix.flags.writeable = False
        indices = selection_indices_batch(80, 10, 20, np.random.default_rng(1))
        expected = gathered_mean(matrix, indices).tobytes()
        assert k_average_rows(matrix, indices).tobytes() == expected
        a_set = k_averaged_set(
            TraceSet("dev", matrix), 10, 20, np.random.default_rng(1)
        )
        assert a_set.tobytes() == expected

    def test_fixed_case_digest(self):
        for average in (k_average_rows, gathered_mean):
            digest = hashlib.sha256(average(*fixed_case()).tobytes()).hexdigest()
            assert digest == FIXED_CASE_SHA256, average.__name__


class TestNoiseReduction:
    def test_sqrt_law(self):
        assert averaging_noise_reduction(1) == 1.0
        assert averaging_noise_reduction(4) == 2.0
        assert averaging_noise_reduction(50) == pytest.approx(np.sqrt(50))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            averaging_noise_reduction(0)

    def test_empirical_sqrt_k(self):
        # Noise amplitude after k-averaging falls like 1/sqrt(k).
        traces, signal = noisy_traces(n=4000, sigma=1.0, seed=2)
        rng = np.random.default_rng(3)
        residuals = {}
        for k in (4, 64):
            a_set = k_averaged_set(traces, k, 30, rng)
            residuals[k] = float(np.mean(np.std(a_set - signal, axis=1)))
        ratio = residuals[4] / residuals[64]
        assert ratio == pytest.approx(4.0, rel=0.25)
