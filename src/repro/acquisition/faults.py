"""Measurement-fault injection.

Real benches misbehave: amplifiers clip, ADC samples drop out, the
trigger jitters.  These corruption models are applied to
:class:`~repro.acquisition.traces.TraceSet` objects so the test suite
and the robustness experiments can measure which faults the
verification shrugs off (clipping, dropout — mostly absorbed by
k-averaging and Pearson's offset invariance) and which are fatal
(desynchronisation — the scheme fundamentally requires aligned traces,
which is why the paper resets all FSMs before measuring).
"""

from __future__ import annotations

import numpy as np

from repro.acquisition.bench import RngLike, make_rng
from repro.acquisition.traces import TraceSet


def clip_traces(traces: TraceSet, saturation_sigmas: float = 1.0) -> TraceSet:
    """Amplifier saturation: clamp samples beyond ±``saturation_sigmas``
    standard deviations of the global mean."""
    if saturation_sigmas <= 0:
        raise ValueError("saturation_sigmas must be positive")
    matrix = traces.matrix
    center = matrix.mean()
    spread = matrix.std()
    low = center - saturation_sigmas * spread
    high = center + saturation_sigmas * spread
    return TraceSet(traces.device_name, np.clip(matrix, low, high))


def drop_samples(
    traces: TraceSet, dropout_rate: float, rng: RngLike = None
) -> TraceSet:
    """Dead ADC samples: randomly replace a fraction with the trace mean.

    (Replacing with the mean models a sample-and-hold repair stage.)
    """
    if not 0 <= dropout_rate < 1:
        raise ValueError("dropout_rate must be in [0, 1)")
    generator = make_rng(rng)
    matrix = traces.matrix.copy()
    mask = generator.random(matrix.shape) < dropout_rate
    row_means = matrix.mean(axis=1, keepdims=True)
    matrix = np.where(mask, row_means, matrix)
    return TraceSet(traces.device_name, matrix)


def desynchronize(
    traces: TraceSet, max_shift: int, rng: RngLike = None
) -> TraceSet:
    """Trigger jitter: circularly shift each trace by a random offset
    in ``[-max_shift, +max_shift]`` samples."""
    if max_shift < 0:
        raise ValueError("max_shift must be non-negative")
    if max_shift == 0:
        return TraceSet(traces.device_name, traces.matrix.copy())
    generator = make_rng(rng)
    shifted = np.empty_like(traces.matrix)
    shifts = generator.integers(-max_shift, max_shift + 1, size=traces.n_traces)
    for index, shift in enumerate(shifts):
        shifted[index] = np.roll(traces.matrix[index], int(shift))
    return TraceSet(traces.device_name, shifted)


def gain_drift(traces: TraceSet, drift_fraction: float) -> TraceSet:
    """Slow thermal gain drift across the campaign: trace ``i`` is
    scaled by ``1 + drift_fraction * i / n``."""
    if drift_fraction < 0:
        raise ValueError("drift_fraction must be non-negative")
    n = traces.n_traces
    gains = 1.0 + drift_fraction * np.arange(n) / max(n - 1, 1)
    return TraceSet(traces.device_name, traces.matrix * gains[:, np.newaxis])
