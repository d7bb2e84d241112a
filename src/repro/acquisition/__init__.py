"""Acquisition layer: devices, oscilloscope, measurement campaigns."""

from repro.acquisition.alignment import align_traces, estimate_shift
from repro.acquisition.bench import (
    MeasurementBench,
    acquire_traces,
    derive_acquisition_seed,
    make_rng,
)
from repro.acquisition.device import Device, prime_fleet_activity
from repro.acquisition.faults import (
    clip_traces,
    desynchronize,
    drop_samples,
    gain_drift,
)
from repro.acquisition.oscilloscope import ADCConfig, Oscilloscope
from repro.acquisition.traces import TraceSet

__all__ = [
    "Device",
    "prime_fleet_activity",
    "TraceSet",
    "Oscilloscope",
    "ADCConfig",
    "MeasurementBench",
    "acquire_traces",
    "derive_acquisition_seed",
    "make_rng",
    "clip_traces",
    "drop_samples",
    "desynchronize",
    "gain_drift",
    "align_traces",
    "estimate_shift",
]
