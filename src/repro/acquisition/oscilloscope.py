"""The synthetic oscilloscope.

Adds what the measurement chain adds on a real bench: wideband noise
(see :mod:`repro.power.noise`) and ADC quantisation at a configurable
vertical resolution.  Acquisition is triggered at reset, so every trace
is aligned — the paper guarantees this by placing all FSMs "in the
exact same state before starting any power consumption measurements".

Acquisition is one in-place kernel.  The result matrix is the only
allocation, and it is made on the calling thread (or passed in as
``out=``).  The kernel walks it in :data:`BLOCK_ROWS`-row blocks small
enough to stay in cache: each block's noise is drawn straight into it,
the base waveform is added in place and the block is quantised in
place, so no full-size temporary is ever built.  Blocking is exact,
not approximate — NumPy generators fill arrays sequentially from one
bit stream, so any block split produces byte-identical traces (see
:class:`~repro.power.noise.NoiseModel` for the stream contract), and
the in-place quantiser runs the one-shot formula's float operations in
the same order.  The ADC window is derived from the device's
*deterministic* base waveform, never from the noisy batch, so the
quantisation grid is invariant to trace count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.acquisition.device import Device
from repro.acquisition.traces import TraceSet
from repro.power.noise import NoiseModel

#: Trace rows per kernel block.  At the paper's 1 024 samples per trace
#: a block is 512 KiB, which stays in cache from the noise draw through
#: the quantiser; measured faster than 16 or 256 rows.
BLOCK_ROWS = 64


@dataclass(frozen=True)
class ADCConfig:
    """Vertical quantisation of the oscilloscope front-end."""

    bits: int = 10
    headroom: float = 4.0

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 24:
            raise ValueError(f"ADC bits must be in [1, 24], got {self.bits}")
        if self.headroom < 0:
            raise ValueError("ADC headroom must be non-negative")


class Oscilloscope:
    """Noise + quantisation applied on top of a device's waveform."""

    def __init__(
        self,
        noise: Optional[NoiseModel] = None,
        adc: Optional[ADCConfig] = None,
    ):
        self.noise = noise if noise is not None else NoiseModel()
        self.adc = adc

    def _adc_grid(
        self, base: np.ndarray, signal_std: float
    ) -> Optional[Tuple[float, float, float]]:
        """``(low, high, step)`` of the ADC grid covering the signal ± headroom.

        The window center comes from the *deterministic* base waveform,
        so two acquisitions of any trace count land on the same grid.
        ``None`` means no quantisation.
        """
        if self.adc is None:
            return None
        center = float(np.mean(base))
        spread = (self.noise.sigma + self.adc.headroom) * signal_std
        if spread == 0:
            return None
        low = center - spread
        high = center + spread
        levels = (1 << self.adc.bits) - 1
        return low, high, (high - low) / levels

    def acquire(
        self,
        device: Device,
        n_traces: int,
        rng: np.random.Generator,
        n_cycles: Optional[int] = None,
        out: Optional[np.ndarray] = None,
    ) -> TraceSet:
        """Measure ``n_traces`` aligned traces on ``device``.

        This is the paper's acquisition function ``Pw(device, n)``.
        ``out``, when given, is the ``(n_traces, trace length)`` float64
        matrix to fill; otherwise one is allocated.  Either way it is
        the returned trace set's matrix and the only array the kernel
        allocates, so acquisitions on distinct generators may run on
        worker threads over preallocated buffers.
        """
        if n_traces <= 0:
            raise ValueError(f"n_traces must be positive, got {n_traces}")
        base = device.deterministic_waveform(n_cycles)
        signal_std = float(np.std(base))
        if signal_std == 0:
            # A constant waveform still gets absolute-unit noise so the
            # correlation machinery downstream sees finite variance.
            signal_std = 1.0
        if out is None:
            out = np.empty((n_traces, base.size))
        elif out.shape != (n_traces, base.size):
            raise ValueError(f"out has shape {out.shape}, not {(n_traces, base.size)}")
        grid = self._adc_grid(base, signal_std)
        for start in range(0, n_traces, BLOCK_ROWS):
            block = out[start : start + BLOCK_ROWS]
            self.noise.sample(block.shape[0], base.size, signal_std, rng, out=block)
            block += base
            if grid is not None:
                # low + round((clip(x) - low) / step) * step, in place.
                low, high, step = grid
                np.clip(block, low, high, out=block)
                block -= low
                block /= step
                np.rint(block, out=block)
                block *= step
                block += low
        return TraceSet(device.name, out)
