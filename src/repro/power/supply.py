"""Power-delivery-network (PDN) and waveform rendering.

On a real board the oscilloscope does not see per-cycle impulses: each
clock period's switching current is spread over several samples by the
die/package/board RC network.  The model renders each cycle as a
damped-exponential current pulse over ``samples_per_cycle`` samples and
then applies a single-pole low-pass filter for the PDN's memory across
cycles.

Byte contract: the filter ``y[n] = (1 - p) x[n] + p y[n-1]`` performs
the float operations of ``scipy.signal.lfilter([1 - p], [1, -p], x)``,
so for every finite input the rendered waveform, and every trace and
stored result derived from it, has the bytes lfilter gives, while the
package needs numpy alone (scipy is the tests' oracle).  lfilter keeps
one delay ``z``, initially 0.0, and per sample computes ``y = z + b0*x``
and then ``z = x*b1 - y*a1``; with ``b0 = 1 - p``, ``b1 = 0`` and
``a1 = -p`` that is ``z = x*0.0 + p*y``.  The ``x*0.0`` term is a signed
zero and cannot be dropped: when ``p*y`` is -0.0 and ``x`` is
non-negative it makes ``z`` +0.0, where ``z = p*y`` would leave -0.0 to
flip the sign of a later zero output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WaveformConfig:
    """Rendering parameters from per-cycle power to sampled waveform."""

    samples_per_cycle: int = 4
    pulse_decay: float = 0.55
    pdn_pole: float = 0.25

    def __post_init__(self) -> None:
        if self.samples_per_cycle <= 0:
            raise ValueError("samples_per_cycle must be positive")
        if not 0 < self.pulse_decay <= 1:
            raise ValueError("pulse_decay must be in (0, 1]")
        if not 0 <= self.pdn_pole < 1:
            raise ValueError("pdn_pole must be in [0, 1)")

    def pulse_kernel(self) -> np.ndarray:
        """Intra-cycle current pulse shape (peaks at the clock edge)."""
        exponents = np.arange(self.samples_per_cycle)
        kernel = self.pulse_decay ** exponents
        return kernel / kernel.sum()


def render_waveform(cycle_power: np.ndarray, config: WaveformConfig) -> np.ndarray:
    """Expand per-cycle power into a sampled, PDN-filtered waveform.

    The output has ``len(cycle_power) * samples_per_cycle`` samples.
    """
    cycle_power = np.asarray(cycle_power, dtype=float)
    if cycle_power.ndim != 1:
        raise ValueError("cycle_power must be 1-D")
    kernel = config.pulse_kernel()
    samples = np.outer(cycle_power, kernel).reshape(-1)
    if config.pdn_pole > 0:
        samples = _pdn_filter(samples, config.pdn_pole)
    return samples


def _pdn_filter(samples: np.ndarray, pole: float) -> np.ndarray:
    """Single-pole low-pass with lfilter's float operations (see above).

    Python floats are IEEE doubles, so each product and sum rounds
    exactly as in lfilter's C loop.
    """
    gain = 1.0 - pole
    delay = 0.0
    out = []
    append = out.append
    for x in samples.tolist():
        y = delay + gain * x
        append(y)
        delay = x * 0.0 + pole * y
    return np.array(out, dtype=float)
