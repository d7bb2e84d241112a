"""Measurement-noise model for the synthetic oscilloscope.

The dominant noise in a shunt-resistor power measurement is wideband
amplifier/thermal noise, modelled as i.i.d. Gaussian samples.  A slow
baseline drift (random-walk low-frequency noise) is also available —
it is largely removed by the Pearson correlation's mean subtraction,
but including it keeps single traces realistic.

``sigma`` is expressed *relative to the standard deviation of the
deterministic waveform*, so the acquisition signal-to-noise ratio is a
single, interpretable calibration knob: the default of 1.0 (single-
trace SNR of one) puts the k = 50 averaged matching correlation near
0.98 and reproduces the paper's distinguisher behaviour; sigma = 1.8
lands the matching mean on the paper's 0.94 at the cost of a thinner
variance margin.

**Stream contract.**  :meth:`NoiseModel.sample` draws trace-major from
the generator's single bit stream, and each trace's draws depend only
on its own stream segment (the drift random walk runs *within* a
trace, never across traces).  Two consequences the acquisition layer
relies on:

* *block invariance* — sampling ``(a, l)`` then ``(b, l)`` from one
  generator equals one ``(a + b, l)`` call split at row ``a``, so
  :class:`~repro.acquisition.oscilloscope.Oscilloscope` can draw a
  trace matrix block by block, straight into the result
  (``out=``), without changing a single byte;
* *prefix stability* — the first ``n`` rows of a larger sample equal a
  direct ``n``-row sample from a same-seeded generator, which is what
  lets cached trace sets be reused by prefix across scenarios with
  different trace budgets.

The draws are ``scale * standard_normal`` — the same floats, in the
same order, that ``rng.normal(0, scale, ...)`` produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise applied to each acquired trace."""

    sigma: float = 1.0
    drift_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("noise sigma must be non-negative")
        if self.drift_sigma < 0:
            raise ValueError("drift sigma must be non-negative")

    def sample(
        self,
        n_traces: int,
        n_samples: int,
        signal_std: float,
        rng: np.random.Generator,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Noise matrix of shape ``(n_traces, n_samples)``.

        ``signal_std`` scales the relative sigmas into absolute units.
        Draws are trace-major and per-trace independent — see the
        module docstring for the block/prefix stream contract.  With
        ``out`` (a C-contiguous float64 array of that shape) the noise
        is drawn into it in place and ``out`` is returned.
        """
        if n_traces <= 0 or n_samples <= 0:
            raise ValueError("n_traces and n_samples must be positive")
        if signal_std < 0:
            raise ValueError("signal_std must be non-negative")
        if out is None:
            out = np.empty((n_traces, n_samples))
        elif out.shape != (n_traces, n_samples):
            raise ValueError(f"out has shape {out.shape}, not {(n_traces, n_samples)}")
        scale = self.sigma * signal_std
        if self.drift_sigma <= 0:
            rng.standard_normal(out=out)
            out *= scale
            if scale == 0:
                # rng.normal(0, 0) yields 0.0 + (±0.0) = +0.0, never -0.0.
                out.fill(0.0)
            return out
        # With drift enabled, each trace's white and drift draws must be
        # consecutive in the stream (trace-major), otherwise the drift
        # block's position would depend on n_traces and break the
        # block/prefix contract above.
        block = rng.standard_normal((n_traces, 2 * n_samples))
        np.multiply(scale, block[:, :n_samples], out=out)
        steps = block[:, n_samples:]
        steps *= self.drift_sigma * signal_std / np.sqrt(n_samples)
        out += np.cumsum(steps, axis=1, out=steps)
        return out
