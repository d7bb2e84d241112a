"""CMOS process variation between device instances.

The paper implements the same IP on different Cyclone III FPGAs and
reports that the verification is "insensitive to the CMOS variation
process".  Process variation changes transistor thresholds and wire
capacitances die-to-die, which the model captures as:

* a global gain on the whole trace (shunt/probe/die current scale),
* a global offset (static-power difference),
* small per-component multiplicative perturbations of the switched
  capacitance (local, within-die variation) — these slightly reshape
  the deterministic waveform, so even two "identical" devices do not
  correlate at exactly 1.0.

Pearson correlation is invariant to gain and offset; only the
per-component perturbation can degrade the verification, and the
experiments show it does not at realistic magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

import numpy as np


@dataclass(frozen=True)
class VariationModel:
    """Statistical model of die-to-die and within-die variation."""

    gain_sigma: float = 0.08
    offset_sigma: float = 0.3
    component_sigma: float = 0.025

    def __post_init__(self) -> None:
        if self.gain_sigma < 0 or self.offset_sigma < 0 or self.component_sigma < 0:
            raise ValueError("variation sigmas must be non-negative")

    def sample(
        self, component_names: Iterable[str], rng: np.random.Generator
    ) -> "DeviceVariation":
        """Draw one device's variation parameters."""
        gain = float(rng.normal(1.0, self.gain_sigma))
        gain = max(gain, 0.1)
        offset = float(rng.normal(0.0, self.offset_sigma))
        names = list(component_names)
        # One vector draw: the values, and the generator state after
        # them, of one scalar draw per component in order.
        scales = rng.normal(1.0, self.component_sigma, size=len(names))
        component_scales = dict(zip(names, np.maximum(scales, 0.01).tolist()))
        return DeviceVariation(
            gain=gain, offset=offset, component_scales=component_scales
        )


@dataclass(frozen=True)
class DeviceVariation:
    """One concrete device's deviation from the nominal power model."""

    gain: float = 1.0
    offset: float = 0.0
    component_scales: Dict[str, float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.component_scales is None:
            object.__setattr__(self, "component_scales", {})
        if self.gain <= 0:
            raise ValueError("gain must be positive")

    @classmethod
    def nominal(cls) -> "DeviceVariation":
        """The no-variation device (used for ablations)."""
        return cls(gain=1.0, offset=0.0, component_scales={})
