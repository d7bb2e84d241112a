"""Physical device instances.

A :class:`Device` is one chip: a watermarked IP netlist plus that die's
process-variation draw and the nominal power model.  Because the
paper's designs are input-independent and start from reset, a device's
noise-free power waveform is deterministic; it is simulated once and
cached, and each "measurement" adds fresh noise in the oscilloscope.
This mirrors physics (the die does the same thing every run) and makes
10 000-trace campaigns cheap.

Caching happens at two levels:

* **Per device** — activity and rendered waveforms are cached per
  resolved cycle count (``n_cycles=None`` and an explicit
  ``n_cycles == default_cycles`` share one entry).
* **Per fleet** — devices manufactured from the same
  :class:`~repro.fsm.watermark.WatermarkedIP` differ only in power
  weights, gain and offset, never in switching activity.  The compiled
  engine's structural fingerprint (see :mod:`repro.hdl.engine`)
  identifies structurally identical netlists, and a process-wide
  activity cache keyed on it makes an N-device campaign simulate each
  *distinct* netlist exactly once.  Shared
  :class:`~repro.hdl.activity.ActivityTrace` objects are treated as
  immutable by every consumer in this package.

:func:`prime_fleet_activity` is the batched front door to that cache:
instead of letting each device lazily simulate its own netlist, it
dedupes a whole fleet down to its distinct ``(structure, cycles)``
entries and fills them through
:func:`~repro.hdl.simulator.simulate_batch`, which executes every
group of shape-compatible netlists in **one** vectorised engine run.
Batched execution is byte-identical to the per-device compiled path
(the engine's core invariant), so priming never changes what any
device observes — only how fast the cache fills.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.fsm.watermark import WatermarkedIP
from repro.hdl.activity import ActivityTrace
from repro.hdl.simulator import Simulator, simulate_batch
from repro.power.models import PowerModel
from repro.power.supply import WaveformConfig, render_waveform
from repro.power.variation import DeviceVariation

#: Process-wide structural activity cache:
#: ``(structural_key, cycles) -> ActivityTrace``, bounded LRU.
_FLEET_ACTIVITY_CACHE: "OrderedDict[Tuple[str, int], ActivityTrace]" = OrderedDict()

#: Upper bound on distinct (netlist structure, cycle count) entries.
FLEET_ACTIVITY_CACHE_MAX = 64


def clear_fleet_activity_cache() -> None:
    """Drop every structurally shared activity trace (mainly for tests)."""
    _FLEET_ACTIVITY_CACHE.clear()


def fleet_activity_cache_size() -> int:
    """Number of distinct (structure, cycles) entries currently shared."""
    return len(_FLEET_ACTIVITY_CACHE)


def prime_fleet_activity(
    devices: Iterable["Device"],
    n_cycles: Optional[int] = None,
) -> int:
    """Fill the activity caches for a whole fleet with batched runs.

    Groups ``devices`` by distinct ``(structural fingerprint, resolved
    cycle count)``, skips everything already cached (per device or
    process-wide), and simulates the remaining distinct netlists
    through :func:`~repro.hdl.simulator.simulate_batch` — one
    vectorised engine execution per netlist *shape*, with per-lane
    cycle counts, instead of one scalar run per structure.  Devices
    whose netlists cannot be fingerprinted (interpreted engines, input
    ports) are simulated individually, exactly as the lazy
    :meth:`Device.activity` path would.

    Returns the number of distinct shareable entries that were
    simulated.  After priming, every device's :meth:`Device.activity`
    for the requested length is a cache hit, and the cached bytes are
    identical to what lazy per-device simulation would have produced —
    the engine's batching invariant.
    """
    pending: "OrderedDict[Tuple[str, int], Simulator]" = OrderedDict()
    followers: Dict[Tuple[str, int], List[Device]] = {}
    for device in devices:
        cycles = device.resolve_cycles(n_cycles)
        if cycles in device._activity_cache:
            continue
        simulator = Simulator(device.ip.netlist, engine=device.engine)
        key = simulator.structural_key
        if key is None:
            device._activity_cache[cycles] = simulator.run(cycles)
            continue
        fleet_key = (key, cycles)
        cached = _FLEET_ACTIVITY_CACHE.get(fleet_key)
        if cached is not None:
            _FLEET_ACTIVITY_CACHE.move_to_end(fleet_key)
            device._activity_cache[cycles] = cached
            continue
        if fleet_key in pending:
            followers[fleet_key].append(device)
        else:
            pending[fleet_key] = simulator
            followers[fleet_key] = [device]
    if not pending:
        return 0
    traces = simulate_batch(
        list(pending.values()),
        [cycles for _key, cycles in pending],
    )
    for fleet_key, trace in zip(pending, traces):
        _FLEET_ACTIVITY_CACHE[fleet_key] = trace
        _FLEET_ACTIVITY_CACHE.move_to_end(fleet_key)
        for device in followers[fleet_key]:
            device._activity_cache[fleet_key[1]] = trace
    while len(_FLEET_ACTIVITY_CACHE) > FLEET_ACTIVITY_CACHE_MAX:
        _FLEET_ACTIVITY_CACHE.popitem(last=False)
    return len(pending)


class Device:
    """One manufactured instance of a watermarked IP."""

    def __init__(
        self,
        name: str,
        ip: WatermarkedIP,
        power_model: PowerModel,
        variation: Optional[DeviceVariation] = None,
        waveform: Optional[WaveformConfig] = None,
        default_cycles: int = 256,
        engine: str = "auto",
    ):
        if default_cycles <= 0:
            raise ValueError("default_cycles must be positive")
        self.name = name
        self.ip = ip
        self.nominal_model = power_model
        self.variation = (
            variation if variation is not None else DeviceVariation.nominal()
        )
        self.waveform = waveform if waveform is not None else WaveformConfig()
        self.default_cycles = default_cycles
        self.engine = engine
        self._activity_cache: Dict[int, ActivityTrace] = {}
        self._waveform_cache: Dict[int, np.ndarray] = {}

    @property
    def effective_model(self) -> PowerModel:
        """The nominal power model perturbed by this die's variation."""
        if not self.variation.component_scales:
            return self.nominal_model
        return self.nominal_model.with_component_scales(
            self.variation.component_scales
        )

    def resolve_cycles(self, n_cycles: Optional[int] = None) -> int:
        """Normalise a measurement length: ``None`` means the default.

        Every cache in the acquisition chain keys on the *resolved*
        count, so ``None`` and an explicit ``default_cycles`` share one
        entry instead of simulating (and storing) everything twice.
        """
        return self.default_cycles if n_cycles is None else n_cycles

    def activity(self, n_cycles: Optional[int] = None) -> ActivityTrace:
        """Cycle-accurate switching activity over ``n_cycles`` (cached).

        Consults the per-device cache first, then the process-wide
        structural cache shared by every device built from the same IP
        structure; only on a double miss is the netlist simulated.
        """
        cycles = self.resolve_cycles(n_cycles)
        trace = self._activity_cache.get(cycles)
        if trace is not None:
            return trace
        simulator = Simulator(self.ip.netlist, engine=self.engine)
        fleet_key = None
        if simulator.structural_key is not None:
            fleet_key = (simulator.structural_key, cycles)
            trace = _FLEET_ACTIVITY_CACHE.get(fleet_key)
            if trace is not None:
                _FLEET_ACTIVITY_CACHE.move_to_end(fleet_key)
        if trace is None:
            trace = simulator.run(cycles)
            if fleet_key is not None:
                _FLEET_ACTIVITY_CACHE[fleet_key] = trace
                while len(_FLEET_ACTIVITY_CACHE) > FLEET_ACTIVITY_CACHE_MAX:
                    _FLEET_ACTIVITY_CACHE.popitem(last=False)
        self._activity_cache[cycles] = trace
        return trace

    def deterministic_waveform(self, n_cycles: Optional[int] = None) -> np.ndarray:
        """The noise-free sampled power waveform of this die (cached).

        The cached array is frozen (``writeable = False``): devices are
        shared across campaigns and scenarios by the artifact cache
        (:mod:`repro.experiments.artifacts`), so the rendered waveform
        must behave as an immutable value.
        """
        cycles = self.resolve_cycles(n_cycles)
        if cycles not in self._waveform_cache:
            cycle_power = self.effective_model.cycle_power(self.activity(cycles))
            samples = render_waveform(cycle_power, self.waveform)
            samples = self.variation.gain * samples + self.variation.offset
            samples.flags.writeable = False
            self._waveform_cache[cycles] = samples
        return self._waveform_cache[cycles]

    def trace_length(self, n_cycles: Optional[int] = None) -> int:
        """Number of samples per trace for a given measurement length."""
        return self.resolve_cycles(n_cycles) * self.waveform.samples_per_cycle

    def __repr__(self) -> str:
        return f"Device({self.name!r}, ip={self.ip.name!r})"
