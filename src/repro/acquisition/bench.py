"""Measurement campaigns: the paper's ``Pw(device, n)`` step.

:func:`acquire_traces` is the library-level entry point for power
acquisition; :class:`MeasurementBench` bundles an oscilloscope and a
randomness policy so a whole experiment shares one reproducible
measurement chain.

A bench has two seeding modes:

* **Sequential** (``seed=...``) — one RNG stream consumed in
  acquisition order, as on a real bench where measurement order
  matters.  Two benches with the same seed reproduce each other only
  if they measure the same devices in the same order.
* **Keyed** (``key=...``) — every ``(device, cycle-count)`` pair gets
  its own generator seeded from
  :func:`derive_acquisition_seed`, so acquiring DUT#3 alone yields
  byte-identical traces to acquiring it inside a full campaign.  This
  is what makes trace sets *sharing-safe*: the artifact cache
  (:mod:`repro.experiments.artifacts`) can reuse one acquisition
  across scenarios because its bytes do not depend on what else was
  measured.  Keyed acquisition is also *prefix-stable*: the first
  ``n`` traces of a large acquisition equal a direct ``n``-trace
  acquisition (see :class:`~repro.power.noise.NoiseModel`).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional, Union

import numpy as np

from repro.acquisition.device import Device, prime_fleet_activity
from repro.acquisition.oscilloscope import Oscilloscope
from repro.acquisition.traces import TraceSet

RngLike = Union[int, np.random.Generator, None]


def make_rng(seed: RngLike) -> np.random.Generator:
    """Normalise a seed / generator / None into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_acquisition_seed(key: str, device_name: str, n_cycles: int) -> int:
    """Per-device acquisition seed from a bench key.

    ``key`` is an opaque string identifying the measurement context
    (the artifact layer uses the measurement base key of the campaign
    config); the device name and resolved cycle count are mixed in so
    every (device, measurement-length) pair draws an independent,
    order-free noise stream.
    """
    digest = hashlib.sha256(
        f"acquisition:{key}|{device_name}|{n_cycles}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def acquire_traces(
    device: Device,
    n_traces: int,
    oscilloscope: Optional[Oscilloscope] = None,
    rng: RngLike = None,
    n_cycles: Optional[int] = None,
) -> TraceSet:
    """The paper's ``T_device = Pw(device, n)``."""
    scope = oscilloscope if oscilloscope is not None else Oscilloscope()
    return scope.acquire(device, n_traces, make_rng(rng), n_cycles)


class MeasurementBench:
    """One measurement setup shared across a whole experiment.

    Holds the oscilloscope and the seeding policy (see the module
    docstring) so campaigns are exactly reproducible, and caches
    acquired trace sets per device.  Cached matrices are frozen
    (``writeable = False``) and served as zero-copy views — consumers
    must treat trace sets as immutable, which everything in
    :mod:`repro.core` already does.
    """

    def __init__(
        self,
        oscilloscope: Optional[Oscilloscope] = None,
        seed: RngLike = None,
        key: Optional[str] = None,
    ):
        self.oscilloscope = oscilloscope if oscilloscope is not None else Oscilloscope()
        self.rng = make_rng(seed)
        self.key = key
        self._cache: Dict[str, TraceSet] = {}

    def device_rng(
        self, device: Device, n_cycles: Optional[int] = None
    ) -> np.random.Generator:
        """The keyed per-device generator (requires ``key`` mode)."""
        if self.key is None:
            raise ValueError("device_rng needs a keyed bench (key=...)")
        cycles = device.resolve_cycles(n_cycles)
        return np.random.default_rng(
            derive_acquisition_seed(self.key, device.name, cycles)
        )

    def measure(
        self,
        device: Device,
        n_traces: int,
        n_cycles: Optional[int] = None,
        cache: bool = True,
    ) -> TraceSet:
        """Acquire (or reuse) ``n_traces`` traces for ``device``.

        The cache keys on the *resolved* cycle count so that
        ``n_cycles=None`` and an explicit ``n_cycles=default_cycles``
        hit the same entry instead of acquiring twice.  Hits are served
        as read-only prefix views of the cached matrix — no per-hit
        copy of multi-MB trace matrices.
        """
        cache_key = f"{device.name}:{device.resolve_cycles(n_cycles)}"
        if cache and cache_key in self._cache:
            cached = self._cache[cache_key]
            if cached.n_traces >= n_traces:
                if cached.n_traces == n_traces:
                    return cached
                return TraceSet(cached.device_name, cached.matrix[:n_traces])
        rng = (
            self.device_rng(device, n_cycles)
            if self.key is not None
            else self.rng
        )
        traces = self.oscilloscope.acquire(device, n_traces, rng, n_cycles)
        if cache:
            traces.matrix.flags.writeable = False
            self._cache[cache_key] = traces
        return traces

    def measure_all(
        self,
        devices: Iterable[Device],
        n_traces: int,
        n_cycles: Optional[int] = None,
    ) -> Dict[str, TraceSet]:
        """Acquire the same number of traces on several devices.

        The fleet's switching activity is primed first
        (:func:`~repro.acquisition.device.prime_fleet_activity`): all
        devices sharing a netlist shape simulate in one batched engine
        execution instead of one scalar run each.  Acquired bytes are
        unchanged — batching only fills the activity caches faster.
        """
        devices = list(devices)
        prime_fleet_activity(devices, n_cycles)
        return {
            device.name: self.measure(device, n_traces, n_cycles)
            for device in devices
        }

    def clear_cache(self) -> None:
        self._cache.clear()
