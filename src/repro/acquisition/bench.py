"""Measurement campaigns: the paper's ``Pw(device, n)`` step.

:func:`acquire_traces` is the library-level entry point for power
acquisition; :class:`MeasurementBench` bundles an oscilloscope and one
sequential RNG stream so a whole experiment shares one reproducible
measurement chain.  Each :meth:`MeasurementBench.measure` draws fresh
traces from that stream, in call order, as on a real bench where
measurement order matters: two benches with the same seed reproduce
each other only if they measure the same devices in the same order.

Campaigns acquire on *keyed* streams instead, through
:func:`acquire_keyed`, the one keyed acquisition path (behind both
:func:`~repro.experiments.runner.run_campaign` and the artifact
cache): every ``(device, cycle-count)`` pair gets its own generator
seeded from :func:`derive_acquisition_seed`, so acquiring DUT#3 alone
yields byte-identical traces to acquiring it inside a full campaign.
This is what makes trace sets *sharing-safe*: the artifact cache
(:mod:`repro.experiments.artifacts`) can reuse one acquisition across
scenarios because its bytes do not depend on what else was measured.
Keyed acquisition is also *prefix-stable*: the first ``n`` traces of a
large acquisition equal a direct ``n``-trace acquisition (see
:class:`~repro.power.noise.NoiseModel`).

Keyed streams are independent, so :func:`acquire_keyed` acquires a
batch of them concurrently.  The calling thread renders every waveform
and allocates every result matrix; worker threads only run the
oscilloscope's numpy kernel over those preallocated buffers (numpy
releases the GIL inside its generators and ufuncs), and the pool is
shut down before the call returns.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.acquisition.device import Device
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


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one).

    Sizes each keyed acquisition's thread pool and, through
    :func:`repro.sweeps.executor.default_workers`, the default number
    of sweep attempt slots.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def acquire_keyed(
    oscilloscope: Oscilloscope,
    key: str,
    requests: Sequence[Tuple[Device, int]],
) -> List[TraceSet]:
    """Acquire ``(device, n_traces)`` requests on their keyed streams.

    Each request draws from its own generator, seeded by
    :func:`derive_acquisition_seed` from ``key``, the device name and
    its default cycle count, so the result is byte-identical to
    acquiring every request alone, in any order.  Waveforms are
    rendered and result matrices allocated on the calling thread; the
    acquisitions then run on a pool of ``min(len(requests),
    usable_cpus())`` threads, which is shut down before this returns.
    """
    jobs = []
    for device, n_traces in requests:
        cycles = device.resolve_cycles()
        base = device.deterministic_waveform(cycles)
        rng = np.random.default_rng(derive_acquisition_seed(key, device.name, cycles))
        jobs.append((device, n_traces, rng, cycles, np.empty((n_traces, base.size))))

    def run(job) -> TraceSet:
        device, n_traces, rng, cycles, out = job
        return oscilloscope.acquire(device, n_traces, rng, cycles, out=out)

    n_threads = min(len(jobs), usable_cpus())
    if n_threads <= 1:
        return [run(job) for job in jobs]
    with ThreadPoolExecutor(n_threads) as pool:
        return list(pool.map(run, jobs))


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

    Holds the oscilloscope and the sequential RNG stream (see the
    module docstring) so experiments are exactly reproducible.
    """

    def __init__(
        self,
        oscilloscope: Optional[Oscilloscope] = None,
        seed: RngLike = None,
    ):
        self.oscilloscope = oscilloscope if oscilloscope is not None else Oscilloscope()
        self.rng = make_rng(seed)

    def measure(
        self,
        device: Device,
        n_traces: int,
        n_cycles: Optional[int] = None,
    ) -> TraceSet:
        """Acquire ``n_traces`` fresh traces of ``device`` on the bench's
        stream; measuring a device again draws the stream's next rows."""
        return self.oscilloscope.acquire(device, n_traces, self.rng, n_cycles)
