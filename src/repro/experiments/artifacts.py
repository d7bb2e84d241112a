"""Cross-campaign artifact sharing: keyed caches for fleets and traces.

A campaign's cost is dominated by the acquisition step ``Pw(device,
n)`` — 400 reference + 4 x 10 000 DUT traces — yet a scenario sweep
whose axes are *analysis-side* re-manufactures the fleet and
re-acquires every trace set per scenario.  This module closes that
gap by splitting :class:`~repro.experiments.runner.CampaignConfig`
into tiers, in one table (:data:`TIERS`), and deriving a cache key
from each:

* **fleet key** (:func:`fleet_key`) — the manufactured silicon.  Two
  configs with equal fleet keys describe byte-identical device fleets.
* **measurement key** (:func:`measurement_key`) — the fleet plus the
  measurement chain and the trace ceilings.  It identifies one
  concrete set of acquired trace matrices.  The ceiling-free prefix of
  this key (:func:`measurement_base_key`) seeds the per-device
  acquisition streams, so trace sets are *prefix-reusable*: a scenario
  needing ``n2 = 2 500`` traces slices the first 2 500 rows of a
  cached ``n2 = 10 000`` matrix and gets exactly the bytes a direct
  2 500-trace acquisition would produce.
* **analysis key** (:func:`analysis_key`) — everything.  Two configs
  with equal analysis keys produce byte-identical campaign outcomes;
  it is the natural memoisation key for a full
  :func:`~repro.experiments.runner.run_campaign` result, and
  :class:`ArtifactCache` uses it exactly so: the *outcome tier*
  (:meth:`ArtifactCache.outcome` / :meth:`ArtifactCache.remember_outcome`)
  memoises whole :class:`~repro.experiments.runner.CampaignOutcome`
  objects, so repeat-style studies and re-run sweeps skip manufacture,
  acquisition *and* analysis entirely.  A memoised campaign consults
  nothing else — neither the fleet tier nor the trace tier.

A campaign may tamper with its DUTs (the config's ``attack``); it is
a fleet-tier field, so attacked and pristine fleets never share
artifacts.

:class:`ArtifactCache` is the in-memory cache built on those keys.
It retains the trace matrices of one measurement group (one
measurement base key) at a time, plus small LRUs of fleets and
outcomes; :func:`repro.sweeps.run` orders a sweep so that scenarios
sharing a measurement run back to back, largest trace ceiling first,
which is what lets that one group, acquired once, serve them all.
Nothing is written to disk: a rerun into the same
:class:`~repro.sweeps.store.SweepStore` skips every finished
scenario, and a trace matrix costs about as much to re-acquire from
its keyed stream as to load from a compressed bundle.  Sharing is
*transparent*: because per-device acquisition seeds derive from the
measurement base key rather than from a sequential bench RNG, a cache
hit returns byte-for-byte what a cold acquisition would have produced.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.acquisition.bench import acquire_keyed
from repro.acquisition.oscilloscope import Oscilloscope
from repro.acquisition.traces import TraceSet

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.experiments.runner import CampaignConfig

#: Version folded into every artifact key; bump when key semantics or
#: the acquisition byte stream change incompatibly.
ARTIFACT_SCHEMA = 1

#: Manufactured fleets kept alive per cache (a paper fleet with its
#: simulated waveforms is about 0.14 MB).
FLEET_SLOTS = 8

#: Memoised campaign outcomes kept alive per cache (an outcome is just
#: 16 correlation sets plus verdicts — tiny next to a trace matrix, so
#: dozens are cheap).
OUTCOME_SLOTS = 32


#: The tier of every :class:`~repro.experiments.runner.CampaignConfig`
#: field.  A tier decides which keys move when one of its fields alone
#: changes:
#:
#: * ``fleet``, the manufactured silicon: all four keys, except
#:   ``engine``, which moves :func:`fleet_key` only.  Cached devices pin
#:   their simulation path, but the engines are bit-identical on
#:   waveforms, so ``engine`` must not re-seed acquisition.
#: * ``measurement``, the chain behind ``Pw(device, n)``: every key but
#:   :func:`fleet_key`.
#: * ``ceiling``, the analysis-side trace budgets: :func:`measurement_key`
#:   and :func:`analysis_key`, never :func:`measurement_base_key`, so
#:   traces acquired at different budgets share one keyed stream.
#: * ``analysis``, what is computed from the traces: :func:`analysis_key`
#:   only.
#:
#: Each field joins its tier's key payload under the last component of
#: its dotted path; :func:`_tier_payload` names the one exception.
TIERS: Mapping[str, str] = {
    "power_model": "fleet",
    "variation": "fleet",
    "waveform": "fleet",
    "fleet_seed": "fleet",
    "watermarked": "fleet",
    "design": "fleet",
    "engine": "fleet",
    "attack": "fleet",
    "noise": "measurement",
    "adc": "measurement",
    "measurement_seed": "measurement",
    "parameters.n1": "ceiling",
    "parameters.n2": "ceiling",
    "parameters.k": "analysis",
    "parameters.m": "analysis",
    "analysis_seed": "analysis",
    "single_reference": "analysis",
    "distinguishers": "analysis",
}


def _canonical_json(value: object) -> str:
    """Canonical (sorted, compact) JSON used for key digests."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _payload(value: object) -> object:
    """JSON-able canonical form of a config fragment (dataclasses
    become sorted field dicts; mappings are sorted by key)."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _payload(getattr(value, f.name)) for f in fields(value)
        }
    if isinstance(value, Mapping):
        return {str(key): _payload(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_payload(item) for item in value]
    raise TypeError(f"cannot canonicalise {value!r} into an artifact key")


def _digest(kind: str, payload: object) -> str:
    body = _canonical_json({"schema": ARTIFACT_SCHEMA, kind: payload})
    return hashlib.sha256(body.encode()).hexdigest()[:32]


def _tier_payload(config: "CampaignConfig", tier: str) -> Dict[str, object]:
    """The key payload of one tier: each of its :data:`TIERS` fields
    under the last component of the field's path."""
    payload: Dict[str, object] = {}
    for path in (path for path in TIERS if TIERS[path] == tier):
        if path == "distinguishers":
            value: object = [d.name for d in config.distinguishers]
        else:
            value = config
            for name in path.split("."):
                value = getattr(value, name)
        # ``attack`` joins under the name ``fleet_tag``: every digest,
        # and so every acquisition seed, was minted under that name, and
        # renaming it would move every stored byte.
        key = "fleet_tag" if path == "attack" else path.rpartition(".")[2]
        # Only non-default designs join, so every digest minted before
        # the ``design`` field existed stays byte-identical.
        if path != "design" or value != "paper":
            payload[key] = _payload(value)
    return payload


def fleet_key(config: "CampaignConfig") -> str:
    """Digest of the fleet tier: the manufactured (and attacked) fleet."""
    return _digest("fleet", _tier_payload(config, "fleet"))


def measurement_base_key(config: "CampaignConfig") -> str:
    """Ceiling-free measurement key: the fleet and measurement tiers.

    This is the seed material for the per-device acquisition streams
    (see :func:`~repro.acquisition.bench.derive_acquisition_seed`); it
    leaves out the trace ceilings and ``engine`` (see :data:`TIERS`).
    """
    fleet = _tier_payload(config, "fleet")
    del fleet["engine"]
    return _digest(
        "measurement_base",
        {"fleet": fleet, **_tier_payload(config, "measurement")},
    )


def measurement_key(config: "CampaignConfig") -> str:
    """Digest identifying one concrete set of acquired trace matrices:
    the base key plus the trace ceilings."""
    return _digest(
        "measurement",
        {
            "base": measurement_base_key(config),
            **_tier_payload(config, "ceiling"),
        },
    )


def analysis_key(config: "CampaignConfig") -> str:
    """Digest of the full campaign identity: every tier.  Equal keys
    mean byte-identical :func:`~repro.experiments.runner.run_campaign`
    outcomes."""
    return _digest(
        "analysis",
        {
            "measurement": measurement_key(config),
            **_tier_payload(config, "analysis"),
        },
    )


@dataclass(frozen=True)
class ArtifactOptions:
    """Sharing configuration; it has no settings.

    Every sweep shares through the one in-memory
    :class:`ArtifactCache` of its process.  The class stays only
    because the repository benchmark (``perfbench/workloads.py``)
    constructs ``SweepOptions(artifacts=ArtifactOptions())`` and calls
    ``process_artifact_cache(ArtifactOptions())``.
    """


@dataclass
class ArtifactStats:
    """Hit/miss and memory accounting of one :class:`ArtifactCache`."""

    fleet_hits: int = 0
    fleet_misses: int = 0
    trace_hits: int = 0
    trace_misses: int = 0
    outcome_hits: int = 0
    outcome_misses: int = 0
    bytes_acquired: int = 0
    bytes_in_memory: int = 0
    peak_bytes: int = 0

    def note_bytes(self, delta: int) -> None:
        self.bytes_in_memory += delta
        self.peak_bytes = max(self.peak_bytes, self.bytes_in_memory)


class ArtifactCache:
    """In-memory cache of campaign artifacts: fleets, traces, outcomes.

    The cache never *computes* fleets itself — callers pass a factory
    so manufacture (and any attack transform) stays where it belongs —
    but it owns acquisition end-to-end, because reproducing the keyed
    per-device streams is exactly what makes a hit byte-identical to a
    cold run.  Misses go through
    :func:`~repro.acquisition.bench.acquire_keyed`, the same keyed path
    an unshared :func:`~repro.experiments.runner.run_campaign` uses.
    One instance per process is the intended shape (see
    :func:`process_artifact_cache`); sweep workers each hold their own
    (a forked worker starts from a copy of its parent's).
    """

    def __init__(self) -> None:
        self.stats = ArtifactStats()
        self._fleets: "OrderedDict[str, object]" = OrderedDict()
        self._traces: Dict[Tuple[str, str, int], TraceSet] = {}
        self._outcomes: "OrderedDict[str, object]" = OrderedDict()

    # -- fleets ------------------------------------------------------------

    def fleet(
        self,
        config: "CampaignConfig",
        factory: Optional[Callable[[], object]] = None,
    ) -> object:
        """The manufactured (and possibly attacked) fleet for a config.

        ``factory`` builds the fleet on a miss; it must already apply
        the config's ``attack``.  Cached devices carry their simulated
        waveforms, so a hit skips manufacture *and*
        deterministic-waveform simulation.
        """
        key = fleet_key(config)
        cached = self._fleets.get(key)
        if cached is not None:
            self._fleets.move_to_end(key)
            self.stats.fleet_hits += 1
            return cached
        if factory is None:
            raise KeyError(f"fleet {key} not cached and no factory given")
        self.stats.fleet_misses += 1
        built = factory()
        self._fleets[key] = built
        while len(self._fleets) > FLEET_SLOTS:
            self._fleets.popitem(last=False)
        return built

    # -- traces ------------------------------------------------------------

    def _freeze(self, traces: TraceSet) -> TraceSet:
        if traces.matrix.flags.writeable:
            traces.matrix.flags.writeable = False
        return traces

    def _prefix(self, cached: TraceSet, n_traces: int) -> TraceSet:
        if cached.n_traces == n_traces:
            return cached
        return TraceSet(cached.device_name, cached.matrix[:n_traces])

    def _remember(self, key: Tuple[str, str, int], traces: TraceSet) -> None:
        old = self._traces.pop(key, None)
        if old is not None:
            self.stats.note_bytes(-old.matrix.nbytes)
        self._traces[key] = traces
        self.stats.note_bytes(traces.matrix.nbytes)

    def traces_all(
        self,
        config: "CampaignConfig",
        requests: Sequence[Tuple[object, int]],
    ) -> List[TraceSet]:
        """Acquire-or-reuse traces for ``(device, n_traces)`` requests.

        The cache holds one measurement group: the trace matrices of
        any other measurement base key are dropped first.  A hit whose
        matrix holds at least ``n_traces`` rows is served as a
        read-only prefix view; a larger request re-acquires from the
        same keyed stream (the old entry is a prefix of the new one)
        and replaces the cache entry.  Every lookup happens on the
        calling thread; the misses are acquired together,
        concurrently, by :func:`~repro.acquisition.bench.acquire_keyed`.
        """
        base_key = measurement_base_key(config)
        for key in [key for key in self._traces if key[0] != base_key]:
            self.stats.note_bytes(-self._traces.pop(key).matrix.nbytes)
        served: List[Optional[TraceSet]] = []
        misses: List[Tuple[int, Tuple[str, str, int]]] = []
        for index, (device, n_traces) in enumerate(requests):
            if n_traces <= 0:
                raise ValueError(f"n_traces must be positive, got {n_traces}")
            key = (base_key, device.name, device.resolve_cycles())
            traces = self._lookup(key, n_traces)
            if traces is None:
                misses.append((index, key))
            served.append(traces)
        acquired = acquire_keyed(
            Oscilloscope(config.noise, config.adc),
            base_key,
            [requests[index] for index, _ in misses],
        )
        for (index, key), traces in zip(misses, acquired):
            self.stats.trace_misses += 1
            self._freeze(traces)
            self.stats.bytes_acquired += traces.matrix.nbytes
            self._remember(key, traces)
            served[index] = traces
        return served

    def _lookup(self, key: Tuple[str, str, int], n_traces: int) -> Optional[TraceSet]:
        """A cached prefix of ``n_traces`` rows, if any."""
        cached = self._traces.get(key)
        if cached is not None and cached.n_traces >= n_traces:
            self.stats.trace_hits += 1
            return self._prefix(cached, n_traces)
        return None

    # -- campaign outcomes (the fourth artifact tier) ----------------------

    def outcome(self, config: "CampaignConfig") -> Optional[object]:
        """The memoised :class:`CampaignOutcome` for this config, if any.

        Returns ``None`` on a miss — the caller runs the campaign and
        stores it back through :meth:`remember_outcome`.  Equal
        analysis keys guarantee byte-identical outcomes, so a hit is
        indistinguishable from re-running the campaign (down to the
        sweep store digests derived from it).
        """
        key = analysis_key(config)
        cached = self._outcomes.get(key)
        if cached is not None:
            self._outcomes.move_to_end(key)
            self.stats.outcome_hits += 1
            return cached
        self.stats.outcome_misses += 1
        return None

    def remember_outcome(self, config: "CampaignConfig", outcome: object) -> None:
        """Memoise one computed campaign outcome on its analysis key."""
        key = analysis_key(config)
        self._outcomes[key] = outcome
        self._outcomes.move_to_end(key)
        while len(self._outcomes) > OUTCOME_SLOTS:
            self._outcomes.popitem(last=False)

    # -- maintenance -------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached artifact and reset the stats."""
        self._fleets.clear()
        self._traces.clear()
        self._outcomes.clear()
        self.stats = ArtifactStats()

    def __len__(self) -> int:
        return len(self._fleets) + len(self._traces) + len(self._outcomes)


#: The per-process cache behind :func:`process_artifact_cache`.
_PROCESS_CACHE: Optional[ArtifactCache] = None


def process_artifact_cache(
    options: Optional[ArtifactOptions] = None,
) -> ArtifactCache:
    """The process-wide :class:`ArtifactCache` (created on first use).

    A forked sweep worker starts from a copy of its parent's cache.
    ``options`` changes nothing; the parameter stays only because the
    repository benchmark (``perfbench/workloads.py``) passes
    ``ArtifactOptions()``.
    """
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = ArtifactCache()
    return _PROCESS_CACHE


def clear_process_artifact_cache() -> None:
    """Forget the process-wide cache entirely (mainly for tests)."""
    global _PROCESS_CACHE
    _PROCESS_CACHE = None


__all__ = [
    "ARTIFACT_SCHEMA",
    "FLEET_SLOTS",
    "OUTCOME_SLOTS",
    "TIERS",
    "ArtifactCache",
    "ArtifactOptions",
    "ArtifactStats",
    "analysis_key",
    "clear_process_artifact_cache",
    "fleet_key",
    "measurement_base_key",
    "measurement_key",
    "process_artifact_cache",
]
