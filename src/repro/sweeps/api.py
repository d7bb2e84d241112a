"""The one public entry point for executing a sweep.

    ``run(spec, store, options=SweepOptions(...), progress=...)``

:class:`SweepOptions` holds every setting of a sweep run in one flat,
validated value, under the names the CLI flags and the service's
``options`` use, so embedders (the HTTP sweep service, the CLI, tests,
notebooks) call one function whatever the strategy.  Execution
strategy never changes results: whatever the options, the store is
byte-identical to a clean single-worker run.

:func:`run` expands the spec, reports the scenarios already in the
store as cached, and hands the rest to one of two strategies.  A sweep
with ``n_workers > 1``, or with any of ``lease_ttl``,
``scenario_timeout`` or ``status_interval`` set, runs on the
lease-based fault-tolerant scheduler (:mod:`repro.sweeps.scheduler` —
isolated attempt processes, scenario timeouts, safe concurrency of
many instances on one store root); any other sweep runs inline in the
calling process (:mod:`repro.sweeps.executor`).  Both run the same
attempt body and the same failure step, under the one retry setting
``options.max_retries``.

Every sweep shares artifacts: each process that runs attempts keeps
one :class:`~repro.experiments.artifacts.ArtifactCache`, which retains
the trace matrices of one measurement group.  So :func:`run` hands
the pending scenarios over as groups, by the key that cache shares on,
:func:`~repro.experiments.artifacts.measurement_base_key`: the groups
in order of first appearance, and within each its largest trace
ceiling (``parameters.n2``, then ``parameters.n1``) first, stably,
because the cache serves a smaller request as a prefix of the traces
it holds but re-acquires a larger one.  Inline, the groups run back to
back; on the lease scheduler each slot keeps to the group its worker
ran last (see :mod:`repro.sweeps.scheduler`).  Expansion has built
every scenario's config, so every pending scenario has a key and a
ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.experiments.artifacts import ArtifactOptions, measurement_base_key
from repro.sweeps.spec import (
    Scenario,
    SweepSpec,
    _finite,
    expand_scenarios,
    scenario_config,
)
from repro.sweeps.store import SweepStore

if TYPE_CHECKING:  # imported lazily at call time to avoid module cycles
    from repro.sweeps.executor import SweepReport


@dataclass(frozen=True)
class SweepOptions:
    """Every setting of one sweep run, in one place.

    ``n_workers``
        Attempt slots.  ``1`` runs the sweep inline in the calling
        process (unless a lease field below is set); more run it on the
        lease scheduler, each slot a persistent worker process.

    ``artifacts``
        :class:`~repro.experiments.artifacts.ArtifactOptions`, which
        has no settings: every sweep shares fleets, traces and campaign
        outcomes through its process's in-memory artifact cache.  The
        field stays only because the repository benchmark
        (``perfbench/workloads.py``) constructs
        ``SweepOptions(artifacts=ArtifactOptions())``.

    ``max_retries``
        Re-attempts per scenario and run after its first failure, the
        one retry setting of both strategies.  A scenario that fails
        ``max_retries + 1`` times is quarantined.

    ``lease_ttl``, ``scenario_timeout``, ``status_interval``
        Seconds, or ``None``: the lease TTL
        (:data:`~repro.sweeps.scheduler.DEFAULT_LEASE_TTL` when unset),
        the wall-clock limit of one attempt (none when unset) and the
        period of the scheduler's progress log lines (none when unset).
        Setting any of them selects the lease scheduler even for one
        worker.

    Every field is validated here: a bad value raises ``ValueError``
    whose message starts with the field's name.  Results never depend
    on any of these: every combination converges on a byte-identical
    store.
    """

    n_workers: int = 1
    artifacts: ArtifactOptions = field(default_factory=ArtifactOptions)
    max_retries: int = 2
    lease_ttl: Optional[float] = None
    scenario_timeout: Optional[float] = None
    status_interval: Optional[float] = None

    def __post_init__(self) -> None:
        for name, minimum in (("n_workers", 1), ("max_retries", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
                raise ValueError(f"{name}: expected an integer >= {minimum}")
        # A NaN lease is never stale and never heartbeated, a NaN
        # timeout never fires, and an infinite lease of a dead instance
        # never expires for the other instances on its root.
        for name in ("lease_ttl", "scenario_timeout", "status_interval"):
            value = getattr(self, name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if value is not None and not (number and _finite(value) and value > 0):
                raise ValueError(f"{name}: expected a finite number > 0")

    @property
    def lease_scheduled(self) -> bool:
        """True when :func:`run` hands the sweep to the lease scheduler."""
        return self.n_workers > 1 or any(
            value is not None
            for value in (self.lease_ttl, self.scenario_timeout, self.status_interval)
        )


def run(
    spec: SweepSpec,
    store: SweepStore,
    options: Optional[SweepOptions] = None,
    progress: Optional[Callable[[str, bool], None]] = None,
) -> "SweepReport":
    """Execute every missing scenario of ``spec`` into ``store``.

    The unified facade over both execution strategies (see the module
    docstring).  ``progress`` (if given) is called as
    ``progress(scenario_id, executed)`` once per scenario —
    immediately for scenarios already in the store, on completion for
    executed ones.  Returns a
    :class:`~repro.sweeps.executor.SweepReport` whose id lists are
    sorted; aggregate tables are read back from the store
    (:mod:`repro.sweeps.aggregate`) and progress snapshots from
    :func:`repro.sweeps.status.sweep_status`.
    """
    return _run_expanded(spec, expand_scenarios(spec), store, options, progress)


def _run_expanded(
    spec: SweepSpec,
    scenarios: List[Scenario],
    store: SweepStore,
    options: Optional[SweepOptions] = None,
    progress: Optional[Callable[[str, bool], None]] = None,
) -> "SweepReport":
    """:func:`run`, given ``scenarios = expand_scenarios(spec)``.

    The CLI and the service's jobs expand a spec to validate and
    describe it before they run it; they hand their expansion here, so
    a sweep is expanded once.
    """
    from repro.sweeps.executor import SweepReport, _inline_sweep
    from repro.sweeps.scheduler import _scheduled_sweep

    options = options or SweepOptions()
    report = SweepReport(
        spec_name=spec.name,
        store_root=store.root,
        scenario_ids=[s.scenario_id for s in scenarios],
        n_workers=options.n_workers,
    )
    # Pending scenarios go over by measurement group, largest ceiling
    # first (see the module docstring).
    groups: Dict[str, List[Tuple[Tuple[int, int], Scenario]]] = {}
    for scenario in scenarios:
        if store.has(scenario.scenario_id):
            report.cached_ids.append(scenario.scenario_id)
            if progress is not None:
                progress(scenario.scenario_id, False)
        else:
            config = scenario_config(scenario)
            key = measurement_base_key(config)
            ceiling = (config.parameters.n2, config.parameters.n1)
            groups.setdefault(key, []).append((ceiling, scenario))
    pending = [
        [scenario for _, scenario in sorted(group, key=itemgetter(0), reverse=True)]
        for group in groups.values()
    ]

    execute = _scheduled_sweep if options.lease_scheduled else _inline_sweep
    execute(pending, store, report, options, progress)
    # Deterministic reporting whatever the completion order.
    report.executed_ids.sort()
    report.cached_ids.sort()
    report.failed_ids.sort()
    report.retried_ids.sort()
    return report


__all__ = ["SweepOptions", "run"]
