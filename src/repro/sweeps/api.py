"""The one public entry point for executing a sweep.

    ``run(spec, store, options=SweepOptions(...), progress=...)``

:class:`SweepOptions` carries every execution knob, so embedders (the
HTTP sweep service, the CLI, tests, notebooks) call one function
whatever the strategy.  Execution strategy never changes results:
whatever the options, the store is byte-identical to a clean
single-worker run.

Strategy selection is one rule: ``options.scheduler`` set routes the
sweep through the lease-based fault-tolerant scheduler
(:mod:`repro.sweeps.scheduler` — isolated attempt processes, scenario
timeouts, safe concurrency of many instances on one store root);
unset runs the in-process executor (:mod:`repro.sweeps.executor` —
inline or on a multiprocess pool).  Both run the same attempt body and
the same failure step.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

from repro.sweeps.scheduler import RetryPolicy, SchedulerOptions
from repro.sweeps.spec import SweepSpec
from repro.sweeps.store import SweepStore

if TYPE_CHECKING:  # imported lazily at call time to avoid module cycles
    from repro.experiments.artifacts import ArtifactOptions
    from repro.sweeps.executor import SweepReport


@dataclass(frozen=True)
class SweepOptions:
    """Every execution knob of one sweep run, in one place.

    ``n_workers``
        Parallelism: pool processes (plain executor) or concurrent
        attempt slots (lease scheduler).

    ``artifacts``
        :class:`~repro.experiments.artifacts.ArtifactOptions` enabling
        cross-scenario fleet/trace sharing and campaign-outcome
        memoisation (an options ``root`` adds the on-disk tier shared
        across workers, runs and service instances).

    ``retry``
        Per-scenario attempt budget and backoff.  With a scheduler it
        overrides ``scheduler.retry``; without one it bounds the
        in-process retry loop.  ``None`` means the stock
        :class:`~repro.sweeps.scheduler.RetryPolicy`.

    ``scheduler``
        :class:`~repro.sweeps.scheduler.SchedulerOptions` switches to
        lease-based scheduling; ``None`` selects the in-process
        executor.

    Results never depend on any of these: every combination converges
    on a byte-identical store.
    """

    n_workers: int = 1
    artifacts: Optional["ArtifactOptions"] = None
    retry: Optional[RetryPolicy] = None
    scheduler: Optional[SchedulerOptions] = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")


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
    :class:`~repro.sweeps.executor.SweepReport`; aggregate tables are
    read back from the store (:mod:`repro.sweeps.aggregate`) and
    progress snapshots from :func:`repro.sweeps.status.sweep_status`.
    """
    from repro.sweeps.executor import _plain_sweep
    from repro.sweeps.scheduler import _scheduled_sweep

    options = options or SweepOptions()
    if options.scheduler is not None:
        scheduler = options.scheduler
        if options.retry is not None:
            scheduler = dataclasses.replace(scheduler, retry=options.retry)
        return _scheduled_sweep(
            spec,
            store,
            options=scheduler,
            n_workers=options.n_workers,
            progress=progress,
            artifacts=options.artifacts,
        )
    return _plain_sweep(
        spec,
        store,
        n_workers=options.n_workers,
        progress=progress,
        artifacts=options.artifacts,
        retry=options.retry,
    )


__all__ = ["SweepOptions", "run"]
