"""Inline sweep execution, and the report and attempt body both
execution strategies share.

:func:`repro.sweeps.run` expands a
:class:`~repro.sweeps.spec.SweepSpec`, skips every scenario already
present in the :class:`~repro.sweeps.store.SweepStore`, and hands the
missing ones to one of two strategies.  A sweep with one worker and no
lease setting (:attr:`~repro.sweeps.api.SweepOptions.lease_scheduled`
is False) runs them inline, in the calling process, through
:func:`_inline_sweep`: the in-process reference every byte-identity
test compares against.  Every other
sweep runs on the lease scheduler (:mod:`repro.sweeps.scheduler`),
whose persistent attempt workers run this module's attempt body
(:func:`_execute_attempt`).  Both strategies fill in one
:class:`SweepReport` and share one failure step
(:meth:`~repro.sweeps.scheduler.FailureLog.record_failure`).

Determinism: a scenario's result is a pure function of its override
mapping (all seeds are inside it, derived from the spec), and every
worker writes results through the same deterministic serialisation.  A
4-worker run therefore produces a byte-identical store to a 1-worker
run; only wall-clock time changes.  Workers write each finished
scenario to the store *immediately*, so killing a sweep loses at most
the scenarios in flight — a rerun picks up exactly the missing ones.

Fault tolerance: one failing scenario no longer aborts the sweep.
Every attempt is wrapped; failures are retried with exponential
backoff up to :attr:`~repro.sweeps.api.SweepOptions.max_retries` times
(attempt numbers persist in ``.attempts/`` beside the store, so seeded
fault plans stay deterministic across runs), and a scenario that exhausts
its budget is quarantined as a ``failed/<id>.json`` record — the sweep
continues and the loss surfaces in :attr:`SweepReport.failed_ids`
instead of discarding every sibling's progress.  Retries rewrite
results through the store's idempotent atomic publishes, so a
retried, crashed or duplicated execution still converges on a store
byte-identical to a clean single-worker run — the invariant is
exercised under injected faults (:mod:`repro.sweeps.faultinject`) by
the tier-1 suite and CI's chaos smoke job.

Artifact sharing: every attempt, inline or in a worker, runs against
its process's :class:`~repro.experiments.artifacts.ArtifactCache`, so
scenarios that differ only in analysis-side axes (the trace counts
included) reuse one fleet manufacture and one trace acquisition —
byte-identically, because acquisition streams are keyed per device,
never sequential.  Every scenario runs its own analysis.  The cache
retains one measurement group's traces; :func:`repro.sweeps.run`
hands over the pending scenarios grouped, each group largest trace
ceiling first, so that one acquisition per group suffices inline.  The cache lives in memory only: separate worker
processes and separate runs meet in the result store alone.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.acquisition import bench
from repro.experiments.artifacts import ArtifactCache, process_artifact_cache
from repro.sweeps.faultinject import fault_context, fault_point
from repro.sweeps.scenario import run_scenario
from repro.sweeps.scheduler import FailureLog, default_owner, error_info
from repro.sweeps.spec import Scenario
from repro.sweeps.store import SweepStore

if TYPE_CHECKING:  # the facade imports this module at call time
    from repro.sweeps.api import SweepOptions


@dataclass
class SweepReport:
    """What one :func:`repro.sweeps.run` call did.

    ``failed_ids`` are scenarios quarantined this run (retry budget
    exhausted; see ``failed/<id>.json`` under the store root for the
    exception detail).  ``retried_ids`` are scenarios that needed more
    than one attempt, whether they eventually succeeded or not.
    """

    spec_name: str
    store_root: str
    scenario_ids: List[str]
    executed_ids: List[str] = field(default_factory=list)
    cached_ids: List[str] = field(default_factory=list)
    failed_ids: List[str] = field(default_factory=list)
    retried_ids: List[str] = field(default_factory=list)
    n_workers: int = 1

    @property
    def n_scenarios(self) -> int:
        return len(self.scenario_ids)

    @property
    def n_executed(self) -> int:
        return len(self.executed_ids)

    @property
    def n_cached(self) -> int:
        return len(self.cached_ids)

    @property
    def n_failed(self) -> int:
        return len(self.failed_ids)

    @property
    def n_retried(self) -> int:
        return len(self.retried_ids)


def _execute_attempt(
    store: SweepStore,
    scenario: Scenario,
    attempt: int,
    artifacts: ArtifactCache,
) -> None:
    """One attempt: run the scenario and publish its result.

    The attempt body of both execution strategies: :func:`_inline_sweep`
    calls it in-process, the lease scheduler in its attempt workers.
    """
    with fault_context(scenario.scenario_id, attempt):
        fault_point("scenario.pre")
        result = run_scenario(scenario, artifacts=artifacts)
        fault_point("scenario.post")
        store.put(scenario.scenario_id, result["record"], result["arrays"])


def _inline_sweep(
    groups: Sequence[Sequence[Scenario]],
    store: SweepStore,
    report: SweepReport,
    options: "SweepOptions",
    progress: Optional[Callable[[str, bool], None]] = None,
) -> None:
    """Execute the pending scenarios in this process.

    The inline execution strategy behind :func:`repro.sweeps.run`,
    which hands it the scenarios missing from ``store``, as measurement
    groups, and the report to fill in.  The groups run back to back, in
    the order they come, each in its own order (largest trace ceiling
    first).  Each scenario is attempted up to
    ``options.max_retries + 1`` times with backoff; exhaustion
    quarantines it (``failed/<id>.json``) and the remaining scenarios
    keep executing.  ``progress`` is called as
    ``progress(scenario_id, True)`` as each scenario lands.
    """
    cache = process_artifact_cache()
    log = FailureLog(store.root)
    owner = default_owner()
    for scenario in itertools.chain.from_iterable(groups):
        scenario_id = scenario.scenario_id
        failures = 0
        while True:
            attempt = log.record_attempt(scenario_id, owner)
            try:
                _execute_attempt(store, scenario, attempt, cache)
            except Exception as error:  # noqa: BLE001 — quarantine path
                failures += 1
                delay = log.record_failure(
                    scenario,
                    error_info(error),
                    attempt,
                    failures,
                    options.max_retries,
                    owner,
                )
                if delay is None:
                    report.failed_ids.append(scenario_id)
                    break
                if scenario_id not in report.retried_ids:
                    report.retried_ids.append(scenario_id)
                time.sleep(delay)
            else:
                log.clear_quarantine(scenario_id)
                report.executed_ids.append(scenario_id)
                if progress is not None:
                    progress(scenario_id, True)
                break


def default_workers() -> int:
    """One attempt slot per CPU this process may run on.

    The same count (:func:`~repro.acquisition.bench.usable_cpus`, the
    affinity mask where the OS has one) that sizes each acquisition's
    thread pool, so a default multi-CPU sweep runs on the lease
    scheduler with one persistent attempt worker per CPU.  Each slot
    holds one campaign's traces at a time; pass an explicit worker
    count to bound memory.
    """
    return bench.usable_cpus()


__all__ = [
    "SweepReport",
    "default_workers",
]
