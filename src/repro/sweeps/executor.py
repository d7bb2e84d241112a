"""Multiprocess sweep execution with incremental resume and graceful
degradation.

This is the *in-process* execution strategy behind the unified
:func:`repro.sweeps.run` facade (selected when
:attr:`~repro.sweeps.api.SweepOptions.scheduler` is unset): it expands
a :class:`~repro.sweeps.spec.SweepSpec`, skips every scenario already
present in the :class:`~repro.sweeps.store.SweepStore`, and executes
the missing ones — inline for ``n_workers <= 1``, otherwise on a
``multiprocessing`` pool in chunked work units.  The lease-based
strategy lives in :mod:`repro.sweeps.scheduler`; its attempt workers
run this module's attempt body (:func:`_execute_attempt`) and both
strategies share one failure step
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
backoff per the :class:`~repro.sweeps.scheduler.RetryPolicy` (attempt
numbers persist in ``.attempts/`` beside the store, so seeded fault
plans stay deterministic across runs), and a scenario that exhausts
its budget is quarantined as a ``failed/<id>.json`` record — the sweep
continues and the loss surfaces in :attr:`SweepReport.failed_ids`
instead of discarding every sibling's progress.  Retries rewrite
results through the store's idempotent atomic publishes, so a
retried, crashed or duplicated execution still converges on a store
byte-identical to a clean single-worker run — the invariant is
exercised under injected faults (:mod:`repro.sweeps.faultinject`) by
the tier-1 suite and CI's chaos smoke job.

Artifact sharing: passing ``artifacts=``
:class:`~repro.experiments.artifacts.ArtifactOptions` gives every
worker a process-wide :class:`~repro.experiments.artifacts.ArtifactCache`,
so scenarios that differ only in analysis-side axes reuse one fleet
manufacture and one trace acquisition — byte-identically, because
acquisition streams are keyed per device, never sequential — and whole
campaign outcomes are memoised on the analysis key, so a re-run study
(same scenarios, fresh store) skips re-analysis entirely.  An options
``root`` adds a shared on-disk tier, which is how *separate worker
processes* (and separate runs) meet: the first worker to need an
artifact persists it, the rest load it.

Chunking walks the expansion order, which groups scenarios that share
a fleet structure; inside one worker chunk the process-wide activity,
compiled-program and artifact caches then make consecutive scenarios
cheap.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.experiments.artifacts import (
    ArtifactCache,
    ArtifactOptions,
    process_artifact_cache,
)
from repro.sweeps.faultinject import fault_context, fault_point
from repro.sweeps.scenario import run_scenario
from repro.sweeps.scheduler import (
    FailureLog,
    RetryPolicy,
    default_owner,
    error_info,
)
from repro.sweeps.spec import Scenario, SweepSpec, expand_scenarios
from repro.sweeps.store import SweepStore

#: Chunks per worker the pending list is split into (larger = better
#: load balancing, smaller = better cache locality inside a chunk).
CHUNKS_PER_WORKER = 4


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
    artifacts: Optional[ArtifactCache],
) -> None:
    """One attempt: run the scenario and publish its result.

    The attempt body of both execution strategies: the loop below calls
    it in-process, the lease scheduler in its attempt workers.
    """
    with fault_context(scenario.scenario_id, attempt):
        fault_point("scenario.pre")
        result = run_scenario(scenario, artifacts=artifacts)
        fault_point("scenario.post")
        store.put(scenario.scenario_id, result["record"], result["arrays"])


def _run_scenarios(
    store_root: str,
    scenarios: Sequence[Scenario],
    artifacts: Optional[ArtifactCache] = None,
    progress: Optional[Callable[[str, bool], None]] = None,
    retry: Optional[RetryPolicy] = None,
) -> Tuple[List[str], List[str], List[str]]:
    """Execute a batch of scenarios into the store.

    Returns ``(executed, failed, retried)`` scenario-id lists.  This is
    the one execution body shared by the inline path (all pending
    scenarios) and by each multiprocess worker (its chunk).

    Each scenario is attempted up to ``retry.max_attempts`` times with
    backoff; exhaustion quarantines it (``failed/<id>.json``) and the
    remaining scenarios keep executing.
    """
    store = SweepStore(store_root)
    log = FailureLog(store_root)
    owner = default_owner()
    retry = retry or RetryPolicy()
    executed: List[str] = []
    failed: List[str] = []
    retried: List[str] = []
    for scenario in scenarios:
        scenario_id = scenario.scenario_id
        failures = 0
        while True:
            attempt = log.record_attempt(scenario_id, owner)
            try:
                _execute_attempt(store, scenario, attempt, artifacts)
            except Exception as error:  # noqa: BLE001 — quarantine path
                failures += 1
                delay = log.record_failure(
                    scenario, error_info(error), attempt, failures, retry, owner
                )
                if delay is None:
                    failed.append(scenario_id)
                    break
                if scenario_id not in retried:
                    retried.append(scenario_id)
                time.sleep(delay)
            else:
                log.clear_quarantine(scenario_id)
                executed.append(scenario_id)
                if progress is not None:
                    progress(scenario_id, True)
                break
    return executed, failed, retried


def _pool_worker(
    payload: Tuple[
        str,
        Tuple[Scenario, ...],
        Optional[ArtifactOptions],
        Optional[RetryPolicy],
    ]
) -> Tuple[List[str], List[str], List[str]]:
    """Module-level pool target (must be picklable on every start method).

    Never lets an exception escape into ``imap_unordered`` — a
    chunk-level catastrophe (store root unwritable, artifact tier
    corrupt, ...) would otherwise abort the whole sweep and discard
    every sibling chunk's progress report.  Instead the unfinished
    scenarios of the chunk are quarantined and reported as failed.
    """
    store_root, scenarios, options, retry = payload
    try:
        artifacts = process_artifact_cache(options) if options is not None else None
        return _run_scenarios(store_root, scenarios, artifacts, retry=retry)
    except Exception as error:  # noqa: BLE001 — chunk-level catastrophe
        store = SweepStore(store_root)
        log = FailureLog(store_root)
        owner = default_owner()
        executed = [s.scenario_id for s in scenarios if store.has(s.scenario_id)]
        failed = []
        for scenario in scenarios:
            if not store.has(scenario.scenario_id):
                log.quarantine(scenario, error_info(error), 0, owner)
                failed.append(scenario.scenario_id)
        return executed, failed, []


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, inherits warm caches); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def default_workers() -> int:
    """A sensible worker count for this machine (half the cores, >= 1)."""
    return max(1, (os.cpu_count() or 2) // 2)


def _plain_sweep(
    spec: SweepSpec,
    store: SweepStore,
    n_workers: int = 1,
    progress: Optional[Callable[[str, bool], None]] = None,
    artifacts: Optional[ArtifactOptions] = None,
    retry: Optional[RetryPolicy] = None,
) -> SweepReport:
    """The in-process execution strategy behind :func:`repro.sweeps.run`.

    ``progress`` (if given) is called as ``progress(scenario_id,
    executed)`` once per scenario — immediately for cache hits, on
    completion for executed ones (chunk-batched under multiprocess
    execution).  ``artifacts`` enables cross-scenario artifact sharing
    and campaign-outcome memoisation — results are byte-identical with
    it on or off.

    ``retry`` bounds per-scenario attempts and backoff (default: the
    stock :class:`~repro.sweeps.scheduler.RetryPolicy`); a scenario
    that exhausts it is quarantined and the sweep continues.  Returns
    a :class:`SweepReport`; aggregate results are read back from the
    store (see :mod:`repro.sweeps.aggregate`).
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    scenarios = expand_scenarios(spec)
    report = SweepReport(
        spec_name=spec.name,
        store_root=store.root,
        scenario_ids=[s.scenario_id for s in scenarios],
        n_workers=n_workers,
    )
    pending: List[Scenario] = []
    for scenario in scenarios:
        if store.has(scenario.scenario_id):
            report.cached_ids.append(scenario.scenario_id)
            if progress is not None:
                progress(scenario.scenario_id, False)
        else:
            pending.append(scenario)

    if not pending:
        return report

    if n_workers == 1 or len(pending) == 1:
        cache = process_artifact_cache(artifacts) if artifacts is not None else None
        executed, failed, retried = _run_scenarios(
            store.root, pending, cache, progress=progress, retry=retry
        )
        report.executed_ids.extend(executed)
        report.failed_ids.extend(failed)
        report.retried_ids.extend(retried)
    else:
        n_procs = min(n_workers, len(pending))
        chunksize = max(1, len(pending) // (n_procs * CHUNKS_PER_WORKER))
        chunks = [
            tuple(pending[start:start + chunksize])
            for start in range(0, len(pending), chunksize)
        ]
        payloads = [(store.root, chunk, artifacts, retry) for chunk in chunks]
        with _pool_context().Pool(processes=n_procs) as worker_pool:
            for executed, failed, retried in worker_pool.imap_unordered(
                _pool_worker, payloads, chunksize=1
            ):
                report.executed_ids.extend(executed)
                report.failed_ids.extend(failed)
                report.retried_ids.extend(retried)
                if progress is not None:
                    for scenario_id in executed:
                        progress(scenario_id, True)
    # Keep reporting deterministic regardless of completion order.
    report.executed_ids.sort()
    report.failed_ids.sort()
    report.retried_ids.sort()
    return report


__all__ = [
    "CHUNKS_PER_WORKER",
    "SweepReport",
    "default_workers",
]
