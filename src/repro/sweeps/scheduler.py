"""Lease-based, fault-tolerant scheduling of sweep scenarios.

This is the one multiprocess executor of :func:`repro.sweeps.run`:
every sweep with more than one worker, or with any of
:class:`~repro.sweeps.api.SweepOptions`' ``lease_ttl``,
``scenario_timeout`` or ``status_interval`` set, runs here.  It
is also the robustness substrate under distributed sweep execution:
many scheduler instances (processes or machines) point at one shared
:class:`~repro.sweeps.store.SweepStore` root and together execute a
sweep, surviving worker death, stalls, and repeated failures.

Work units and leases
---------------------

The unit of work is one scenario digest.  Before executing a digest,
a scheduler claims an *atomic lease file*
(``<root>/.leases/<id>.lease`` — a complete claim file hard-linked
into place, so exactly one claimant wins and none sees it half
written) recording the owner id, a heartbeat timestamp and the lease
TTL (:data:`DEFAULT_LEASE_TTL` unless the sweep sets ``lease_ttl``).
While an attempt runs, the scheduler heartbeats the lease every
quarter TTL; a lease whose heartbeat is older than its TTL is *stale* and
any scheduler may reclaim it — a dead worker's scenarios are re-leased
automatically.  Leases are an efficiency mechanism, not a correctness
one: if a paused-but-alive owner is reclaimed and the digest executes
twice, both executions produce byte-identical results and publish them
with atomic, idempotent renames, so the store cannot diverge.

Attempts, retries, quarantine
-----------------------------

Each attempt slot keeps one *persistent worker process*, forked on the
slot's first attempt and handed one attempt at a time over a pipe, so
a crash — ``os._exit``, SIGKILL, OOM — kills the attempt, never the
scheduler, and an optional wall-clock timeout kills a stalled worker.
A worker is reused only after a successful attempt: any failure
(a handled exception, a crash, a timeout) retires it, and its slot
forks a fresh worker for the next attempt, so every retry starts in a
fresh process.  What a reused worker carries from one success to the
next are the process-wide caches (fleet activity, compiled programs,
artifacts) whose contracts keep results byte-identical.  Workers read
a :data:`~repro.sweeps.faultinject.FAULT_PLAN_ENV` fault plan like any
other process, and never outlive the sweep that forked them.

Failed attempts are recorded in ``<root>/.attempts/<id>.json`` (a
persistent history: attempt numbers survive scheduler restarts, which
keeps seeded fault plans deterministic across reruns) and retried up
to ``max_retries`` times per scheduler run, with exponential backoff
(:data:`BACKOFF_BASE` seconds after the first failure, doubling, at
most :data:`BACKOFF_MAX`).  A scenario that exhausts its attempts is
*quarantined*: a ``<root>/failed/<id>.json`` record (exception type,
message, traceback, attempt count) is written and the sweep
**continues** — one poisoned scenario costs its own result, not the
sweep's.  A later run re-attempts quarantined scenarios with a fresh
budget and clears the quarantine record on success, so resume
converges once the cause is gone.  The attempt body and this failure
step (:meth:`FailureLog.record_failure`) are the in-process executor's
own; only the process isolation, leases and timeouts are specific to
this scheduler.  The retry budget is the sweep's one retry setting,
:attr:`~repro.sweeps.api.SweepOptions.max_retries`.

The standing invariant, now tested *under faults*
(:mod:`repro.sweeps.faultinject`): any interleaving of crashes,
retries, timeouts and concurrent schedulers yields a result store
byte-identical to a clean 1-worker run.  Operational metadata
(``.leases/``, ``.attempts/``, ``failed/``) lives beside the results
and is excluded from that identity by construction — result files are
only ever published through the store's atomic, deterministic writes.
"""

from __future__ import annotations

import itertools
import json
import logging
import multiprocessing
import os
import socket
import time
import traceback
import uuid
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.artifacts import process_artifact_cache
from repro.sweeps.spec import Scenario
from repro.sweeps.store import SweepStore

if TYPE_CHECKING:  # the facade and the executor build on this module
    from repro.sweeps.api import SweepOptions
    from repro.sweeps.executor import SweepReport

#: Subdirectories of the store root holding operational metadata.
LEASE_DIR = ".leases"
ATTEMPT_DIR = ".attempts"
FAILED_DIR = "failed"

#: Lease TTL of a lease-scheduled sweep that sets none, in seconds.
DEFAULT_LEASE_TTL = 30.0

#: Backoff after a scenario's n-th failed attempt in one run:
#: ``BACKOFF_BASE * BACKOFF_FACTOR ** (n - 1)`` seconds, at most
#: ``BACKOFF_MAX``.  Read at call time, so tests may patch them.
BACKOFF_BASE = 0.1
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 5.0

#: Longest wait between supervision passes of the lease scheduler
#: (heartbeats, timeouts, backoff, foreign leases), in seconds.  A
#: finished attempt wakes the scheduler at once; this is not a sleep
#: after every completion.  Read at call time, so tests may patch it.
POLL_INTERVAL = 0.05

_logger = logging.getLogger(__name__)


def default_owner() -> str:
    """A unique owner id for one scheduler instance."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


def _atomic_write_json(path: str, payload: object) -> None:
    """Crash-safe JSON write used for all operational metadata."""
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


class LeaseManager:
    """Atomic lease files under ``<root>/.leases/``, one per digest.

    A lease is claimed by hard-linking a complete claim file into
    place — exactly one claimant wins.  Reclaiming a stale lease renames it to a
    per-claimant scratch name first; the rename succeeds for exactly
    one reclaimer, so a stale lease is stolen at most once per expiry.
    Every claim records ``ttl``, and a lease is stale once its
    heartbeat is older than the TTL it records, so a manager that only
    reads or scrubs leases can keep the default.  The directory is made
    by the first claim: reading or scrubbing leaves a root unchanged.
    """

    def __init__(
        self,
        root: str,
        ttl: float = DEFAULT_LEASE_TTL,
        owner: Optional[str] = None,
    ):
        self.root = root
        self.ttl = ttl
        self.owner = owner or default_owner()
        self.dir = os.path.join(root, LEASE_DIR)

    def path(self, scenario_id: str) -> str:
        return os.path.join(self.dir, f"{scenario_id}.lease")

    def read(self, scenario_id: str) -> Optional[dict]:
        """The current lease payload, or None when unleased/corrupt."""
        try:
            with open(self.path(scenario_id)) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            # A torn write by a crashed owner: treat as stale below.
            return {"owner": "?", "heartbeat": 0.0, "ttl": self.ttl}

    def is_stale(self, lease: dict) -> bool:
        ttl = float(lease.get("ttl", self.ttl))
        return time.time() - float(lease.get("heartbeat", 0.0)) > ttl

    def _payload(self) -> dict:
        return {"owner": self.owner, "heartbeat": time.time(), "ttl": self.ttl}

    def acquire(self, scenario_id: str) -> bool:
        """Claim the digest; False when another live owner holds it.

        The claim is written to a scratch file and hard-linked into
        place, which fails when the lease exists.  A lease is therefore
        never visible half-written: a rival reading an empty file would
        take it for a torn, stale lease and steal a live claim.
        """
        path = self.path(scenario_id)
        os.makedirs(self.dir, exist_ok=True)
        for _ in range(3):
            claim = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
            with open(claim, "w") as handle:
                json.dump(self._payload(), handle)
            try:
                os.link(claim, path)
                return True
            except FileExistsError:
                pass
            finally:
                os.unlink(claim)
            lease = self.read(scenario_id)
            if lease is None:
                continue  # released between link and read; retry
            if not self.is_stale(lease):
                return False
            # Steal: exactly one reclaimer wins the rename.
            scratch = f"{path}.stale-{uuid.uuid4().hex[:8]}"
            try:
                os.rename(path, scratch)
            except FileNotFoundError:
                continue  # someone else stole or released it; retry
            os.unlink(scratch)
        return False

    def heartbeat(self, scenario_id: str) -> bool:
        """Refresh our lease; False when we no longer own it."""
        lease = self.read(scenario_id)
        if lease is None or lease.get("owner") != self.owner:
            return False
        _atomic_write_json(self.path(scenario_id), self._payload())
        return True

    def release(self, scenario_id: str) -> None:
        try:
            os.unlink(self.path(scenario_id))
        except FileNotFoundError:
            pass

    def scrub(self) -> List[str]:
        """Remove expired leases and reclaim scratch; returns paths."""
        removed: List[str] = []
        if not os.path.isdir(self.dir):
            return removed
        for entry in sorted(os.listdir(self.dir)):
            path = os.path.join(self.dir, entry)
            if not os.path.isfile(path):
                continue
            if ".stale-" in entry or entry.endswith(".tmp") or ".tmp-" in entry:
                os.unlink(path)
                removed.append(path)
                continue
            if entry.endswith(".lease"):
                lease = self.read(entry[: -len(".lease")])
                if lease is not None and self.is_stale(lease):
                    os.unlink(path)
                    removed.append(path)
        return removed


def error_info(error: BaseException) -> Dict[str, object]:
    """JSON-able description of one failure."""
    return {
        "type": type(error).__name__,
        "message": str(error),
        "traceback": traceback.format_exc(),
    }


class FailureLog:
    """Attempt history and quarantine records beside the store.

    ``.attempts/<id>.json`` holds the persistent list of attempts
    (owner, start time, error once known) — attempt *numbers* are
    global across runs and schedulers, which keeps seeded fault plans
    and backoff deterministic under restart.  ``failed/<id>.json`` is
    the quarantine record of a scenario that exhausted its retry
    budget; it is cleared the moment the scenario later succeeds.
    """

    def __init__(self, root: str):
        self.root = root
        self.attempts_dir = os.path.join(root, ATTEMPT_DIR)
        self.failed_dir = os.path.join(root, FAILED_DIR)

    def attempts_path(self, scenario_id: str) -> str:
        return os.path.join(self.attempts_dir, f"{scenario_id}.json")

    def failed_path(self, scenario_id: str) -> str:
        return os.path.join(self.failed_dir, f"{scenario_id}.json")

    # -- attempts --------------------------------------------------------

    def history(self, scenario_id: str) -> List[dict]:
        try:
            with open(self.attempts_path(scenario_id)) as handle:
                return list(json.load(handle))
        except (FileNotFoundError, ValueError):
            return []

    def record_attempt(self, scenario_id: str, owner: str) -> int:
        """Append an attempt-start entry; returns its 1-based number.

        Only the lease holder (or the single executor thread working
        this digest) writes here, so read-modify-write is safe.
        """
        os.makedirs(self.attempts_dir, exist_ok=True)
        history = self.history(scenario_id)
        history.append({"owner": owner, "started": time.time(), "error": None})
        _atomic_write_json(self.attempts_path(scenario_id), history)
        return len(history)

    def record_error(self, scenario_id: str, error: Dict[str, object]) -> None:
        """Attach the failure detail to the latest attempt entry."""
        history = self.history(scenario_id)
        if history:
            history[-1]["error"] = error
            _atomic_write_json(self.attempts_path(scenario_id), history)

    def record_failure(
        self,
        scenario: Scenario,
        error: Dict[str, object],
        attempt: int,
        failures: int,
        max_retries: int,
        owner: str,
    ) -> Optional[float]:
        """The failure step shared by both executors.

        Attaches ``error`` to the latest attempt entry; ``failures``
        counts this run's failed attempts of the scenario, this one
        included.  Once it exceeds ``max_retries`` (a scenario gets
        ``max_retries + 1`` attempts per run) the scenario is
        quarantined as of ``attempt`` and ``None`` is returned;
        otherwise the backoff delay before the next attempt.  Callers
        holding a lease release it only after this returns, so no other
        owner writes the history meanwhile.
        """
        self.record_error(scenario.scenario_id, error)
        if failures > max_retries:
            self.quarantine(scenario, error, attempt, owner)
            return None
        return min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR ** (failures - 1))

    # -- quarantine ------------------------------------------------------

    def quarantine(
        self,
        scenario: Scenario,
        error: Dict[str, object],
        attempts: int,
        owner: str,
    ) -> None:
        os.makedirs(self.failed_dir, exist_ok=True)
        _atomic_write_json(
            self.failed_path(scenario.scenario_id),
            {
                "scenario_id": scenario.scenario_id,
                "overrides": dict(scenario.overrides),
                "attempts": attempts,
                "owner": owner,
                "quarantined_at": time.time(),
                "error": error,
            },
        )

    def load_quarantine(self, scenario_id: str) -> Optional[dict]:
        try:
            with open(self.failed_path(scenario_id)) as handle:
                return json.load(handle)
        except (FileNotFoundError, ValueError):
            return None

    def quarantined_ids(self) -> List[str]:
        if not os.path.isdir(self.failed_dir):
            return []
        return sorted(
            entry[: -len(".json")]
            for entry in os.listdir(self.failed_dir)
            if entry.endswith(".json")
        )

    def clear_quarantine(self, scenario_id: str) -> None:
        try:
            os.unlink(self.failed_path(scenario_id))
        except FileNotFoundError:
            pass

    def scrub(self, store: SweepStore) -> List[str]:
        """Remove scratch files and quarantines of completed work.

        Scratch includes the ``<id>.err-<n>.json`` error files that
        schedulers before persistent workers left on a crash.
        """
        removed: List[str] = []
        if os.path.isdir(self.attempts_dir):
            for entry in sorted(os.listdir(self.attempts_dir)):
                if ".err-" in entry or ".tmp-" in entry:
                    path = os.path.join(self.attempts_dir, entry)
                    os.unlink(path)
                    removed.append(path)
        for scenario_id in self.quarantined_ids():
            if store.has(scenario_id):
                path = self.failed_path(scenario_id)
                os.unlink(path)
                removed.append(path)
        return removed


def scrub(store: SweepStore) -> List[str]:
    """Remove a store root's crash residue; returns the removed paths.

    That is the store's own scratch (:meth:`SweepStore.scrub`), expired
    leases and lease scratch, attempt scratch and the quarantines of
    completed scenarios.  Run it only while no sweep writes to the
    root: CLI ``sweep --scrub`` and the service's ``POST /admin/scrub``
    do.  It creates nothing, so an inline store stays lease-free.
    """
    removed = store.scrub()
    removed += LeaseManager(store.root).scrub()
    removed += FailureLog(store.root).scrub(store)
    return removed


# -- persistent attempt workers ---------------------------------------------


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, inherits warm caches); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _attempt_worker(conn: Connection, store_root: str) -> None:
    """Serve attempts sent over ``conn`` until told to stop.

    Each message is ``(scenario, attempt)``.  The worker runs the
    in-process executor's attempt body and replies ``None`` on success,
    or the :func:`error_info` of a handled failure and then exits, so
    a failed attempt never leaves its process to the next one.  A crash
    is communicated by the exit code alone; ``None`` asks it to stop.

    The worker also exits once the scheduler is gone.  Fork copies the
    scheduler's end of every pipe into the workers forked after it, so
    a pipe that never reaches EOF would not tell; the parent-process
    sentinel does.
    """
    # Lazy import: the executor builds on this module.
    from repro.sweeps.executor import _execute_attempt

    store = SweepStore(store_root)
    scheduler = multiprocessing.parent_process().sentinel
    while scheduler not in wait([conn, scheduler]):
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        scenario, attempt = task
        reply = None
        try:
            artifacts = process_artifact_cache()
            _execute_attempt(store, scenario, attempt, artifacts)
        except Exception as error:  # noqa: BLE001 — the whole point
            reply = error_info(error)
        try:
            conn.send(reply)
        except OSError:
            return  # the scheduler is gone
        if reply is not None:
            return


@dataclass
class _Worker:
    """The scheduler's handle on one persistent attempt worker.

    ``group`` is the index of the measurement group of the attempt it
    was sent last, whose traces its artifact cache holds; ``None`` until
    its first attempt.
    """

    process: multiprocessing.process.BaseProcess
    conn: Connection
    group: Optional[int] = None

    @classmethod
    def start(cls, store_root: str) -> "_Worker":
        ctx = _pool_context()
        conn, worker_conn = ctx.Pipe()
        # Daemonic: an interpreter that exits while a sweep runs (a
        # service's job thread) terminates the worker instead of
        # waiting for it.
        process = ctx.Process(
            target=_attempt_worker,
            args=(worker_conn, store_root),
            daemon=True,
        )
        process.start()
        worker_conn.close()
        return cls(process, conn)

    def send(self, scenario: Scenario, attempt: int) -> None:
        try:
            self.conn.send((scenario, attempt))
        except OSError:
            pass  # it died while idle; reaped as a crash

    def attempt_ended(self) -> bool:
        """True once the attempt in flight replied or its worker died."""
        return self.conn.poll() or not self.process.is_alive()

    def reply(self) -> Optional[Dict[str, object]]:
        """The ended attempt's error, ``None`` for success.

        A worker that died without replying is a ``WorkerCrash``.
        """
        try:
            if self.conn.poll():
                return self.conn.recv()
        except EOFError:
            pass
        self.process.join()
        return {
            "type": "WorkerCrash",
            "message": (
                "attempt process died with exit code "
                f"{self.process.exitcode} before completing"
            ),
            "traceback": "",
        }

    def stop(self, kill: bool = False) -> None:
        """Stop and reap the worker; ``kill`` one that is mid-attempt."""
        if kill:
            self.process.kill()
        else:
            try:
                self.conn.send(None)
            except OSError:
                pass  # already exited
        self.process.join()
        self.conn.close()


@dataclass
class _Running:
    worker: _Worker
    scenario: Scenario
    attempt: int
    deadline: Optional[float]
    next_heartbeat: float


def _scheduled_sweep(
    groups: Sequence[Sequence[Scenario]],
    store: SweepStore,
    report: "SweepReport",
    sweep: "SweepOptions",
    progress: Optional[Callable[[str, bool], None]] = None,
) -> None:
    """Execute the pending scenarios, given as measurement ``groups``,
    under lease scheduling.

    This is the multiprocess execution strategy behind the unified
    :func:`repro.sweeps.run` facade, selected by
    :attr:`~repro.sweeps.api.SweepOptions.lease_scheduled`.  Leases
    live ``sweep.lease_ttl`` seconds (:data:`DEFAULT_LEASE_TTL` when
    unset) and are heartbeated every quarter of that.

    Safe to run concurrently with other lease-scheduled sweeps (other
    processes, other machines over a shared filesystem) on the same
    store root: leases keep the instances off each other's work,
    stale-lease reclamation absorbs dead instances, and the store's
    idempotent atomic writes make even a duplicated execution
    harmless.  Each of the ``sweep.n_workers`` attempt slots runs the
    in-process executor's attempt body in a persistent worker process,
    so worker crashes and timeouts are contained and retried up to
    ``sweep.max_retries`` times; scenarios that exhaust their budget are
    quarantined under ``failed/`` and the sweep continues.  Every
    worker is stopped, and the leases of attempts still in flight
    released, on any exit — including an exception from ``progress``.

    Fills in the facade's ``report``: executed, failed and retried
    ids, and as cached the scenarios completed by *another* scheduler
    while this one waited.

    Each worker's process-wide artifact cache (a forked worker starts
    from a copy of this process's) keeps one measurement group's traces
    between attempts, and workers share nothing but the store: each
    acquires the groups it runs.  So a free slot looks at the due
    scenarios it can lease in the order :func:`repro.sweeps.run` hands
    them over (groups in order, each largest trace ceiling first) and
    takes the first one of the group its worker ran last; else the
    first one of a group no running attempt holds; else the first one,
    so a one-group sweep still keeps every slot busy.  A fresh worker,
    such as the replacement of a retired one, has no group.  Leases
    stay per scenario: only the order changes.
    """
    lease_ttl = sweep.lease_ttl or DEFAULT_LEASE_TTL
    heartbeat = lease_ttl / 4.0
    owner = default_owner()
    leases = LeaseManager(store.root, lease_ttl, owner)
    log = FailureLog(store.root)
    # The scenarios of each group still waiting for a success or a
    # quarantine, in handed-over order; a group leaves once it has none.
    pending: Dict[int, Dict[str, Scenario]] = {
        index: {s.scenario_id: s for s in group}
        for index, group in enumerate(groups)
        if group
    }

    running: Dict[str, _Running] = {}
    # Workers whose last attempt succeeded, ready for the next one.
    idle: List[_Worker] = []
    failures_this_run: Dict[str, int] = {}
    next_due: Dict[str, float] = {}
    next_status = (
        time.monotonic() + sweep.status_interval
        if sweep.status_interval is not None
        else None
    )

    def log_status() -> None:
        # Lazy import: repro.sweeps.status builds on this module.
        from repro.sweeps.status import render_status, sweep_status

        snapshot = sweep_status(store.root, scenario_ids=report.scenario_ids)
        _logger.info(
            "sweep %r [%s]: %s", report.spec_name, owner, render_status(snapshot)
        )

    def settle(group: int, scenario_id: str) -> None:
        del pending[group][scenario_id]
        if not pending[group]:
            del pending[group]

    def claim(last_group: Optional[int]) -> Optional[Tuple[int, Scenario]]:
        """Lease the next scenario of a slot whose worker ran
        ``last_group`` last: the first due one no live owner holds, of
        that group, else of a group no running attempt holds, else of
        any group.  Returns it with its group, or ``None``."""
        held = {run.worker.group for run in running.values()}
        order = itertools.chain(
            [last_group] if last_group in pending else [],
            (group for group in pending if group not in held),
            (group for group in pending if group in held),
        )
        now = time.monotonic()
        for group in order:
            for scenario_id, scenario in pending[group].items():
                if (
                    scenario_id not in running
                    and now >= next_due.get(scenario_id, 0.0)
                    and leases.acquire(scenario_id)
                ):
                    return group, scenario
        return None

    def attempt_failed(scenario_id: str, run: _Running, error) -> None:
        failures = failures_this_run.get(scenario_id, 0) + 1
        failures_this_run[scenario_id] = failures
        delay = log.record_failure(
            run.scenario, error, run.attempt, failures, sweep.max_retries, owner
        )
        leases.release(scenario_id)
        del running[scenario_id]
        if delay is None:
            report.failed_ids.append(scenario_id)
            settle(run.worker.group, scenario_id)
        else:
            if scenario_id not in report.retried_ids:
                report.retried_ids.append(scenario_id)
            next_due[scenario_id] = time.monotonic() + delay

    try:
        while pending:
            progressed = False

            # Reap / supervise running attempts.
            for scenario_id in list(running):
                run = running[scenario_id]
                worker = run.worker
                if not worker.attempt_ended():
                    now = time.monotonic()
                    if run.deadline is not None and now >= run.deadline:
                        worker.stop(kill=True)
                        attempt_failed(
                            scenario_id,
                            run,
                            {
                                "type": "ScenarioTimeout",
                                "message": (
                                    "attempt exceeded the scenario timeout of "
                                    f"{sweep.scenario_timeout}s and was killed"
                                ),
                                "traceback": "",
                            },
                        )
                        progressed = True
                    elif now >= run.next_heartbeat:
                        leases.heartbeat(scenario_id)
                        run.next_heartbeat = now + heartbeat
                    continue
                error = worker.reply()
                if error is None:
                    idle.append(worker)
                else:
                    worker.stop()  # any failure retires the worker
                if error is None or store.has(scenario_id):
                    leases.release(scenario_id)
                    log.clear_quarantine(scenario_id)
                    del running[scenario_id]
                    settle(worker.group, scenario_id)
                    report.executed_ids.append(scenario_id)
                    if progress is not None:
                        progress(scenario_id, True)
                else:
                    attempt_failed(scenario_id, run, error)
                progressed = True

            # Fill free worker slots; a scenario under a live owner's
            # lease is waited on, or reclaimed once the lease is stale.
            while len(running) < sweep.n_workers:
                claimed = claim(idle[-1].group if idle else None)
                if claimed is None:
                    break
                group, scenario = claimed
                scenario_id = scenario.scenario_id
                if store.has(scenario_id):
                    # Another scheduler finished it while we waited.  Its
                    # record lands before its lease is released, so this
                    # check under our lease cannot miss it.
                    leases.release(scenario_id)
                    settle(group, scenario_id)
                    report.cached_ids.append(scenario_id)
                    if progress is not None:
                        progress(scenario_id, False)
                    progressed = True
                    continue
                attempt = log.record_attempt(scenario_id, owner)
                worker = idle.pop() if idle else _Worker.start(store.root)
                worker.group = group
                start = time.monotonic()
                running[scenario_id] = _Running(
                    worker=worker,
                    scenario=scenario,
                    attempt=attempt,
                    deadline=(
                        start + sweep.scenario_timeout
                        if sweep.scenario_timeout is not None
                        else None
                    ),
                    next_heartbeat=start + heartbeat,
                )
                worker.send(scenario, attempt)
                progressed = True

            if next_status is not None and time.monotonic() >= next_status:
                log_status()
                next_status = time.monotonic() + sweep.status_interval

            if pending and not progressed:
                # Wake on the first reply or worker death; the timeout
                # bounds the wait for heartbeats, deadlines and backoff.
                wait(
                    [
                        handle
                        for run in running.values()
                        for handle in (run.worker.conn, run.worker.process.sentinel)
                    ],
                    POLL_INTERVAL,
                )
    finally:
        for worker in idle:
            worker.stop()
        for scenario_id, run in running.items():
            run.worker.stop(kill=True)
            leases.release(scenario_id)

    if next_status is not None:
        log_status()


__all__ = [
    "ATTEMPT_DIR",
    "DEFAULT_LEASE_TTL",
    "FAILED_DIR",
    "LEASE_DIR",
    "FailureLog",
    "LeaseManager",
    "default_owner",
    "error_info",
    "scrub",
]
