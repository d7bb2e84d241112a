"""Background sweep jobs: content-addressed ids, lease-scheduled runs.

A *job* is one submitted :class:`~repro.sweeps.spec.SweepSpec`
executing through the body of the unified :func:`repro.sweeps.run`
facade, on the job's own expansion of the spec, in a daemon thread.  Two properties make jobs safe and cheap by
construction:

* **Content-addressed identity.**  A job id is a digest of the spec's
  canonical JSON wire format, so resubmitting the same spec names the
  same job.  While that job is running, resubmission joins it instead
  of starting a second execution; after it finished, resubmission
  starts a fresh run whose scenarios are all already in the
  content-addressed store — it completes in roughly the time it takes
  to check (the "repeated questions are ~free" tier).

* **Lease-scheduled execution.**  The service always routes jobs
  through the lease scheduler (its options always set
  :attr:`~repro.sweeps.api.SweepOptions.lease_ttl`), so any number
  of service instances may point at one store root: leases keep their
  workers off each other's scenarios, a dead instance's leases expire,
  and results publish through idempotent atomic writes — every
  scenario digest is executed exactly once across the fleet in the
  healthy case, and duplicated execution is harmless in every other.

An instance keeps at most :data:`MAX_FINISHED_JOBS` finished jobs (each
holds its expanded scenario list); older ones are forgotten, and their
ids answer 404 like any unknown id — resubmitting the spec re-runs it
from the store.
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.sweeps.api import SweepOptions, _run_expanded
from repro.sweeps.executor import SweepReport
from repro.sweeps.scheduler import error_info
from repro.sweeps.spec import Scenario, SweepSpec, canonical_json, expand_scenarios
from repro.sweeps.status import SweepStatus, sweep_status
from repro.sweeps.store import SweepStore

_logger = logging.getLogger(__name__)

#: Job states: ``running`` → exactly one of the terminal three.
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_QUARANTINED = "quarantined"  # finished, but some scenarios failed
JOB_ERROR = "error"  # the run itself raised (store unwritable, ...)

#: Jobs one instance keeps once they end, counting the one a submit
#: starts: each submit forgets the oldest terminal jobs beyond it, and
#: their ids answer 404.  Read at call time.
MAX_FINISHED_JOBS = 64


def job_id_for(spec: SweepSpec) -> str:
    """Deterministic job id: digest of the spec's canonical wire form."""
    return hashlib.sha256(
        canonical_json(spec.to_json_dict()).encode()
    ).hexdigest()[:16]


class SweepJob:
    """One background execution of a spec against the shared store."""

    def __init__(
        self,
        job_id: str,
        spec: SweepSpec,
        options: SweepOptions,
        store_root: str,
    ):
        self.job_id = job_id
        self.spec = spec
        self.options = options
        self.store_root = store_root
        self.scenarios: List[Scenario] = expand_scenarios(spec)
        self.scenario_ids: List[str] = [s.scenario_id for s in self.scenarios]
        self.state = JOB_RUNNING
        self.report: Optional[SweepReport] = None
        self.error: Optional[Dict[str, object]] = None
        self.submitted_at = time.time()
        self.finished_at: Optional[float] = None
        #: Row streams waiting for progress, with the loop each runs on.
        self._waiters: Dict[asyncio.Event, asyncio.AbstractEventLoop] = {}
        self._waiters_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._execute, name=f"sweep-job-{job_id}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    @property
    def running(self) -> bool:
        return self.state == JOB_RUNNING

    # -- change notification -------------------------------------------

    def subscribe(self) -> asyncio.Event:
        """An event of the running loop, set whenever the job progresses.

        The job thread sets it once per scenario that lands (executed or
        found cached) and once more after the job reaches a terminal
        state.  Pair with :meth:`unsubscribe`.
        """
        event = asyncio.Event()
        with self._waiters_lock:
            self._waiters[event] = asyncio.get_running_loop()
        return event

    def unsubscribe(self, event: asyncio.Event) -> None:
        with self._waiters_lock:
            self._waiters.pop(event, None)

    def _notify(self, *_: object) -> None:
        """Wake every subscriber; one whose loop has closed is dropped."""
        with self._waiters_lock:
            waiters = list(self._waiters.items())
        for event, loop in waiters:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:  # the loop is closed
                self.unsubscribe(event)

    def _execute(self) -> None:
        try:
            report = _run_expanded(
                self.spec,
                self.scenarios,
                SweepStore(self.store_root),
                self.options,
                progress=self._notify,
            )
        except Exception as error:  # noqa: BLE001 — surfaced via the API
            self.error = error_info(error)
            self.state = JOB_ERROR
            _logger.exception("job %s failed", self.job_id)
        else:
            self.report = report
            self.state = JOB_QUARANTINED if report.failed_ids else JOB_DONE
            _logger.info(
                "job %s finished: %d executed, %d cached, %d quarantined",
                self.job_id,
                report.n_executed,
                report.n_cached,
                report.n_failed,
            )
        finally:
            self.finished_at = time.time()
            self._notify()

    def status(self) -> SweepStatus:
        """Live progress snapshot scoped to this job's scenarios."""
        return sweep_status(self.store_root, scenario_ids=self.scenario_ids)

    def describe(self, status: Optional[SweepStatus] = None) -> Dict[str, object]:
        """The job's JSON form for API responses."""
        payload: Dict[str, object] = {
            "job_id": self.job_id,
            "name": self.spec.name,
            "state": self.state,
            "n_scenarios": len(self.scenario_ids),
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }
        if status is not None:
            payload["status"] = status.to_json_dict()
        if self.report is not None:
            payload["report"] = {
                "executed": self.report.n_executed,
                "cached": self.report.n_cached,
                "failed_ids": list(self.report.failed_ids),
                "retried_ids": list(self.report.retried_ids),
            }
        if self.error is not None:
            payload["error"] = dict(self.error)
        return payload


class JobManager:
    """The set of jobs one service instance has accepted."""

    def __init__(self, store_root: str):
        self.store_root = store_root
        self._jobs: Dict[str, SweepJob] = {}
        self._lock = threading.Lock()

    async def submit(
        self, spec: SweepSpec, options: SweepOptions
    ) -> Tuple[SweepJob, bool]:
        """Start (or join) the job for ``spec``.

        Returns ``(job, created)``: ``created`` is False when an
        identical spec is already running here and the caller joined
        it.  A terminal job is replaced by a fresh run — ~free when
        its results are all still in the store.  A created job counts
        toward :data:`MAX_FINISHED_JOBS`: the oldest terminal jobs
        beyond it are forgotten, and running jobs always stay.  A spec
        that does not expand raises its
        :class:`~repro.sweeps.spec.SpecValidationError` and starts
        nothing.

        The spec expands in a worker thread, holding no lock, so the
        loop's other routes answer meanwhile; the job is registered
        and started back on the loop, where a scrub cannot overlap it.
        """
        job_id = job_id_for(spec)
        existing = self.get(job_id)
        if existing is not None and existing.running:
            return existing, False
        job = await asyncio.to_thread(SweepJob, job_id, spec, options, self.store_root)
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None and existing.running:
                # An identical submission started it meanwhile.
                return existing, False
            self._jobs[job_id] = job
            finished = sorted(
                (old for old in self._jobs.values() if not old.running),
                key=lambda old: old.submitted_at,
            )
            for old in finished[: max(0, len(finished) - MAX_FINISHED_JOBS + 1)]:
                del self._jobs[old.job_id]
            job.start()
            _logger.info(
                "job %s submitted: %r, %d scenarios",
                job_id,
                spec.name,
                len(job.scenario_ids),
            )
            return job, True

    def get(self, job_id: str) -> Optional[SweepJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[SweepJob]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_at)

    def n_running(self) -> int:
        with self._lock:
            return sum(1 for job in self._jobs.values() if job.running)


__all__ = [
    "JOB_DONE",
    "JOB_ERROR",
    "JOB_QUARANTINED",
    "JOB_RUNNING",
    "MAX_FINISHED_JOBS",
    "JobManager",
    "SweepJob",
    "job_id_for",
]
