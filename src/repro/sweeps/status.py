"""One shared snapshot of a sweep's execution state on disk.

Everything a sweep does is visible in the store root: completed
results (``<id>.json`` records), live leases (``.leases/``), attempt
history (``.attempts/``) and quarantines (``failed/``).
:func:`sweep_status` reads those four surfaces into one
:class:`SweepStatus` value — the *same* snapshot code backs the
service's ``GET /sweeps/{id}`` poll endpoint, the CLI's post-run
summary line and the scheduler's periodic log lines, so an operator
sees identical numbers whichever window they look through.

The snapshot is advisory by design: it is computed from plain
directory reads with no locking, so counts taken while writers are
active can be momentarily inconsistent with each other (a scenario
may complete between the store scan and the lease scan).  That is the
right trade for a poll endpoint — cheap, lock-free, and convergent
the moment the sweep settles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.sweeps.scheduler import FailureLog, LeaseManager
from repro.sweeps.store import SweepStore


@dataclass(frozen=True)
class SweepStatus:
    """Counts describing one sweep's progress over a store root.

    ``total``/``pending`` are only known when the caller scopes the
    snapshot to a scenario-id set (a spec expansion); an unscoped
    snapshot describes the whole store root and leaves them ``None``.
    ``leased`` counts live (non-stale) leases — in-flight work some
    scheduler instance owns right now.  ``retried`` counts scenarios
    whose persistent attempt history records more than one attempt;
    ``attempts`` is the total number of attempts ever recorded.
    """

    completed: int
    quarantined: int
    leased: int
    attempts: int
    retried: int
    total: Optional[int] = None
    pending: Optional[int] = None

    @property
    def done(self) -> bool:
        """True when every known scenario completed or quarantined."""
        return self.pending is not None and self.pending == 0

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "completed": self.completed,
            "quarantined": self.quarantined,
            "leased": self.leased,
            "attempts": self.attempts,
            "retried": self.retried,
            "total": self.total,
            "pending": self.pending,
        }


def sweep_status(
    store_root: str,
    scenario_ids: Optional[Sequence[str]] = None,
) -> SweepStatus:
    """Snapshot the execution state of ``store_root``.

    ``scenario_ids`` scopes every count to one sweep's expansion (and
    makes ``total``/``pending`` known); without it the snapshot covers
    everything in the root, which may mix several sweeps.  A lease is
    live while its heartbeat is younger than the TTL it carries (every
    lease this code writes carries one; a torn lease reads as stale).
    """
    store = SweepStore(store_root)
    log = FailureLog(store_root)
    wanted = set(scenario_ids) if scenario_ids is not None else None

    def scoped(ids: List[str]) -> List[str]:
        if wanted is None:
            return ids
        return [scenario_id for scenario_id in ids if scenario_id in wanted]

    completed = scoped(store.ids())
    quarantined = scoped(log.quarantined_ids())

    leased = 0
    leases = LeaseManager(store_root)
    if os.path.isdir(leases.dir):
        for entry in sorted(os.listdir(leases.dir)):
            if not entry.endswith(".lease"):
                continue
            scenario_id = entry[: -len(".lease")]
            if wanted is not None and scenario_id not in wanted:
                continue
            lease = leases.read(scenario_id)
            if lease is not None and not leases.is_stale(lease):
                leased += 1

    attempts = 0
    retried = 0
    if os.path.isdir(log.attempts_dir):
        for entry in sorted(os.listdir(log.attempts_dir)):
            if not entry.endswith(".json") or ".err-" in entry:
                continue
            scenario_id = entry[: -len(".json")]
            if wanted is not None and scenario_id not in wanted:
                continue
            history = log.history(scenario_id)
            attempts += len(history)
            if len(history) > 1:
                retried += 1

    total = len(wanted) if wanted is not None else None
    pending = (
        total - len(completed) - len(set(quarantined) - set(completed))
        if total is not None
        else None
    )
    return SweepStatus(
        completed=len(completed),
        quarantined=len(quarantined),
        leased=leased,
        attempts=attempts,
        retried=retried,
        total=total,
        pending=pending,
    )


def render_status(status: SweepStatus) -> str:
    """One-line human-readable form shared by CLI and scheduler logs."""
    if status.total is not None:
        head = f"completed {status.completed}/{status.total}"
        parts = [head, f"pending {status.pending}"]
    else:
        parts = [f"completed {status.completed}"]
    parts.append(f"leased {status.leased}")
    parts.append(f"quarantined {status.quarantined}")
    parts.append(
        f"attempts {status.attempts}"
        + (f" ({status.retried} retried)" if status.retried else "")
    )
    return " | ".join(parts)


__all__ = ["SweepStatus", "render_status", "sweep_status"]
