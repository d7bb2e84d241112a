"""Scenario sweeps as a service-grade subsystem: declare, run, poll,
aggregate.

The paper's evaluation is one operating point; this subsystem turns it
into surfaces — and into *jobs*.  The public surface is deliberately
small:

* :class:`SweepSpec` declares the surface (grid + random axes over
  campaign-config paths, an ``attack`` axis, derived per-scenario
  seeds).  Its JSON wire format — :meth:`SweepSpec.to_json_dict` /
  :meth:`SweepSpec.from_json_dict`, stamped with a ``schema_version``
  and validated with errors that name the offending path
  (:class:`SpecValidationError`) — is what the HTTP sweep service
  (:mod:`repro.service`), saved spec files and any other embedder
  speak.

* :func:`run` is **the one entry point for executing a sweep**:
  ``run(spec, store, SweepOptions(...))``.  :class:`SweepOptions` is
  one flat, validated value with every setting — ``n_workers``,
  ``max_retries``, ``lease_ttl``, ``scenario_timeout`` and
  ``status_interval``.  Every sweep shares fleets and traces between
  scenarios that agree on them.  A single-worker sweep with no lease
  setting runs inline; a sweep with more workers, or with any of the
  three seconds fields set, runs on the lease-based fault-tolerant
  scheduler, in which attempts run in isolated child processes with
  timeouts and any number of instances safely share one store root.
  Whatever the options, the resulting :class:`SweepStore` is
  byte-identical to a clean single-worker run.

* :func:`sweep_status` snapshots a store root's execution state
  (completed / pending / leased / quarantined / attempt counts) —
  the same :class:`SweepStatus` backs the service's poll endpoint,
  the CLI summary and the scheduler's log lines.

* :mod:`repro.sweeps.aggregate` reads tidy accuracy / ROC tables back
  out of the store.

Execution is resumable (the store is content-addressed; only missing
scenario digests run) and fault-tolerant: failures retry with backoff
(``max_retries`` times), exhausted scenarios are quarantined under
``failed/`` while the sweep continues, and every recovery path is
exercised under the deterministic fault-injection harness
(:mod:`repro.sweeps.faultinject`).
"""

from repro.sweeps.aggregate import (
    accuracy_pivot,
    matching_scores,
    render_sweep_summary,
    roc_by_axis,
    tidy_accuracy,
)
from repro.sweeps.api import (
    SweepOptions,
    run,
)
from repro.sweeps.executor import (
    SweepReport,
    default_workers,
)
from repro.sweeps.faultinject import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_fault_plan,
    clear_fault_plan,
    fault_context,
    fault_point,
    install_fault_plan,
)
from repro.sweeps.scheduler import (
    FailureLog,
    LeaseManager,
    scrub,
)
from repro.sweeps.scenario import (
    outcome_arrays,
    outcome_metrics,
    run_scenario,
)
from repro.sweeps.spec import (
    ATTACK_FIELD,
    CONFIG_FIELDS,
    SCHEMA_VERSION,
    GridAxis,
    RandomAxis,
    Scenario,
    SpecValidationError,
    SweepSpec,
    expand_scenarios,
    scenario_config,
)
from repro.sweeps.status import (
    SweepStatus,
    render_status,
    sweep_status,
)
from repro.sweeps.store import SweepStore

__all__ = [
    "ATTACK_FIELD",
    "CONFIG_FIELDS",
    "SCHEMA_VERSION",
    "FailureLog",
    "FaultPlan",
    "FaultRule",
    "GridAxis",
    "InjectedFault",
    "LeaseManager",
    "RandomAxis",
    "Scenario",
    "SpecValidationError",
    "SweepOptions",
    "SweepSpec",
    "SweepReport",
    "SweepStatus",
    "SweepStore",
    "accuracy_pivot",
    "active_fault_plan",
    "clear_fault_plan",
    "default_workers",
    "expand_scenarios",
    "fault_context",
    "fault_point",
    "install_fault_plan",
    "matching_scores",
    "outcome_arrays",
    "outcome_metrics",
    "render_status",
    "render_sweep_summary",
    "roc_by_axis",
    "run",
    "run_scenario",
    "scenario_config",
    "scrub",
    "sweep_status",
    "tidy_accuracy",
]
