"""The benchmark's four workloads.

Every workload is a closed loop: one client in one process runs its
operations back to back.  Every fleet, measurement, analysis and spec
seed is derived from the run's ``--seed``; the program only ever sees
the configs and specs built here.

A workload is prepared by :meth:`setup` (timed as ``setup_s``) and then
measured through :meth:`run`, one operation per call.  ``run`` returns
an :class:`OpResult` holding the operation's wall time, whether its
outputs passed the workload's correctness check, and the op-level
figures the benchmark observes from outside the program.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.acquisition.device import clear_fleet_activity_cache, prime_fleet_activity
from repro.cli import default_sweep_spec
from repro.core.distinguishers import PAPER_DISTINGUISHERS
from repro.core.process import ProcessParameters
from repro.experiments.artifacts import (
    ArtifactOptions,
    clear_process_artifact_cache,
    process_artifact_cache,
)
from repro.experiments.runner import CampaignConfig, manufacture_fleet, run_campaign
from repro.hdl.engine import clear_program_cache
from repro.service import SweepService, start_service
from repro.sweeps import (
    FailureLog,
    GridAxis,
    SweepOptions,
    SweepSpec,
    SweepStore,
    default_workers,
    expand_scenarios,
    run,
)

#: The imported circuit of ``imported_campaign`` (relative to the
#: checkout root, which the benchmark runs from).
IMPORTED_DESIGN = "imported:benchmarks/netlists/c640_synth.v"


def derive_seed(seed: int, *labels: object) -> int:
    """A 31-bit seed mixed from the run seed and a label path."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


@dataclass
class OpResult:
    """One measured operation."""

    seconds: float
    ok: bool
    detail: str = ""
    #: Op-level figures observed from outside the program, keyed by
    #: per-layer metric name.
    extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class: a named operation loop over seed-derived inputs."""

    name = ""
    #: The name this workload's median operation time goes by in the
    #: printed summary.
    op_label = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, index: int) -> OpResult:
        raise NotImplementedError

    def verify_traced(self, tracer, indices: List[int]) -> Dict[int, str]:
        """Extra checks of the traced operations: ``{index: problem}``."""
        return {}

    def close(self) -> None:
        pass


class PaperCampaign(Workload):
    """``run_campaign`` at the paper's parameters on one warm fleet."""

    name = "paper_campaign"
    op_label = "campaign_p50_s"

    def setup(self) -> None:
        clear_program_cache()
        clear_fleet_activity_cache()
        self.config = CampaignConfig(fleet_seed=derive_seed(self.seed, "fleet"))
        self.fleet = manufacture_fleet(self.config)
        refds, duts = self.fleet
        prime_fleet_activity((*refds.values(), *duts.values()))
        run_campaign(self._config("warm-up"), fleet=self.fleet)

    def _config(self, index: object) -> CampaignConfig:
        return replace(
            self.config,
            measurement_seed=derive_seed(self.seed, "measurement", index),
            analysis_seed=derive_seed(self.seed, "analysis", index),
        )

    def run(self, index: int) -> OpResult:
        config = self._config(index)
        start = time.perf_counter()
        outcome = run_campaign(config, fleet=self.fleet)
        seconds = time.perf_counter() - start
        # Not ``outcome.all_correct``: at m = 20 the lower-variance
        # distinguisher picks a wrong DUT about once in 150 campaigns
        # (its variance estimates overlap), which is the method's
        # statistics, not a fault.  The matching mean stands ~0.05
        # clear of every other DUT, so higher-mean does not miss.
        accuracy = outcome.accuracy("higher-mean")
        return OpResult(seconds, accuracy == 1.0, f"higher-mean accuracy {accuracy}")


class AnalysisGrid(Workload):
    """A 32-scenario in-process sweep over analysis axes only."""

    name = "analysis_grid"
    op_label = "sweep_s"
    N_SCENARIOS = 32

    def _spec(self, index: object) -> SweepSpec:
        return SweepSpec(
            name=f"analysis-grid-{index}",
            grid=(
                GridAxis("parameters.k", (10, 20, 30, 40)),
                GridAxis("parameters.m", (16, 32)),
                GridAxis(
                    "analysis_seed",
                    tuple(derive_seed(self.seed, "analysis", j) for j in range(4)),
                ),
            ),
            base={
                "parameters.n1": 200,
                "parameters.n2": 2000,
                "fleet_seed": derive_seed(self.seed, "fleet"),
                "measurement_seed": derive_seed(self.seed, "measurement", index),
            },
            seed=derive_seed(self.seed, "spec"),
        )

    def setup(self) -> None:
        self.run("warm-up")

    def run(self, index) -> OpResult:
        spec = self._spec(index)
        root = self.fresh_dir("grid-")
        store = SweepStore(root)
        clear_process_artifact_cache()
        options = SweepOptions(artifacts=ArtifactOptions())
        start = time.perf_counter()
        report = run(spec, store, options)
        seconds = time.perf_counter() - start
        stats = process_artifact_cache(ArtifactOptions()).stats
        n_records = len(store)
        shutil.rmtree(root)
        problems = []
        if report.failed_ids:
            problems.append(f"{len(report.failed_ids)} scenarios quarantined")
        if n_records != self.N_SCENARIOS:
            problems.append(f"{n_records} records, expected {self.N_SCENARIOS}")
        if stats.fleet_misses != 1 or stats.trace_misses != 8:
            problems.append(
                f"{stats.fleet_misses} fleet / {stats.trace_misses} trace misses, "
                "expected 1 / 8"
            )
        return OpResult(
            seconds,
            not problems,
            "; ".join(problems),
            {
                "artifacts.trace_hits": stats.trace_hits,
                "artifacts.trace_misses": stats.trace_misses,
                "artifacts.outcome_hits": stats.outcome_hits,
                "artifacts.peak_bytes": stats.peak_bytes,
            },
        )


class ImportedCampaign(Workload):
    """A cold ``run_campaign`` on an imported third-party netlist."""

    name = "imported_campaign"
    op_label = "campaign_p50_s"

    def setup(self) -> None:
        self.run("warm-up")

    def run(self, index) -> OpResult:
        config = CampaignConfig(
            design=IMPORTED_DESIGN,
            parameters=ProcessParameters(k=8, m=8, n1=64, n2=256),
            fleet_seed=derive_seed(self.seed, "fleet", index),
            measurement_seed=derive_seed(self.seed, "measurement", index),
            analysis_seed=derive_seed(self.seed, "analysis", index),
        )
        # As a fresh CLI invocation would: nothing parsed, lowered or
        # simulated survives from the previous campaign.
        clear_program_cache()
        clear_fleet_activity_cache()
        start = time.perf_counter()
        outcome = run_campaign(config)
        seconds = time.perf_counter() - start
        accuracy = outcome.accuracy("higher-mean")
        return OpResult(
            seconds, accuracy == 1.0, f"higher-mean accuracy {accuracy}"
        )


@dataclass
class _Submission:
    """One spec submitted to the service and streamed to its trailer."""

    status: int
    job_id: str
    rows: List[dict]
    rows_bytes: int
    submit_s: float
    #: From the POST to the first ``accuracy`` row (None: no such row).
    first_row_s: Optional[float]
    #: From the POST to the ``end`` trailer.
    seconds: float


class _Client:
    """Minimal HTTP/1.1 client for the sweep service on localhost."""

    def __init__(self, port: int):
        self.port = port
        self.non_2xx = 0

    def _send(self, method: str, path: str, body: Optional[dict] = None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        payload = None if body is None else json.dumps(body).encode()
        headers = {} if payload is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        if not 200 <= response.status < 300:
            self.non_2xx += 1
        return connection, response

    def request(self, method: str, path: str, body: Optional[dict] = None):
        """``(status, decoded JSON body)`` of one request."""
        connection, response = self._send(method, path, body)
        try:
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def sweep(self, spec: SweepSpec) -> _Submission:
        """POST ``spec`` and read its NDJSON rows to the ``end`` trailer."""
        start = time.perf_counter()
        status, job = self.request("POST", "/sweeps", {"spec": spec.to_json_dict()})
        submit_s = time.perf_counter() - start
        connection, response = self._send("GET", f"/sweeps/{job['job_id']}/rows")
        rows: List[dict] = []
        rows_bytes = 0
        first_row_s = None
        try:
            for line in response:
                rows_bytes += len(line)
                rows.append(json.loads(line))
                if first_row_s is None and rows[-1].get("kind") == "accuracy":
                    first_row_s = time.perf_counter() - start
        finally:
            connection.close()
        seconds = time.perf_counter() - start
        return _Submission(
            status, job["job_id"], rows, rows_bytes, submit_s, first_row_s, seconds
        )


def _check_rows(rows: List[dict], n_scenarios: int) -> List[str]:
    """What is wrong with one job's row stream (empty when nothing)."""
    kinds = [row.get("kind") for row in rows]
    problems = []
    n_accuracy = kinds.count("accuracy")
    if n_accuracy != n_scenarios * len(PAPER_DISTINGUISHERS):
        problems.append(f"{n_accuracy} accuracy rows")
    if "roc" not in kinds:
        problems.append("no roc rows")
    end = rows[-1] if rows else {}
    if (end.get("kind"), end.get("state"), end.get("completed")) != (
        "end",
        "done",
        n_scenarios,
    ):
        problems.append(f"bad end trailer {end}")
    return problems


def _result_digests(root: str, scenario_ids: List[str]) -> Dict[str, str]:
    """SHA-256 of each result file (record and bundle) of the scenarios."""
    digests = {}
    for scenario_id in scenario_ids:
        for name in (f"{scenario_id}.json", f"{scenario_id}.npz"):
            path = os.path.join(root, name)
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


class ServiceSweep(Workload):
    """The default 24-scenario sweep through the HTTP sweep service."""

    name = "service_sweep"
    op_label = "sweep_s"

    handle = None

    def setup(self) -> None:
        self.close()
        self.root = self.fresh_dir("service-")
        options = SweepOptions(n_workers=default_workers())
        self.handle = start_service(SweepService(self.root, options))
        self.client = _Client(self.handle.port)
        status, _ = self.client.request("GET", "/health")
        if status != 200:
            raise RuntimeError(f"GET /health answered {status}")
        # Warm up with the default spec's base point alone: one
        # scenario through submission, scheduling, an attempt child,
        # the store and the row stream.
        warm_up = SweepSpec(
            name="warm-up",
            base=default_sweep_spec().base,
            seed=derive_seed(self.seed, "warm-up"),
        )
        problems = _check_rows(self.client.sweep(warm_up).rows, 1)
        if problems:
            raise RuntimeError(f"warm-up sweep failed: {problems}")
        self.specs: Dict[int, SweepSpec] = {}

    def close(self) -> None:
        if self.handle is not None:
            self.handle.stop()
            self.handle = None

    def run(self, index: int) -> OpResult:
        spec = default_sweep_spec(
            seed=derive_seed(self.seed, "spec", index), name=f"bench-{index}"
        )
        self.specs[index] = spec
        scenario_ids = [s.scenario_id for s in expand_scenarios(spec)]
        non_2xx_before = self.client.non_2xx

        first = self.client.sweep(spec)
        poll_start = time.perf_counter()
        _, described = self.client.request("GET", f"/sweeps/{first.job_id}")
        poll_s = time.perf_counter() - poll_start
        again = self.client.sweep(spec)

        log = FailureLog(self.root)
        store = SweepStore(self.root)
        attempts = retries = 0
        attempt_s = 0.0
        for scenario_id in scenario_ids:
            history = log.history(scenario_id)
            attempts += len(history)
            retries += max(0, len(history) - 1)
            if history and store.has(scenario_id):
                landed = os.stat(store.record_path(scenario_id)).st_mtime
                attempt_s += landed - history[-1]["started"]

        n_scenarios = len(scenario_ids)
        problems = [f"first stream: {p}" for p in _check_rows(first.rows, n_scenarios)]
        problems += [f"resubmission: {p}" for p in _check_rows(again.rows, n_scenarios)]
        if described.get("state") != "done":
            problems.append(f"job state {described.get('state')}")
        if attempts != n_scenarios:
            problems.append(f"{attempts} attempts for {n_scenarios} scenarios")
        non_2xx = self.client.non_2xx - non_2xx_before
        if non_2xx:
            problems.append(f"{non_2xx} non-2xx responses")
        return OpResult(
            first.seconds,
            not problems,
            "; ".join(problems),
            {
                "service.first_row_s": first.first_row_s or first.seconds,
                "service.submit_s": first.submit_s,
                "service.poll_s": poll_s,
                "service.resubmit_s": again.seconds,
                "service.rows_bytes": first.rows_bytes + again.rows_bytes,
                "service.non_2xx": non_2xx,
                "sweeps.scheduler.attempts": attempts,
                "sweeps.scheduler.retries": retries,
                "sweeps.scheduler.attempt_s": attempt_s,
            },
        )

    def verify_traced(self, tracer, indices: List[int]) -> Dict[int, str]:
        """Byte identity with an in-process sweep, and scheduler overhead.

        Each traced operation's spec is run again through the plain
        in-process executor into a fresh store; the service store's
        result files for those scenarios must match byte for byte (the
        lease metadata directories are not result files).  The
        reference runs' ``run_scenario`` spans, under the op id
        ``reference:<op>``, are what ``sweeps.scheduler.overhead_s``
        subtracts from the attempt times.
        """
        problems = {}
        for index in indices:
            spec = self.specs[index]
            scenario_ids = [s.scenario_id for s in expand_scenarios(spec)]
            root = self.fresh_dir("reference-")
            tracer.op = f"reference:{index}"
            run(spec, SweepStore(root))
            tracer.op = None
            expected = _result_digests(root, scenario_ids)
            actual = _result_digests(self.root, scenario_ids)
            shutil.rmtree(root)
            if len(expected) != 2 * len(scenario_ids) or actual != expected:
                problems[index] = "service store differs from an in-process run"
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (PaperCampaign, AnalysisGrid, ImportedCampaign, ServiceSweep)
}
