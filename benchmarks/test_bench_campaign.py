"""Benchmark: cross-scenario artifact sharing on an analysis-axis grid.

The acquisition step ``Pw(device, n)`` dominates a campaign, so a
sweep over *analysis-side* axes (``parameters.k/m/n1/n2``) pays for
the same fleet manufacture and the same trace matrices once per
scenario unless artifacts are shared.  This benchmark runs one such
grid cold (each scenario alone through ``run_scenario``, no sharing)
and shared (``run``, whose process-wide
:class:`~repro.experiments.artifacts.ArtifactCache` every sweep uses),
verifies the two stores are byte-identical, and records the scenario
throughputs plus the cache's peak trace-matrix footprint in
``BENCH_campaign.json``.
Future PRs must not regress these numbers (nor ``BENCH_engine.json``
or ``BENCH_sweep.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.experiments.artifacts import (
    ArtifactOptions,
    clear_process_artifact_cache,
    process_artifact_cache,
)
from repro.sweeps import (
    GridAxis,
    SweepOptions,
    SweepSpec,
    SweepStore,
    expand_scenarios,
    run,
)
from repro.sweeps.scenario import run_scenario

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_campaign.json"

#: Robustness floor asserted by the test (the acceptance target is 5x;
#: the margin keeps the suite green on loaded CI machines).
MIN_ASSERTED_SPEEDUP = 3.0

#: Analysis-axis-only grid: k x m x n2 with the fleet/measurement tiers
#: pinned, so every scenario can share one fleet and one acquisition
#: stream (the n2=1500 scenarios slice the n2=6000 matrices by prefix).
#: The working set (4 x 6000-trace DUT matrices + references, ~203 MB)
#: is the one measurement group the cache retains.
GRID = (
    GridAxis("parameters.k", (6, 10, 14, 18)),
    GridAxis("parameters.m", (8, 16)),
    GridAxis("parameters.n2", (6000, 1500)),
)

BASE = {
    "parameters.n1": 200,
    "fleet_seed": 2014,
    "measurement_seed": 42,
}


def _spec() -> SweepSpec:
    return SweepSpec(name="bench_campaign", grid=GRID, base=dict(BASE), seed=3)


def _store_digest(root: str) -> str:
    # Top-level result files only; .attempts/ etc. are outside the
    # byte-identity invariant.
    digest = hashlib.sha256()
    for entry in sorted(os.listdir(root)):
        if entry.startswith(".") or not os.path.isfile(os.path.join(root, entry)):
            continue
        digest.update(entry.encode())
        with open(os.path.join(root, entry), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def test_bench_campaign_sharing(capsys):
    n_scenarios = _spec().n_scenarios
    roots = []

    def timed_sweep(artifacts):
        root = tempfile.mkdtemp(prefix="bench_campaign_")
        roots.append(root)
        start = time.perf_counter()
        report = run(_spec(), SweepStore(root), SweepOptions(artifacts=artifacts))
        seconds = time.perf_counter() - start
        assert report.n_executed == n_scenarios
        return root, seconds

    def timed_unshared():
        root = tempfile.mkdtemp(prefix="bench_campaign_")
        roots.append(root)
        store = SweepStore(root)
        start = time.perf_counter()
        for scenario in expand_scenarios(_spec()):
            result = run_scenario(scenario)
            store.put(scenario.scenario_id, result["record"], result["arrays"])
        seconds = time.perf_counter() - start
        assert len(store) == n_scenarios
        return root, seconds

    try:
        cold_root, cold_seconds = timed_unshared()
        clear_process_artifact_cache()
        options = ArtifactOptions()
        shared_root, shared_seconds = timed_sweep(options)
        # Steady state: the cache is warm, a further store (e.g. an
        # extended grid or another repeat surface) pays analysis only.
        warm_root, warm_seconds = timed_sweep(options)
        stats = process_artifact_cache(options).stats

        # Sharing must be invisible in the results.
        cold_digest = _store_digest(cold_root)
        assert cold_digest == _store_digest(shared_root)
        assert cold_digest == _store_digest(warm_root)
        # One fleet, one acquisition per device; everything else reused.
        assert stats.fleet_misses == 1
        assert stats.trace_hits > 0

        speedup = cold_seconds / shared_seconds
        summary = {
            "grid": "parameters.k x m x n2 (analysis axes only)",
            "n_scenarios": n_scenarios,
            "cold_seconds": round(cold_seconds, 4),
            "shared_seconds": round(shared_seconds, 4),
            "warm_shared_seconds": round(warm_seconds, 4),
            "cold_scenarios_per_second": round(n_scenarios / cold_seconds, 4),
            "shared_scenarios_per_second": round(
                n_scenarios / shared_seconds, 4
            ),
            "warm_shared_scenarios_per_second": round(
                n_scenarios / warm_seconds, 4
            ),
            "shared_speedup": round(speedup, 2),
            "warm_shared_speedup": round(cold_seconds / warm_seconds, 2),
            "trace_acquisitions": stats.trace_misses,
            "trace_reuses": stats.trace_hits,
            "peak_trace_matrix_bytes": stats.peak_bytes,
            "bytes_acquired": stats.bytes_acquired,
        }
        RESULT_PATH.write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        with capsys.disabled():
            print(f"\ncampaign bench: {summary}")
        assert speedup >= MIN_ASSERTED_SPEEDUP
    finally:
        clear_process_artifact_cache()
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)
