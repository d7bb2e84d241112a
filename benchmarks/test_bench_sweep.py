"""Benchmark: scenario-sweep throughput, store-hit latency, sharing.

Measures the sweep runner on reduced-parameter grids:

* cold execution throughput (scenarios/second, single worker — the
  multi-worker path has identical per-scenario cost plus lease
  scheduler overhead) and the warm path where every scenario is
  served from the content-addressed store;
* artifact sharing plus the campaign-outcome memo against an unshared
  run on the same analysis grid (one fleet, one measurement tier,
  analysis axes only), cold-for-cold (``sharing_*``), plus the
  repeat-study regime where every campaign outcome is memoised
  (``sharing_repeat_*``).  Every ``run`` shares, so the unshared
  baseline runs each scenario alone through ``run_scenario``.

Numbers land in ``BENCH_sweep.json``; the CI regression gate
(``benchmarks/check_bench.py``) holds future PRs to them.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import tempfile

import pytest

from repro.acquisition.device import clear_fleet_activity_cache
from repro.experiments.artifacts import (
    ArtifactOptions,
    clear_process_artifact_cache,
)
from repro.hdl.engine import clear_program_cache
from repro.sweeps import (
    GridAxis,
    SweepOptions,
    SweepSpec,
    SweepStore,
    expand_scenarios,
    run,
)
from repro.sweeps.scenario import run_scenario

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

BASE = {
    "parameters.k": 8,
    "parameters.m": 8,
    "parameters.n1": 64,
    "parameters.n2": 256,
}

#: Artifact sharing and the outcome memo on the process-wide cache.
SHARING = SweepOptions(artifacts=ArtifactOptions())


#: The sharing comparison must be cold-for-cold: every round starts from
#: an empty process (activity, program and artifact caches), exactly
#: like a fresh worker.
def _clear_process_state():
    clear_fleet_activity_cache()
    clear_program_cache()
    clear_process_artifact_cache()


def _spec() -> SweepSpec:
    return SweepSpec(
        name="bench",
        grid=(
            GridAxis("noise.sigma", (0.5, 1.0, 1.5)),
            GridAxis("parameters.n2", (256, 512)),
            GridAxis("attack", ("none", "strip")),
        ),
        base={k: v for k, v in BASE.items() if k != "parameters.n2"},
        seed=1,
    )


def _sharing_spec() -> SweepSpec:
    """Shape-homogeneous quick grid: one fleet, analysis axes only.

    ``fleet_seed``/``measurement_seed`` are pinned so every scenario
    shares the fleet and measurement tiers — the regime the artifact
    and outcome tiers are built for.
    """
    return SweepSpec(
        name="bench-sharing",
        grid=(
            GridAxis("parameters.n2", (256, 512)),
            GridAxis("analysis_seed", (1, 2, 3, 4, 5, 6)),
        ),
        base=dict(BASE, **{"fleet_seed": 11, "measurement_seed": 12}),
        seed=2,
    )


def _run_unshared(spec: SweepSpec, root: str) -> SweepStore:
    """Each scenario run alone, with no artifact cache."""
    store = SweepStore(root)
    for scenario in expand_scenarios(spec):
        result = run_scenario(scenario)
        store.put(scenario.scenario_id, result["record"], result["arrays"])
    return store


@pytest.fixture(scope="module")
def results():
    return {}


def test_bench_sweep_cold(benchmark, results):
    roots = []

    def setup():
        # Cold: no campaign outcome memoised by the previous round.
        clear_process_artifact_cache()
        root = tempfile.mkdtemp(prefix="bench_sweep_")
        roots.append(root)
        return (root,), {}

    def run_cold(root):
        return run(_spec(), SweepStore(root))

    report = benchmark.pedantic(run_cold, setup=setup, rounds=3, iterations=1)
    for root in roots:
        shutil.rmtree(root, ignore_errors=True)
    assert report.n_executed == 12
    results["cold_seconds"] = benchmark.stats.stats.mean
    results["scenarios_per_second"] = 12 / benchmark.stats.stats.mean


def test_bench_sweep_warm_store(benchmark, results):
    root = tempfile.mkdtemp(prefix="bench_sweep_")
    store = SweepStore(root)
    run(_spec(), store)

    report = benchmark.pedantic(lambda: run(_spec(), store), rounds=3, iterations=1)
    shutil.rmtree(root, ignore_errors=True)
    assert report.n_executed == 0 and report.n_cached == 12
    results["warm_seconds"] = benchmark.stats.stats.mean


def test_bench_sweep_sharing_grid_plain(benchmark, results):
    """Baseline for the sharing entries: same grid, nothing shared."""
    roots = []

    def setup():
        _clear_process_state()
        root = tempfile.mkdtemp(prefix="bench_sweep_plain_")
        roots.append(root)
        return (root,), {}

    def run_plain(root):
        return _run_unshared(_sharing_spec(), root)

    store = benchmark.pedantic(run_plain, setup=setup, rounds=3, iterations=1)
    assert len(store) == 12
    results["_plain_root"] = roots[-1]
    results["_plain_keep"] = roots
    results["sharing_grid_plain_seconds"] = benchmark.stats.stats.mean


def test_bench_sweep_sharing(benchmark, results):
    """Artifact sharing + outcome memo, cold."""
    roots = []

    def setup():
        _clear_process_state()
        root = tempfile.mkdtemp(prefix="bench_sweep_sharing_")
        roots.append(root)
        return (root,), {}

    def run_sharing(root):
        return run(_sharing_spec(), SweepStore(root), SHARING)

    report = benchmark.pedantic(run_sharing, setup=setup, rounds=3, iterations=1)
    assert report.n_executed == 12
    results["_sharing_root"] = roots[-1]
    results["_sharing_keep"] = roots
    results["sharing_seconds"] = benchmark.stats.stats.mean
    results["sharing_scenarios_per_second"] = 12 / benchmark.stats.stats.mean


def test_bench_sweep_sharing_repeat(benchmark, results):
    """Repeat study: fresh store, warm outcome memo — analysis skipped."""
    import hashlib
    import os

    _clear_process_state()
    warm_root = tempfile.mkdtemp(prefix="bench_sweep_repeat_warm_")
    run(_sharing_spec(), SweepStore(warm_root), SHARING)
    roots = []

    def setup():
        root = tempfile.mkdtemp(prefix="bench_sweep_repeat_")
        roots.append(root)
        return (root,), {}

    def run_repeat(root):
        return run(_sharing_spec(), SweepStore(root), SHARING)

    report = benchmark.pedantic(run_repeat, setup=setup, rounds=3, iterations=1)
    assert report.n_executed == 12
    if "_plain_root" not in results or "_sharing_root" not in results:
        for root in (warm_root, *roots):
            shutil.rmtree(root, ignore_errors=True)
        pytest.skip("sharing summary needs the plain/sharing bench tests to run first")

    def digests(root):
        out = {}
        for entry in sorted(os.listdir(root)):
            path = os.path.join(root, entry)
            if entry.startswith(".") or not os.path.isfile(path):
                continue
            with open(path, "rb") as handle:
                out[entry] = hashlib.sha256(handle.read()).hexdigest()
        return out

    # Sharing and memoisation never change a stored byte.
    reference = digests(results.pop("_plain_root"))
    assert digests(results.pop("_sharing_root")) == reference
    assert digests(roots[-1]) == reference
    for root in (
        warm_root,
        *roots,
        *results.pop("_plain_keep"),
        *results.pop("_sharing_keep"),
    ):
        shutil.rmtree(root, ignore_errors=True)

    results["sharing_repeat_seconds"] = benchmark.stats.stats.mean
    results["sharing_speedup"] = round(
        results["sharing_grid_plain_seconds"] / results["sharing_seconds"], 2
    )
    results["sharing_repeat_speedup"] = round(
        results["sharing_grid_plain_seconds"] / results["sharing_repeat_seconds"],
        2,
    )
    # No hard floor assert here: the committed sharing_speedup baseline
    # plus the check_bench gate (35% tolerance on speedup ratios) is
    # what enforces the trajectory, and it stays updatable through the
    # documented --update-baseline acceptance workflow.

    summary = {
        "grid": "noise.sigma x parameters.n2 x attack (12 scenarios, quick)",
        "sharing_grid": "parameters.n2 x analysis_seed "
        "(12 scenarios, one fleet/measurement tier)",
        **{key: round(value, 4) for key, value in results.items()},
    }
    BENCH_FILE.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"\nsweep bench: {summary}")
