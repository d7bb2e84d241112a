"""The repository benchmark's contract with the program.

``perfbench/`` builds its workloads from names it imports from
``repro`` and traces layers by patching functions where callers look
them up (``perfbench/tracing.py``).  A refactor that drops or moves one
of those names would only surface when the benchmark crashes; these
checks fail first.  The benchmark's files are read, never changed.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_repro(module_name: str) -> bool:
    return module_name.split(".")[0] == "repro"


def _imported_repro_names():
    """``(module, name)`` for every ``repro`` import in ``perfbench/``.

    ``name`` is None for a plain ``import repro.x``.
    """
    names = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and _is_repro(node.module or ""):
                names += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                names += [(a.name, None) for a in node.names if _is_repro(a.name)]
    return names


TRACING = _load_tracing()


@pytest.mark.parametrize(
    "module_name, attr_path",
    [(module, attr) for module, attr, _span in TRACING.SPAN_POINTS]
    + [("repro.core.selection", "uniform_distinct_indices")],
)
def test_traced_names_resolve(module_name, attr_path):
    owner, name = TRACING._resolve(module_name, attr_path)
    assert callable(getattr(owner, name, None)), f"{module_name}.{attr_path}"


def test_workload_imports_found():
    # The AST walk must see the workloads' imports, or the test below
    # checks nothing.
    assert ("repro.sweeps", "run") in _imported_repro_names()


@pytest.mark.parametrize("module_name, name", _imported_repro_names())
def test_imported_names_resolve(module_name, name):
    module = importlib.import_module(module_name)
    if name is not None:
        assert hasattr(module, name), f"{module_name}.{name}"


def test_artifact_calls_of_the_workloads():
    # ``analysis_grid`` builds its options and reads its counters this
    # way; a missing shim or a renamed counter would fail every op.
    from repro.experiments.artifacts import (
        ArtifactOptions,
        clear_process_artifact_cache,
        process_artifact_cache,
    )
    from repro.sweeps import SweepOptions

    SweepOptions(artifacts=ArtifactOptions())
    clear_process_artifact_cache()
    try:
        cache = process_artifact_cache(ArtifactOptions())
        assert cache is process_artifact_cache()
        for name in (
            "fleet_misses",
            "trace_hits",
            "trace_misses",
            "outcome_hits",
            "peak_bytes",
        ):
            assert getattr(cache.stats, name) == 0, name
    finally:
        clear_process_artifact_cache()


def test_a_scenario_leaves_the_two_result_files_the_workloads_read(tmp_path):
    # A traced ``service_sweep`` op is correct only when the store holds
    # ``<id>.json`` and ``<id>.npz`` for each scenario
    # (``_result_digests``), and its put hook sizes both through
    # ``record_path`` and ``arrays_path``.
    from repro.sweeps import SweepSpec, SweepStore, expand_scenarios, run

    quick = {"parameters.k": 4, "parameters.m": 4, "parameters.n1": 32}
    spec = SweepSpec(name="contract", base={**quick, "parameters.n2": 64})
    root = tmp_path / "store"
    store = SweepStore(str(root))
    run(spec, store)
    (scenario,) = expand_scenarios(spec)
    sid = scenario.scenario_id
    record, bundle = root / f"{sid}.json", root / f"{sid}.npz"
    assert {path for path in root.iterdir() if path.is_file()} == {record, bundle}
    assert store.record_path(sid) == str(record)
    assert store.arrays_path(sid) == str(bundle)
