"""Engine benchmark — compiled vs interpreted simulation throughput.

Times ``Simulator.run`` under both engines on the paper's designs, the
full 4x4 device fleet at one period (256 cycles) and a wide mixed-key
fleet under batched execution, then writes ``BENCH_engine.json`` next
to the repo root so future PRs have a performance trajectory to
regress against (``benchmarks/check_bench.py`` enforces it in CI).
The equivalence guarantees behind these numbers live in
``tests/test_engine.py`` and ``tests/test_engine_batch.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.acquisition.device import clear_fleet_activity_cache
from repro.experiments.designs import (
    PERIOD_CYCLES,
    build_device_fleet,
    build_ip,
    build_paper_ip,
)
from repro.hdl.engine import clear_program_cache, compile_netlist, run_batch
from repro.hdl.simulator import Simulator

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Speedup the compiled engine must sustain on a one-period run of a
#: paper design (the acceptance floor is 10x; we assert a margin below
#: that to keep the suite robust on loaded CI machines).
MIN_ASSERTED_SPEEDUP = 5.0

#: Lanes of the batched-fleet benchmark: one gray-counter IP per
#: distinct watermark key, i.e. 48 distinct netlist structures that
#: share a single shape and ride one vectorised execution.
BATCH_FLEET_LANES = 48


def _best_of(callable_, repeats: int) -> float:
    """Best wall time over ``repeats`` calls (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _merge_results(update: dict) -> dict:
    data = {}
    if RESULT_PATH.exists():
        data = json.loads(RESULT_PATH.read_text())
    data.update(update)
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def test_bench_single_design_speedup(benchmark, capsys):
    interpreted = Simulator(build_paper_ip("IP_B").netlist, engine="interpreted")
    compiled = Simulator(build_paper_ip("IP_B").netlist, engine="compiled")

    seconds_interpreted = _best_of(lambda: interpreted.run(PERIOD_CYCLES), 3)
    seconds_compiled = _best_of(lambda: compiled.run(PERIOD_CYCLES), 20)
    benchmark.pedantic(compiled.run, args=(PERIOD_CYCLES,), rounds=10, iterations=1)

    speedup = seconds_interpreted / seconds_compiled
    update = {
        "single_design": {
            "design": "IP_B",
            "cycles": PERIOD_CYCLES,
            "interpreted_cycles_per_sec": PERIOD_CYCLES / seconds_interpreted,
            "compiled_cycles_per_sec": PERIOD_CYCLES / seconds_compiled,
            "speedup": speedup,
        }
    }
    _merge_results(update)
    print(
        f"\nSimulator.run({PERIOD_CYCLES}) on IP_B: "
        f"interpreted {PERIOD_CYCLES / seconds_interpreted:,.0f} cyc/s, "
        f"compiled {PERIOD_CYCLES / seconds_compiled:,.0f} cyc/s "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= MIN_ASSERTED_SPEEDUP
    # Equivalence spot check rides along with the timing.
    assert np.array_equal(
        compiled.run(PERIOD_CYCLES).matrix,
        interpreted.run(PERIOD_CYCLES).matrix,
    )


def test_bench_fleet_simulation(benchmark, capsys):
    """Wall time to obtain activity for all eight fleet devices."""

    def fleet_interpreted() -> float:
        refds, duts = build_device_fleet(seed=2014)
        start = time.perf_counter()
        for device in (*refds.values(), *duts.values()):
            trace = Simulator(device.ip.netlist, engine="interpreted").run(
                PERIOD_CYCLES
            )
            assert trace.n_cycles == PERIOD_CYCLES
        return time.perf_counter() - start

    def fleet_compiled_shared() -> float:
        clear_fleet_activity_cache()
        refds, duts = build_device_fleet(seed=2014)
        start = time.perf_counter()
        for device in (*refds.values(), *duts.values()):
            device.activity()
        return time.perf_counter() - start

    seconds_interpreted = fleet_interpreted()
    seconds_compiled = min(fleet_compiled_shared() for _ in range(3))
    benchmark.pedantic(fleet_compiled_shared, rounds=3, iterations=1)

    speedup = seconds_interpreted / seconds_compiled
    update = {
        "fleet_4x4": {
            "devices": 8,
            "distinct_netlists": 4,
            "cycles": PERIOD_CYCLES,
            "interpreted_wall_sec": seconds_interpreted,
            "compiled_shared_wall_sec": seconds_compiled,
            "speedup": speedup,
        }
    }
    _merge_results(update)
    print(
        f"\n4x4 fleet activity at {PERIOD_CYCLES} cycles: "
        f"interpreted {seconds_interpreted * 1e3:.1f} ms, "
        f"compiled+shared {seconds_compiled * 1e3:.2f} ms -> {speedup:.0f}x"
    )
    assert speedup >= MIN_ASSERTED_SPEEDUP


def test_bench_batched_fleet(benchmark, capsys):
    """One vectorised execution for a whole mixed-key device fleet.

    48 watermarked gray counters with 48 distinct keys are 48 distinct
    netlist structures, so structural activity sharing cannot collapse
    them — exactly the fleet profile of the paper's accuracy/ROC
    experiments.  The batched engine runs them as one 48-lane program;
    the recorded ``fleet_batched`` speedup must clearly beat the
    structural-sharing-only ``fleet_4x4`` number.
    """
    keys = list(range(BATCH_FLEET_LANES))

    def lane_netlists():
        return [build_ip(f"ip_{k:02d}", "gray", k).netlist for k in keys]

    # Devices are compiled once and measured thousands of times in a
    # campaign, so the timed region is steady-state trace production on
    # a prebuilt fleet — identically for all three paths (programs are
    # generated and warmed before the clock starts).
    interpreted_sims = [
        Simulator(netlist, engine="interpreted") for netlist in lane_netlists()
    ]
    compiled_sims = [
        Simulator(netlist, engine="compiled") for netlist in lane_netlists()
    ]
    batched_engines = [compile_netlist(netlist) for netlist in lane_netlists()]
    compiled_sims[0].run(PERIOD_CYCLES)
    run_batch(batched_engines, PERIOD_CYCLES)

    def fleet_interpreted() -> float:
        start = time.perf_counter()
        for simulator in interpreted_sims:
            trace = simulator.run(PERIOD_CYCLES)
            assert trace.n_cycles == PERIOD_CYCLES
        return time.perf_counter() - start

    def fleet_compiled() -> float:
        start = time.perf_counter()
        for simulator in compiled_sims:
            simulator.run(PERIOD_CYCLES)
        return time.perf_counter() - start

    def fleet_batched() -> float:
        start = time.perf_counter()
        traces = run_batch(batched_engines, PERIOD_CYCLES)
        assert len(traces) == BATCH_FLEET_LANES
        return time.perf_counter() - start

    seconds_interpreted = fleet_interpreted()
    seconds_compiled = min(fleet_compiled() for _ in range(5))
    seconds_batched = min(fleet_batched() for _ in range(5))
    benchmark.pedantic(fleet_batched, rounds=3, iterations=1)

    speedup = seconds_interpreted / seconds_batched
    speedup_vs_compiled = seconds_compiled / seconds_batched
    update = {
        "fleet_batched": {
            "devices": BATCH_FLEET_LANES,
            "distinct_netlists": BATCH_FLEET_LANES,
            "cycles": PERIOD_CYCLES,
            "interpreted_wall_sec": seconds_interpreted,
            "per_device_compiled_wall_sec": seconds_compiled,
            "batched_wall_sec": seconds_batched,
            "speedup": speedup,
            "speedup_vs_compiled": speedup_vs_compiled,
        }
    }
    data = _merge_results(update)
    print(
        f"\n{BATCH_FLEET_LANES}-lane mixed-key fleet at {PERIOD_CYCLES} "
        f"cycles: interpreted {seconds_interpreted * 1e3:.0f} ms, "
        f"per-device compiled {seconds_compiled * 1e3:.1f} ms, "
        f"batched {seconds_batched * 1e3:.2f} ms -> {speedup:.0f}x vs "
        f"interpreted, {speedup_vs_compiled:.1f}x vs per-device compiled"
    )
    assert speedup >= MIN_ASSERTED_SPEEDUP
    assert speedup_vs_compiled >= 1.5
    # The tentpole claim: batching a wide fleet must clearly beat the
    # structural-sharing-only fleet number recorded this session.
    fleet_shared = data.get("fleet_4x4", {}).get("speedup")
    if fleet_shared:
        assert speedup > fleet_shared
    # Equivalence spot check rides along with the timing.
    clear_program_cache()
    engines = [compile_netlist(netlist) for netlist in lane_netlists()]
    batched = run_batch(engines[:3], PERIOD_CYCLES)
    for key, trace in zip(keys[:3], batched):
        reference = Simulator(
            build_ip("ref", "gray", key).netlist, engine="compiled"
        ).run(PERIOD_CYCLES)
        assert np.array_equal(trace.matrix, reference.matrix)


def test_bench_long_run_memoisation(benchmark, capsys):
    """Periodic designs tile their state cycle instead of re-stepping."""
    compiled = Simulator(build_paper_ip("IP_A").netlist, engine="compiled")
    cycles = 16 * PERIOD_CYCLES

    seconds = _best_of(lambda: compiled.run(cycles), 5)
    benchmark.pedantic(compiled.run, args=(cycles,), rounds=5, iterations=1)

    update = {
        "long_run": {
            "design": "IP_A",
            "cycles": cycles,
            "compiled_cycles_per_sec": cycles / seconds,
        }
    }
    data = _merge_results(update)
    print(
        f"\ncompiled {cycles}-cycle run: {cycles / seconds:,.0f} cyc/s "
        f"(state-memo tiling); BENCH_engine.json now has "
        f"{sorted(data)} sections"
    )
    # The memoised long run must beat the single-period rate.
    single = data.get("single_design", {}).get("compiled_cycles_per_sec")
    if single:
        assert cycles / seconds > single


def test_bench_long_run_vectorised(benchmark, capsys):
    """The cycle-axis kernel tier on a long memoised run.

    Same design as ``long_run`` but executed through the vectorised
    tier: the sequential residue steps one state period in Python,
    then every feed-forward wire column and the whole activity matrix
    are reconstructed with numpy block copies.  The recorded rate is
    the headline number for the third execution tier and must hold
    >= 5x the scalar ``long_run`` rate measured in the same session.
    """
    vectorised = Simulator(build_paper_ip("IP_A").netlist, engine="vectorised")
    scalar = Simulator(build_paper_ip("IP_A").netlist, engine="compiled")
    assert vectorised._engine.tier == "vectorised"
    cycles = 1024 * PERIOD_CYCLES

    seconds = _best_of(lambda: vectorised.run(cycles), 5)
    benchmark.pedantic(vectorised.run, args=(cycles,), rounds=5, iterations=1)

    update = {
        "long_run_vectorised": {
            "design": "IP_A",
            "cycles": cycles,
            "compiled_cycles_per_sec": cycles / seconds,
        }
    }
    data = _merge_results(update)
    scalar_rate = data.get("long_run", {}).get("compiled_cycles_per_sec")
    ratio = (cycles / seconds) / scalar_rate if scalar_rate else float("nan")
    print(
        f"\nvectorised {cycles}-cycle run: {cycles / seconds:,.0f} cyc/s "
        f"({ratio:.1f}x the scalar long_run rate)"
    )
    # The tentpole claim: the kernel tier must clearly beat the scalar
    # generated loop on long runs, not merely edge past it.
    if scalar_rate:
        assert cycles / seconds >= 5.0 * scalar_rate
    # Equivalence spot check rides along with the timing (a short run,
    # so the scalar oracle stays cheap).
    check = 4 * PERIOD_CYCLES
    assert np.array_equal(
        vectorised.run(check).matrix, scalar.run(check).matrix
    )
