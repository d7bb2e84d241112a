"""Golden equivalence tests for batched fleet execution.

The batched engine path must be *byte-identical* to the per-device
compiled path (which is itself bit-identical to the interpreted
oracle): same channel tuples, exactly equal activity matrices, same
post-run netlist state — for every paper design, for ragged batches
(different cycle counts, different reset states), for batch size 1 and
for memoised long runs.  Batching is an execution strategy, never a
semantic choice.
"""

import numpy as np
import pytest

from repro.acquisition.device import (
    clear_fleet_activity_cache,
    fleet_activity_cache_size,
    prime_fleet_activity,
)
from repro.experiments.designs import (
    PAPER_IP_NAMES,
    PERIOD_CYCLES,
    build_device_fleet,
    build_ip,
    build_paper_ip,
)
from repro.fsm.counters import build_gray_counter, build_lfsr
from repro.hdl import (
    Constant,
    DRegister,
    LookupLogic,
    Mux2,
    Netlist,
    Simulator,
    TransitionTable,
    compile_netlist,
    run_batch,
    simulate_batch,
)
from repro.hdl.component import Component
from repro.hdl.engine import (
    MEMO_MIN_CYCLES,
    batch_program_cache_size,
    clear_program_cache,
)


def compiled_trace(build, cycles, reset=True):
    netlist = Netlist("ref")
    build(netlist)
    simulator = Simulator(netlist, engine="compiled")
    return simulator.run(cycles, reset=reset)


def interpreted_trace(build, cycles, reset=True):
    netlist = Netlist("ref")
    build(netlist)
    simulator = Simulator(netlist, engine="interpreted")
    return simulator.run(cycles, reset=reset)


def batch_of(builders):
    """Compile one engine per builder; all must share a shape."""
    engines = []
    for build in builders:
        netlist = Netlist("lane")
        build(netlist)
        engines.append(compile_netlist(netlist))
    assert len({engine.shape_key for engine in engines}) == 1
    return engines


class TestPaperDesignBatchEquivalence:
    @pytest.mark.parametrize("ip_name", PAPER_IP_NAMES)
    def test_homogeneous_batch_matches_both_engines(self, ip_name):
        engines = [
            compile_netlist(build_paper_ip(ip_name).netlist) for _ in range(3)
        ]
        traces = run_batch(engines, PERIOD_CYCLES)
        scalar = Simulator(
            build_paper_ip(ip_name).netlist, engine="compiled"
        ).run(PERIOD_CYCLES)
        oracle = Simulator(
            build_paper_ip(ip_name).netlist, engine="interpreted"
        ).run(PERIOD_CYCLES)
        for trace in traces:
            assert trace.channels == scalar.channels == oracle.channels
            assert np.array_equal(trace.matrix, scalar.matrix)
            assert np.array_equal(trace.matrix, oracle.matrix)

    def test_mixed_key_fleet_shares_one_shape(self):
        # IP_B / IP_C / IP_D: same gray-counter shape, three watermark
        # keys -> three structural fingerprints, one batched execution.
        names = ("IP_B", "IP_C", "IP_D")
        engines = [compile_netlist(build_paper_ip(n).netlist) for n in names]
        assert len({e.structural_key for e in engines}) == 3
        assert len({e.shape_key for e in engines}) == 1
        traces = run_batch(engines, PERIOD_CYCLES)
        for name, trace in zip(names, traces):
            reference = Simulator(
                build_paper_ip(name).netlist, engine="compiled"
            ).run(PERIOD_CYCLES)
            assert trace.channels == reference.channels
            assert np.array_equal(trace.matrix, reference.matrix)

    def test_binary_and_gray_have_distinct_shapes(self):
        key_a = compile_netlist(build_paper_ip("IP_A").netlist).shape_key
        key_b = compile_netlist(build_paper_ip("IP_B").netlist).shape_key
        assert key_a != key_b

    def test_batch_size_one(self):
        engine = compile_netlist(build_paper_ip("IP_C").netlist)
        (trace,) = run_batch([engine], 100)
        reference = Simulator(
            build_paper_ip("IP_C").netlist, engine="compiled"
        ).run(100)
        assert np.array_equal(trace.matrix, reference.matrix)

    def test_write_back_matches_scalar_run(self):
        batched_ip = build_paper_ip("IP_B")
        scalar_ip = build_paper_ip("IP_B")
        run_batch([compile_netlist(batched_ip.netlist)], 37)
        Simulator(scalar_ip.netlist, engine="compiled").run(37)
        for batched_wire, scalar_wire in zip(
            batched_ip.netlist.wires.values(), scalar_ip.netlist.wires.values()
        ):
            assert batched_wire.value == scalar_wire.value
            assert batched_wire.previous == scalar_wire.previous
        assert (
            batched_ip.state_register._last_toggles
            == scalar_ip.state_register._last_toggles
        )

    def test_continuation_without_reset(self):
        engines = [
            compile_netlist(build_paper_ip(name).netlist)
            for name in ("IP_B", "IP_C")
        ]
        run_batch(engines, 40)
        continued = run_batch(engines, 25, reset=False)
        for name, trace in zip(("IP_B", "IP_C"), continued):
            reference = Simulator(
                build_paper_ip(name).netlist, engine="compiled"
            )
            reference.run(40)
            expected = reference.run(25, reset=False)
            assert np.array_equal(trace.matrix, expected.matrix)


class TestRaggedBatches:
    def test_ragged_cycle_counts(self):
        keys = (3, 77, 200)
        engines = [
            compile_netlist(build_ip(f"ip{k}", "gray", k).netlist)
            for k in keys
        ]
        cycles = [50, 256, 301]
        traces = run_batch(engines, cycles)
        for key, count, trace in zip(keys, cycles, traces):
            reference = Simulator(
                build_ip("ref", "gray", key).netlist, engine="compiled"
            ).run(count)
            assert trace.n_cycles == count
            assert np.array_equal(trace.matrix, reference.matrix)

    def test_ragged_reset_states_and_tables(self):
        # LFSR lanes with different seeds (register reset values, wire
        # initials) *and* different taps (lookup tables) share a shape.
        lanes = [(9, [7, 5, 4, 3]), (1, [7, 5, 4, 3]), (33, [7, 5, 3, 2])]
        engines = batch_of(
            [
                (lambda n, s=seed, t=taps: build_lfsr(n, 8, t, seed=s))
                for seed, taps in lanes
            ]
        )
        traces = run_batch(engines, 120)
        for (seed, taps), trace in zip(lanes, traces):
            reference = compiled_trace(
                lambda n: build_lfsr(n, 8, taps, seed=seed), 120
            )
            oracle = interpreted_trace(
                lambda n: build_lfsr(n, 8, taps, seed=seed), 120
            )
            assert np.array_equal(trace.matrix, reference.matrix)
            assert np.array_equal(trace.matrix, oracle.matrix)

    def test_shape_mismatch_raises(self):
        engine_a = compile_netlist(build_paper_ip("IP_A").netlist)
        engine_b = compile_netlist(build_paper_ip("IP_B").netlist)
        with pytest.raises(ValueError):
            run_batch([engine_a, engine_b], 16)

    def test_cycle_count_validation(self):
        engine = compile_netlist(build_paper_ip("IP_A").netlist)
        with pytest.raises(ValueError):
            run_batch([engine], 0)
        with pytest.raises(ValueError):
            run_batch([engine, engine], [4])
        with pytest.raises(ValueError):
            run_batch([], 4)


class TestBatchedMemoisation:
    def test_long_run_tiles_each_lane(self):
        keys = (0x5A, 0xC3)
        engines = [
            compile_netlist(build_ip(f"ip{k}", "gray", k).netlist)
            for k in keys
        ]
        cycles = 4 * PERIOD_CYCLES
        assert cycles >= MEMO_MIN_CYCLES
        traces = run_batch(engines, cycles)
        for key, trace in zip(keys, traces):
            reference = Simulator(
                build_ip("ref", "gray", key).netlist, engine="compiled"
            ).run(cycles)
            assert np.array_equal(trace.matrix, reference.matrix)

    def test_ragged_memoised_run(self):
        # One lane stops inside the stepped prefix, one needs tiling
        # beyond it, with different periods (width-4 vs width-8 lanes
        # would differ in shape, so vary the period via reset state).
        engines = batch_of(
            [
                lambda n: build_lfsr(n, 8, [7, 5, 4, 3], seed=1),
                lambda n: build_lfsr(n, 8, [7, 5, 4, 3], seed=90),
            ]
        )
        cycles = [600, 3000]
        traces = run_batch(engines, cycles)
        for seed, count, trace in zip((1, 90), cycles, traces):
            reference = compiled_trace(
                lambda n: build_lfsr(n, 8, [7, 5, 4, 3], seed=seed), count
            )
            assert np.array_equal(trace.matrix, reference.matrix)

    def test_long_nonperiodic_batch_matches_scalar(self):
        # A design whose period exceeds the run length exercises the
        # memoising chunk loop's "no lane ever re-enters" path,
        # including buffer growth across several chunks.
        def build(netlist):
            from repro.fsm.counters import build_binary_counter

            build_binary_counter(netlist, 20)

        engines = batch_of([build, build])
        cycles = 3 * MEMO_MIN_CYCLES + 17
        traces = run_batch(engines, cycles)
        reference = compiled_trace(build, cycles)
        assert np.array_equal(traces[0].matrix, reference.matrix)
        assert np.array_equal(traces[1].matrix, reference.matrix)

    def test_memoised_matches_oracle(self):
        engines = [
            compile_netlist(build_paper_ip("IP_B").netlist) for _ in range(2)
        ]
        traces = run_batch(engines, 1000)
        oracle = Simulator(
            build_paper_ip("IP_B").netlist, engine="interpreted"
        ).run(1000)
        assert np.array_equal(traces[0].matrix, oracle.matrix)
        assert np.array_equal(traces[1].matrix, oracle.matrix)


class TestComponentZooBatching:
    def test_mux_constant_and_transition_table(self):
        def build(tables):
            def _build(netlist, table=tables):
                build_gray_counter(netlist, 4, prefix="c")
                state = netlist.wire("st", 3)
                nxt = netlist.wire("nx", 3)
                select = netlist.wire("sel", 1)
                alt = netlist.wire("alt", 3)
                out = netlist.wire("out", 3)
                netlist.add(TransitionTable("tt", state, nxt, table))
                netlist.add(DRegister("reg", nxt, state, reset_value=2))
                netlist.add(Constant("ca", alt, 0x5))
                netlist.add(
                    LookupLogic(
                        "selbit", (netlist.wires["c_state"],), select,
                        lambda v: v & 1,
                    )
                )
                netlist.add(Mux2("mux", select, alt, state, out))
            return _build

        tables = [
            {i: (3 * i + 1) % 8 for i in range(8)},
            {i: (5 * i + 2) % 8 for i in range(8)},
        ]
        engines = batch_of([build(t) for t in tables])
        traces = run_batch(engines, 60)
        for table, trace in zip(tables, traces):
            reference = compiled_trace(build(table), 60)
            oracle = interpreted_trace(build(table), 60)
            assert np.array_equal(trace.matrix, reference.matrix)
            assert np.array_equal(trace.matrix, oracle.matrix)

    def test_unreachable_transition_codes_are_tolerated(self):
        # A table entry for a code the width-masked state wire can
        # never carry is dead weight the scalar paths silently accept;
        # the densified batched table must accept it too.
        def build(netlist):
            state = netlist.wire("st", 4)
            nxt = netlist.wire("nx", 4)
            table = {i: (i + 1) % 16 for i in range(16)}
            table[16] = 0
            netlist.add(TransitionTable("tt", state, nxt, table))
            netlist.add(DRegister("reg", nxt, state))

        engines = batch_of([build, build])
        traces = run_batch(engines, 20)
        reference = compiled_trace(build, 20)
        assert np.array_equal(traces[0].matrix, reference.matrix)

    def test_partial_transition_table_raises_key_error(self):
        def build(netlist):
            state = netlist.wire("st", 3)
            nxt = netlist.wire("nx", 3)
            netlist.add(TransitionTable("tt", state, nxt, {0: 1, 1: 2}))
            netlist.add(DRegister("reg", nxt, state))

        engines = batch_of([build, build])
        with pytest.raises(KeyError) as batched_err:
            run_batch(engines, 8)
        with pytest.raises(KeyError) as scalar_err:
            compiled_trace(build, 8)
        assert str(batched_err.value) == str(scalar_err.value)

    def test_per_lane_glitch_factors(self):
        def build(glitch):
            def _build(netlist, g=glitch):
                build_gray_counter(netlist, 6, prefix="c")
                out = netlist.wire("lo", 6)
                netlist.add(
                    LookupLogic(
                        "lut", (netlist.wires["c_state"],), out,
                        lambda v: v ^ 0x15, glitch_factor=g,
                    )
                )
            return _build

        glitches = (0.25, 0.5, 1.5)
        engines = batch_of([build(g) for g in glitches])
        traces = run_batch(engines, 48)
        for glitch, trace in zip(glitches, traces):
            reference = compiled_trace(build(glitch), 48)
            assert np.array_equal(trace.matrix, reference.matrix)

    def test_input_ports_are_not_batchable(self):
        netlist = Netlist("ports")
        from repro.hdl import InputPort

        data = netlist.wire("data", 4)
        q = netlist.wire("q", 4)
        netlist.add(InputPort("in", data, stimulus=lambda c: c % 16))
        netlist.add(DRegister("reg", data, q))
        engine = compile_netlist(netlist)
        assert engine.shape_key is None
        from repro.hdl import CompileError

        with pytest.raises(CompileError):
            run_batch([engine], 8)


class TestSimulateBatch:
    def test_mixed_shapes_preserve_order(self):
        names = ("IP_A", "IP_B", "IP_C", "IP_D", "IP_A")
        simulators = [
            Simulator(build_paper_ip(name).netlist, engine="compiled")
            for name in names
        ]
        traces = simulate_batch(simulators, 128)
        for name, trace in zip(names, traces):
            reference = Simulator(
                build_paper_ip(name).netlist, engine="interpreted"
            ).run(128)
            assert trace.channels == reference.channels
            assert np.array_equal(trace.matrix, reference.matrix)

    def test_unbatchable_lanes_fall_back_to_scalar(self):
        class Exotic(Component):
            pass

        exotic = Netlist("x")
        build_gray_counter(exotic, 4)
        exotic.add(Exotic("weird"))
        simulators = [
            Simulator(build_paper_ip("IP_B").netlist),
            Simulator(exotic),
            Simulator(build_paper_ip("IP_C").netlist),
        ]
        assert simulators[1].engine_name == "interpreted"
        traces = simulate_batch(simulators, 32)
        for simulator, trace in zip(simulators, traces):
            fresh = Netlist("ref")
            build_gray_counter(fresh, 4)
            reference = (
                Simulator(fresh, engine="interpreted").run(32)
                if simulator is simulators[1]
                else Simulator(
                    build_paper_ip(
                        "IP_B" if simulator is simulators[0] else "IP_C"
                    ).netlist,
                    engine="interpreted",
                ).run(32)
            )
            assert np.array_equal(trace.matrix, reference.matrix)

    def test_duplicate_simulators_keep_sequential_semantics(self):
        # The same simulator listed twice with reset=False must behave
        # like the sequential loop: the second run continues from the
        # first run's final state, not from the shared starting state.
        simulator = Simulator(build_paper_ip("IP_B").netlist, engine="compiled")
        simulator.run(10)
        first, second = simulate_batch([simulator, simulator], 16, reset=False)
        reference = Simulator(build_paper_ip("IP_B").netlist, engine="compiled")
        reference.run(10)
        assert np.array_equal(first.matrix, reference.run(16, reset=False).matrix)
        assert np.array_equal(second.matrix, reference.run(16, reset=False).matrix)

    def test_per_simulator_cycles(self):
        simulators = [
            Simulator(build_paper_ip("IP_B").netlist, engine="compiled")
            for _ in range(2)
        ]
        short, long = simulate_batch(simulators, [16, 64])
        assert short.n_cycles == 16 and long.n_cycles == 64
        reference = Simulator(
            build_paper_ip("IP_B").netlist, engine="compiled"
        ).run(64)
        assert np.array_equal(long.matrix, reference.matrix)
        assert np.array_equal(short.matrix, reference.matrix[:16])


class TestBatchProgramSharing:
    def test_one_program_per_shape_and_uniformity(self):
        clear_program_cache()
        engines = [
            compile_netlist(build_ip(f"ip{k}", "gray", k).netlist)
            for k in range(4)
        ]
        run_batch(engines, 16)
        assert batch_program_cache_size() == 1
        run_batch(engines[:2], 16)
        assert batch_program_cache_size() == 1
        # Lanes with *different* lookup tables (LFSR taps) index by
        # lane, which is a distinct generated program from the same
        # shape with uniform tables.
        same_taps = batch_of(
            [
                lambda n: build_lfsr(n, 8, [7, 5, 4, 3], seed=1),
                lambda n: build_lfsr(n, 8, [7, 5, 4, 3], seed=9),
            ]
        )
        run_batch(same_taps, 16)
        assert batch_program_cache_size() == 2
        ragged_taps = batch_of(
            [
                lambda n: build_lfsr(n, 8, [7, 5, 4, 3], seed=1),
                lambda n: build_lfsr(n, 8, [7, 5, 3, 2], seed=1),
            ]
        )
        run_batch(ragged_taps, 16)
        assert batch_program_cache_size() == 3

    def test_uniform_and_ragged_batches_agree(self):
        twins = [
            compile_netlist(build_ip("twin", "gray", 7).netlist)
            for _ in range(2)
        ]
        mixed = [
            compile_netlist(build_ip("mix", "gray", k).netlist)
            for k in (7, 9)
        ]
        uniform_traces = run_batch(twins, 32)
        mixed_traces = run_batch(mixed, 32)
        assert np.array_equal(uniform_traces[0].matrix, mixed_traces[0].matrix)
        assert not np.array_equal(
            mixed_traces[0].matrix, mixed_traces[1].matrix
        )


class TestFleetPriming:
    def test_prime_fills_cache_with_batched_runs(self):
        clear_fleet_activity_cache()
        refds, duts = build_device_fleet(seed=2014)
        devices = (*refds.values(), *duts.values())
        simulated = prime_fleet_activity(devices)
        assert simulated == len(refds)
        assert fleet_activity_cache_size() == len(refds)
        # Every device is now a cache hit and matching pairs share
        # the exact trace object, as with the lazy path.
        assert refds["IP_B"].activity() is duts["DUT#2"].activity()

    def test_primed_bytes_equal_lazy_bytes(self):
        clear_fleet_activity_cache()
        primed_refds, primed_duts = build_device_fleet(seed=2014)
        prime_fleet_activity((*primed_refds.values(), *primed_duts.values()))
        clear_fleet_activity_cache()
        lazy_refds, lazy_duts = build_device_fleet(seed=2014)
        for name in primed_refds:
            assert np.array_equal(
                primed_refds[name].activity().matrix,
                lazy_refds[name].activity().matrix,
            )
        for name in primed_duts:
            assert np.array_equal(
                primed_duts[name].activity().matrix,
                lazy_duts[name].activity().matrix,
            )

    def test_prime_is_idempotent(self):
        clear_fleet_activity_cache()
        refds, duts = build_device_fleet(seed=2014)
        devices = (*refds.values(), *duts.values())
        assert prime_fleet_activity(devices) == len(refds)
        assert prime_fleet_activity(devices) == 0

    def test_prime_handles_interpreted_devices(self):
        clear_fleet_activity_cache()
        refds, _duts = build_device_fleet(seed=2014, engine="interpreted")
        device = refds["IP_A"]
        assert prime_fleet_activity([device], 32) == 0
        assert 32 in device._activity_cache
        reference = Simulator(
            build_paper_ip("IP_A").netlist, engine="interpreted"
        ).run(32)
        assert np.array_equal(device.activity(32).matrix, reference.matrix)
