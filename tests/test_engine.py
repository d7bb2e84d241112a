"""Golden equivalence tests: compiled engine vs interpreted oracle.

The compiled engine must be *bit-identical* to the interpreted
reference loop — same channel tuples, exactly equal activity matrices,
same state sequences, same post-run netlist state — for every paper
design and for every component type the lowering pass supports.
"""

import numpy as np
import pytest

from repro.acquisition.device import (
    Device,
    clear_fleet_activity_cache,
    fleet_activity_cache_size,
)
from repro.experiments.designs import (
    PAPER_IP_NAMES,
    PERIOD_CYCLES,
    build_device_fleet,
    build_paper_ip,
)
from repro.fsm.counters import (
    build_binary_counter,
    build_gray_counter,
    build_johnson_counter,
    build_lfsr,
)
from repro.fsm.watermark import (
    attach_leakage_component,
    attach_wide_leakage_component,
)
from repro.hdl import (
    CompileError,
    Constant,
    DRegister,
    GrayToBinary,
    InputPort,
    LookupLogic,
    Mux2,
    Netlist,
    Simulator,
    TransitionTable,
    compile_netlist,
)
from repro.hdl.component import Component
from repro.power.models import PowerModel


def engine_pair(build):
    """Two identically built netlists, one per engine."""
    compiled_netlist, interpreted_netlist = Netlist("n"), Netlist("n")
    build(compiled_netlist)
    build(interpreted_netlist)
    return (
        Simulator(compiled_netlist, engine="compiled"),
        Simulator(interpreted_netlist, engine="interpreted"),
    )


def assert_equivalent(build, cycles):
    compiled, interpreted = engine_pair(build)
    trace_c = compiled.run(cycles)
    trace_i = interpreted.run(cycles)
    assert trace_c.channels == trace_i.channels
    assert np.array_equal(trace_c.matrix, trace_i.matrix)
    # Continuation without reset must agree too (post-run state parity).
    cont_c = compiled.run(max(cycles // 3, 1), reset=False)
    cont_i = interpreted.run(max(cycles // 3, 1), reset=False)
    assert np.array_equal(cont_c.matrix, cont_i.matrix)
    return compiled, interpreted


class TestPaperDesignEquivalence:
    @pytest.mark.parametrize("ip_name", PAPER_IP_NAMES)
    def test_watermarked_designs_bit_identical(self, ip_name):
        compiled = Simulator(build_paper_ip(ip_name).netlist, engine="compiled")
        interpreted = Simulator(
            build_paper_ip(ip_name).netlist, engine="interpreted"
        )
        trace_c = compiled.run(PERIOD_CYCLES)
        trace_i = interpreted.run(PERIOD_CYCLES)
        assert compiled.engine_name == "compiled"
        assert trace_c.channels == trace_i.channels
        assert np.array_equal(trace_c.matrix, trace_i.matrix)

    @pytest.mark.parametrize("ip_name", PAPER_IP_NAMES)
    def test_unwatermarked_designs_bit_identical(self, ip_name):
        compiled = Simulator(
            build_paper_ip(ip_name, watermarked=False).netlist, engine="compiled"
        )
        interpreted = Simulator(
            build_paper_ip(ip_name, watermarked=False).netlist,
            engine="interpreted",
        )
        assert np.array_equal(
            compiled.run(PERIOD_CYCLES).matrix,
            interpreted.run(PERIOD_CYCLES).matrix,
        )

    @pytest.mark.parametrize("ip_name", PAPER_IP_NAMES)
    def test_post_reset_state_sequences(self, ip_name):
        compiled = Simulator(build_paper_ip(ip_name).netlist, engine="compiled")
        interpreted = Simulator(
            build_paper_ip(ip_name).netlist, engine="interpreted"
        )
        for register in ("ctr_reg", "wm_hreg"):
            assert compiled.state_sequence(
                register, PERIOD_CYCLES
            ) == interpreted.state_sequence(register, PERIOD_CYCLES)

    def test_long_run_memoised_path(self):
        # Beyond the design's 256-cycle period the compiled runner tiles
        # the periodic suffix; results must stay exactly equal.
        compiled = Simulator(build_paper_ip("IP_B").netlist, engine="compiled")
        interpreted = Simulator(
            build_paper_ip("IP_B").netlist, engine="interpreted"
        )
        assert np.array_equal(
            compiled.run(1000).matrix, interpreted.run(1000).matrix
        )


class TestComponentZooEquivalence:
    def test_johnson_counter(self):
        assert_equivalent(lambda n: build_johnson_counter(n, 8), 64)

    def test_lfsr(self):
        assert_equivalent(lambda n: build_lfsr(n, 8, [7, 5, 4, 3]), 300)

    def test_wide_state_fold(self):
        def build(n):
            build_gray_counter(n, 12)
            attach_leakage_component(n, n.wires["ctr_state"], 0x5A)

        assert_equivalent(build, 128)

    def test_narrow_state_widen(self):
        def build(n):
            build_johnson_counter(n, 4)
            attach_leakage_component(n, n.wires["ctr_state"], 0x11)

        assert_equivalent(build, 40)

    def test_wide_leakage_component(self):
        def build(n):
            build_gray_counter(n, 8)
            attach_wide_leakage_component(n, n.wires["ctr_state"], 0xBEEF)

        assert_equivalent(build, 128)

    def test_mux_and_gray_decode(self):
        def build(n):
            build_gray_counter(n, 8, prefix="c")
            select = n.wire("sel", 1)
            alt = n.wire("alt", 8)
            out = n.wire("out", 8)
            decoded = n.wire("dec", 8)
            n.add(Constant("ca", alt, 0x0F))
            n.add(LookupLogic("selbit", (n.wires["c_state"],), select, lambda v: v & 1))
            n.add(Mux2("mux", select, alt, n.wires["c_state"], out))
            n.add(GrayToBinary("g2b", out, decoded))

        assert_equivalent(build, 80)

    def test_transition_table(self):
        def build(n):
            state = n.wire("st", 3)
            nxt = n.wire("nx", 3)
            n.add(
                TransitionTable(
                    "tt", state, nxt, {i: (3 * i + 1) % 8 for i in range(8)}
                )
            )
            n.add(DRegister("reg", nxt, state, reset_value=2))

        assert_equivalent(build, 30)

    def test_input_ports(self):
        def build(n):
            data = n.wire("data", 4)
            q = n.wire("q", 4)
            n.add(InputPort("in", data, stimulus=lambda c: (5 * c) % 16))
            n.add(DRegister("reg", data, q))

        compiled, interpreted = assert_equivalent(build, 40)
        # Stimulus closures cannot be fingerprinted.
        assert compiled.structural_key is None

    def test_partial_transition_table_raises_same_error(self):
        def build(n):
            state = n.wire("st", 3)
            nxt = n.wire("nx", 3)
            n.add(TransitionTable("tt", state, nxt, {0: 1, 1: 2}))
            n.add(DRegister("reg", nxt, state))

        compiled, interpreted = engine_pair(build)
        with pytest.raises(KeyError) as err_i:
            interpreted.run(8)
        with pytest.raises(KeyError) as err_c:
            compiled.run(8)
        assert str(err_c.value) == str(err_i.value)


class TestEngineSelection:
    def test_auto_prefers_compiled(self):
        simulator = Simulator(build_paper_ip("IP_A").netlist)
        assert simulator.engine_name == "compiled"
        assert simulator.structural_key is not None

    def test_unknown_component_falls_back(self):
        class Exotic(Component):
            pass

        netlist = Netlist("x")
        build_binary_counter(netlist, 4)
        netlist.add(Exotic("weird"))
        simulator = Simulator(netlist)
        assert simulator.engine_name == "interpreted"
        with pytest.raises(CompileError):
            Simulator(netlist, engine="compiled")

    def test_invalid_engine_name(self):
        with pytest.raises(ValueError):
            Simulator(build_paper_ip("IP_A").netlist, engine="turbo")

    def test_netlist_growth_triggers_recompile(self):
        netlist = Netlist("grow")
        build_binary_counter(netlist, 4, prefix="a")
        simulator = Simulator(netlist, engine="compiled")
        before = simulator.run(8)
        build_binary_counter(netlist, 4, prefix="b")
        after = simulator.run(8)
        assert after.n_channels > before.n_channels

    def test_first_run_without_reset_matches_oracle(self):
        # Regression: constants must be driven inside the step loop too;
        # on a never-reset netlist their wires still hold the power-on
        # initial, and cycle 0 must observe that transition exactly as
        # the interpreted oracle does.
        def build(netlist):
            key = netlist.wire("key", 8)
            state = netlist.wire("state", 8)
            mixed = netlist.wire("mixed", 8)
            netlist.add(Constant("k", key, 0x0A))
            netlist.add(LookupLogic("mix", (key, state), mixed, lambda a, b: a ^ b))
            netlist.add(DRegister("reg", mixed, state))

        compiled, interpreted = engine_pair(build)
        trace_c = compiled.run(6, reset=False)
        trace_i = interpreted.run(6, reset=False)
        assert np.array_equal(trace_c.matrix, trace_i.matrix)
        assert np.any(trace_i.matrix > 0)
        assert compiled.netlist.wires["key"].value == 0x0A

    def test_interleaved_engines_share_netlist_state(self):
        # Compiled writes its final state back onto the netlist objects,
        # so an interpreted continuation picks up where it left off.
        netlist = Netlist("mix")
        build_binary_counter(netlist, 8)
        compiled = Simulator(netlist, engine="compiled")
        compiled.run(10)
        interpreted = Simulator(netlist, engine="interpreted")
        continued = interpreted.run(6, reset=False)

        oracle_netlist = Netlist("mix")
        build_binary_counter(oracle_netlist, 8)
        oracle = Simulator(oracle_netlist, engine="interpreted")
        oracle.run(10)
        expected = oracle.run(6, reset=False)
        assert np.array_equal(continued.matrix, expected.matrix)


class TestStructuralFingerprint:
    def test_same_structure_same_key(self):
        keys = set()
        for _ in range(2):
            simulator = Simulator(build_paper_ip("IP_C").netlist)
            keys.add(simulator.structural_key)
        assert len(keys) == 1

    def test_key_distinguishes_watermark_keys(self):
        key_c = Simulator(build_paper_ip("IP_C").netlist).structural_key
        key_d = Simulator(build_paper_ip("IP_D").netlist).structural_key
        assert key_c != key_d

    def test_key_ignores_netlist_name(self):
        ip = build_paper_ip("IP_A")
        key_before = Simulator(ip.netlist).structural_key
        ip.netlist.name = "some_device_label"
        assert Simulator(ip.netlist).structural_key == key_before

    def test_lowered_closures_are_fingerprintable(self):
        # LFSR feedback is a closure, but tablefication canonicalises it.
        def build(taps):
            netlist = Netlist("l")
            build_lfsr(netlist, 8, taps)
            return Simulator(netlist).structural_key

        assert build([7, 5, 4, 3]) == build([7, 5, 4, 3])
        assert build([7, 5, 4, 3]) != build([7, 5, 3, 2])


class TestFleetActivitySharing:
    def test_fleet_simulates_each_distinct_netlist_once(self):
        clear_fleet_activity_cache()
        refds, duts = build_device_fleet(seed=2014)
        for device in (*refds.values(), *duts.values()):
            device.activity()
        assert fleet_activity_cache_size() == len(refds)

    def test_matching_pairs_share_trace_objects(self):
        clear_fleet_activity_cache()
        refds, duts = build_device_fleet(seed=2014)
        assert refds["IP_A"].activity() is duts["DUT#1"].activity()
        assert refds["IP_B"].activity() is duts["DUT#2"].activity()
        assert refds["IP_B"].activity() is not duts["DUT#3"].activity()

    def test_device_caches_its_one_activity(self):
        clear_fleet_activity_cache()
        ip = build_paper_ip("IP_A")
        device = Device("dev", ip, PowerModel(), default_cycles=64)
        assert device.activity() is device.activity()
        assert device.activity().n_cycles == 64


class TestProgramSharing:
    def test_identical_structures_share_one_program(self):
        from repro.hdl.engine import (
            clear_program_cache,
            compile_netlist,
            program_cache_size,
        )

        clear_program_cache()
        first = compile_netlist(build_paper_ip("IP_B").netlist)
        second = compile_netlist(build_paper_ip("IP_B").netlist)
        trace_a = first.run(32)
        trace_b = second.run(32)
        assert program_cache_size() == 1
        assert second.program_shared and not first.program_shared
        assert second._run is first._run
        assert np.array_equal(trace_a.matrix, trace_b.matrix)

    def test_distinct_structures_get_distinct_programs(self):
        from repro.hdl.engine import (
            clear_program_cache,
            compile_netlist,
            program_cache_size,
        )

        clear_program_cache()
        compile_netlist(build_paper_ip("IP_C").netlist).run(16)
        compile_netlist(build_paper_ip("IP_D").netlist).run(16)
        assert program_cache_size() == 2

    def test_shared_program_keeps_netlists_independent(self):
        from repro.hdl.engine import clear_program_cache, compile_netlist

        clear_program_cache()
        ip_one = build_paper_ip("IP_A")
        ip_two = build_paper_ip("IP_A")
        engine_one = compile_netlist(ip_one.netlist)
        engine_two = compile_netlist(ip_two.netlist)
        engine_one.run(10)
        engine_two.run(3)
        # Each netlist's write-back state reflects its own run length.
        state_one = ip_one.state_register.q.value
        state_two = ip_two.state_register.q.value
        assert state_one == 10 % 256
        assert state_two == 3 % 256

    def test_fleet_compiles_each_structure_once(self):
        from repro.hdl.engine import clear_program_cache, program_cache_size

        clear_program_cache()
        clear_fleet_activity_cache()
        refds, duts = build_device_fleet(seed=2014)
        for device in (*refds.values(), *duts.values()):
            device.activity()
        assert program_cache_size() <= len(refds)
