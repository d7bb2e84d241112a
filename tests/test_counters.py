"""Tests for counter machines and their netlist realisations."""

import pytest

from repro.fsm.counters import (
    binary_counter_machine,
    build_binary_counter,
    build_gray_counter,
    gray_counter_machine,
    johnson_counter_machine,
    lfsr_machine,
)
from repro.fsm.encoding import gray_encode
from repro.fsm.properties import period
from repro.hdl.netlist import Netlist
from repro.hdl.simulator import Simulator


class TestAbstractCounters:
    def test_binary_counter_sequence(self):
        machine = binary_counter_machine(4)
        assert machine.run(6) == [0, 1, 2, 3, 4, 5]

    def test_binary_counter_period(self):
        assert period(binary_counter_machine(8)) == 256

    def test_gray_counter_states_are_gray_codes(self):
        machine = gray_counter_machine(4)
        assert set(machine.states) == {gray_encode(i, 4) for i in range(16)}

    def test_gray_counter_sequence(self):
        machine = gray_counter_machine(3)
        assert machine.run(8) == [0, 1, 3, 2, 6, 7, 5, 4]

    def test_gray_counter_period(self):
        assert period(gray_counter_machine(8)) == 256

    def test_johnson_counter_period(self):
        assert period(johnson_counter_machine(8)) == 16

    def test_counters_are_permutations(self):
        # One cycle through every state: each state has in-degree one.
        for machine in (
            binary_counter_machine(4),
            gray_counter_machine(4),
            johnson_counter_machine(4),
        ):
            assert period(machine) == machine.n_states


class TestLFSR:
    def test_maximal_length_4bit(self):
        # Taps (3, 2) give the maximal 15-state sequence for width 4
        # with the shift-left Fibonacci form used here.
        machine = lfsr_machine(4, taps=[3, 2], seed=1)
        assert period(machine) == 15

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            lfsr_machine(4, taps=[3, 2], seed=0)

    def test_bad_tap_rejected(self):
        with pytest.raises(ValueError):
            lfsr_machine(4, taps=[4], seed=1)

    def test_state_zero_not_reachable(self):
        machine = lfsr_machine(4, taps=[3, 2], seed=1)
        assert 0 not in machine.run(30)


class TestBinaryCounterNetlist:
    def test_matches_abstract_machine(self):
        netlist = Netlist("bin")
        build_binary_counter(netlist, 8)
        simulator = Simulator(netlist)
        hardware = simulator.state_sequence("ctr_reg", 300)
        machine = binary_counter_machine(8)
        software = machine.run(301)[1:]
        assert hardware == software

    def test_returns_state_register(self):
        netlist = Netlist("bin")
        register = build_binary_counter(netlist, 8)
        assert register.name == "ctr_reg"
        assert register.width == 8

    def test_custom_prefix(self):
        netlist = Netlist("bin")
        build_binary_counter(netlist, 8, prefix="x")
        assert "x_state" in netlist.wires


class TestGrayCounterNetlist:
    def test_matches_abstract_machine(self):
        netlist = Netlist("gray")
        build_gray_counter(netlist, 8)
        simulator = Simulator(netlist)
        hardware = simulator.state_sequence("ctr_reg", 300)
        expected = [gray_encode((i + 1) % 256, 8) for i in range(300)]
        assert hardware == expected

    def test_state_register_hd_is_constant_one(self):
        netlist = Netlist("gray")
        build_gray_counter(netlist, 8)
        trace = Simulator(netlist).run(256)
        series = trace.component_series("ctr_reg")
        assert set(series) == {1.0}

    def test_internal_binary_register_ripples(self):
        netlist = Netlist("gray")
        build_gray_counter(netlist, 8)
        trace = Simulator(netlist).run(8)
        series = trace.component_series("ctr_binreg")
        assert list(series) == [1, 2, 1, 3, 1, 2, 1, 4]

    def test_both_counters_share_ripple_pattern(self):
        # The shared carry pattern is what correlates different IPs in
        # the paper's Table I.
        bin_netlist = Netlist("bin")
        build_binary_counter(bin_netlist, 8)
        gray_netlist = Netlist("gray")
        build_gray_counter(gray_netlist, 8)
        bin_trace = Simulator(bin_netlist).run(64).component_series("ctr_reg")
        gray_trace = Simulator(gray_netlist).run(64).component_series("ctr_binreg")
        assert list(bin_trace) == list(gray_trace)
