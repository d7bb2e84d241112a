"""Tests for FSM synthesis into netlists."""

from repro.fsm.builder import build_fsm
from repro.fsm.counters import binary_counter_machine
from repro.fsm.machine import MooreMachine
from repro.hdl.netlist import Netlist
from repro.hdl.simulator import Simulator


def traffic_light():
    transitions = {"red": "green", "green": "yellow", "yellow": "red"}
    return MooreMachine(["red", "green", "yellow"], transitions, "red")


class TestStateWidth:
    def test_binary_width(self):
        for n_states, width in ((3, 2), (256, 8), (1, 1)):
            machine = MooreMachine(
                range(n_states), {i: (i + 1) % n_states for i in range(n_states)}, 0
            )
            assert build_fsm(Netlist("fsm"), machine).width == width


class TestBuildFSM:
    def simulate(self, machine, cycles=9):
        netlist = Netlist("fsm")
        build_fsm(netlist, machine)
        return Simulator(netlist).state_sequence("fsm_reg", cycles)

    def test_binary_encoding_follows_machine(self):
        sequence = self.simulate(traffic_light())
        # red=0 -> green=1 -> yellow=2 -> red=0 ...
        assert sequence == [1, 2, 0, 1, 2, 0, 1, 2, 0]

    def test_initial_state_is_reset_value(self):
        machine = MooreMachine(["a", "b"], {"a": "b", "b": "a"}, "b")
        netlist = Netlist("fsm")
        register = build_fsm(netlist, machine)
        assert register.reset_value == 1

    def test_synthesised_counter_matches_native(self):
        machine = binary_counter_machine(6)
        sequence = self.simulate(machine, cycles=70)
        assert sequence == [(i + 1) % 64 for i in range(70)]

    def test_watermark_attaches_to_synthesised_fsm(self):
        from repro.fsm.watermark import attach_leakage_component

        netlist = Netlist("fsm")
        build_fsm(netlist, traffic_light())
        attach_leakage_component(netlist, netlist.wires["fsm_state"], 0x42)
        netlist.validate()
        trace = Simulator(netlist).run(12)
        assert trace.n_cycles == 12
