"""Synthesis of abstract Moore machines into netlists.

Given a :class:`~repro.fsm.machine.MooreMachine`, the builder emits a
binary-encoded state register plus table-driven next-state logic — the
canonical synchronous FSM realisation.  This is how arbitrary
(non-counter) FSMs enter the power-simulation flow, demonstrating the
paper's claim that the method "can be adapted to any kind of digital
systems which possess a FSM".
"""

from __future__ import annotations

from repro.fsm.machine import MooreMachine
from repro.hdl.combinational import TransitionTable
from repro.hdl.io import ClockTree
from repro.hdl.netlist import Netlist
from repro.hdl.register import DRegister

#: Clock-tree load charged per register bit.
CLOCK_LOAD_PER_BIT = 1.5


def build_fsm(
    netlist: Netlist, machine: MooreMachine, prefix: str = "fsm"
) -> DRegister:
    """Synthesise ``machine`` into ``netlist``.

    States are binary-encoded in definition order (the first state is
    code 0).  Returns the state register; the wire ``{prefix}_state``
    carries the encoded state and is the hook point for the watermark
    component.
    """
    codes = {state: index for index, state in enumerate(machine.states)}
    width = max(1, (machine.n_states - 1).bit_length())
    table = {
        codes[state]: codes[machine.successor(state)] for state in machine.states
    }

    state = netlist.wire(f"{prefix}_state", width, codes[machine.initial_state])
    next_state = netlist.wire(f"{prefix}_next", width)
    netlist.add(TransitionTable(f"{prefix}_logic", state, next_state, table))
    register = DRegister(
        f"{prefix}_reg", next_state, state, reset_value=codes[machine.initial_state]
    )
    netlist.add(register)
    netlist.add(ClockTree(f"{prefix}_clk", CLOCK_LOAD_PER_BIT * width))
    return register
