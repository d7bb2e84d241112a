"""Baseline [16]: output-mark watermark verification (Le Gal & Bossuet).

The comparator verifies a watermark by "reading the answer of the IC to
a specific input sequence": the embedder patches a Mealy machine so a
secret trigger input sequence makes the outputs spell a signature.

Contrast with the paper's scheme: verification requires functional
access to the IP's inputs and outputs, which is often unavailable once
the IP is embedded in a larger system — the motivation for the paper's
side-channel verification, which needs only the power pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Tuple

from repro.fsm.machine import MealyMachine

State = Hashable
Symbol = Hashable


@dataclass(frozen=True)
class OutputMark:
    """The secret trigger and the signature it must elicit."""

    trigger: Tuple[Symbol, ...]
    signature: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.trigger:
            raise ValueError("trigger sequence must be non-empty")
        if len(self.signature) != len(self.trigger):
            raise ValueError("signature must be as long as the trigger")


def embed_output_mark(
    machine: MealyMachine, mark: OutputMark
) -> MealyMachine:
    """Return a machine whose outputs spell the mark under the trigger.

    A parallel chain of fresh "mark states" shadows the original
    behaviour while the trigger is being consumed; any deviation from
    the trigger falls back into the original machine, so functional
    behaviour under normal inputs is preserved except for the output
    overrides on the exact trigger path.
    """
    for symbol in mark.trigger:
        if symbol not in machine.alphabet:
            raise ValueError(f"trigger symbol {symbol!r} not in the alphabet")

    chain_states = [f"__mark_{i}" for i in range(len(mark.trigger))]
    all_states = tuple(machine.states) + tuple(chain_states)
    original_states = set(machine.states)

    def transition(state: State, symbol: Symbol) -> State:
        if state in original_states:
            if state == machine.initial_state and symbol == mark.trigger[0]:
                return (
                    chain_states[0]
                    if len(chain_states) > 1
                    else _landing(state, symbol)
                )
            return machine.step(state, symbol)[0]
        index = chain_states.index(state)
        if index + 1 < len(mark.trigger) and symbol == mark.trigger[index + 1]:
            if index + 2 <= len(chain_states) - 1:
                return chain_states[index + 1]
            return _landing(state, symbol)
        # Wrong symbol: abandon the chain, resynchronise at reset state.
        return machine.initial_state

    def _landing(state: State, symbol: Symbol) -> State:
        # After the full trigger, resume normal operation from reset.
        return machine.initial_state

    def output(state: State, symbol: Symbol) -> int:
        if state in original_states:
            if state == machine.initial_state and symbol == mark.trigger[0]:
                return mark.signature[0]
            return machine.step(state, symbol)[1]
        index = chain_states.index(state)
        if index + 1 < len(mark.trigger) and symbol == mark.trigger[index + 1]:
            return mark.signature[index + 1]
        return machine.step(machine.initial_state, symbol)[1]

    return MealyMachine(
        states=all_states,
        alphabet=machine.alphabet,
        transition=transition,
        output=output,
        initial_state=machine.initial_state,
    )


def verify_output_mark(machine: MealyMachine, mark: OutputMark) -> bool:
    """Drive the trigger from reset and compare outputs to the signature."""
    _states, outputs = machine.run(mark.trigger)
    return tuple(outputs) == tuple(mark.signature)
