"""Baseline [12]: FSM watermarking by added states/transitions
(Torunoglu & Charbon-style).

The traditional FSM watermark "adds redundancy inside the FSM by adding
new states and/or new transitions".  A secret input word steers the
machine through the added states, whose outputs spell the author's
signature.  The paper's scheme deliberately avoids this (its leakage
component adds *no* edge or state to the FSM); this baseline exists to
measure what that buys:

* state overhead (extra states vs the original machine),
* verification again requires functional access to inputs/outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Tuple

from repro.fsm.machine import MealyMachine

State = Hashable
Symbol = Hashable


@dataclass(frozen=True)
class StateInsertionWatermark:
    """The secret steering word and the signature read back."""

    steering_word: Tuple[Symbol, ...]
    signature: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.steering_word:
            raise ValueError("steering word must be non-empty")
        if len(self.signature) != len(self.steering_word):
            raise ValueError("signature length must match the steering word")


@dataclass(frozen=True)
class EmbeddingStats:
    """Overhead accounting for the embedding."""

    original_states: int
    added_states: int

    @property
    def overhead_ratio(self) -> float:
        return self.added_states / self.original_states


def embed_state_insertion(
    machine: MealyMachine, watermark: StateInsertionWatermark
) -> Tuple[MealyMachine, EmbeddingStats]:
    """Embed the watermark by grafting a chain of new states.

    From the initial state, the first steering symbol enters the added
    chain; each correct symbol advances it and emits one signature
    symbol; any wrong symbol falls back to the original machine's
    behaviour from reset (so casual operation is unaffected after
    resynchronisation).  The final chain state returns to the initial
    state.
    """
    for symbol in watermark.steering_word:
        if symbol not in machine.alphabet:
            raise ValueError(f"steering symbol {symbol!r} not in the alphabet")

    chain = [f"__wm_state_{i}" for i in range(len(watermark.steering_word))]
    all_states = tuple(machine.states) + tuple(chain)
    original = set(machine.states)
    word = watermark.steering_word

    def transition(state: State, symbol: Symbol) -> State:
        if state in original:
            if state == machine.initial_state and symbol == word[0]:
                return chain[0]
            return machine.step(state, symbol)[0]
        index = chain.index(state)
        if index + 1 < len(word):
            if symbol == word[index + 1]:
                return chain[index + 1]
            return machine.initial_state
        return machine.initial_state

    def output(state: State, symbol: Symbol) -> int:
        if state in original:
            if state == machine.initial_state and symbol == word[0]:
                return watermark.signature[0]
            return machine.step(state, symbol)[1]
        index = chain.index(state)
        if index + 1 < len(word) and symbol == word[index + 1]:
            return watermark.signature[index + 1]
        return machine.step(machine.initial_state, symbol)[1]

    marked = MealyMachine(
        states=all_states,
        alphabet=machine.alphabet,
        transition=transition,
        output=output,
        initial_state=machine.initial_state,
    )
    stats = EmbeddingStats(
        original_states=len(machine.states), added_states=len(chain)
    )
    return marked, stats


def verify_state_insertion(
    machine: MealyMachine, watermark: StateInsertionWatermark
) -> bool:
    """Steer the machine with the secret word; check the signature."""
    _states, outputs = machine.run(watermark.steering_word)
    return tuple(outputs) == tuple(watermark.signature)
