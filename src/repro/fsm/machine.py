"""Generic finite state machines.

The paper targets the FSM of an arbitrary digital IP; this module
provides the abstract machine model the rest of the library builds on.
A :class:`MooreMachine` is defined by a transition map and per-state
outputs; :class:`MealyMachine` adds input-dependent outputs.  Both
expose the state sequence from any initial state, which the property
analysis (:mod:`repro.fsm.properties`) and the netlist builder
(:mod:`repro.fsm.builder`) consume.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

State = Hashable
Symbol = Hashable


class FSMDefinitionError(Exception):
    """The machine definition is inconsistent (missing transitions...)."""


class MooreMachine:
    """A deterministic Moore machine over a single implicit input.

    The paper's designs are input-independent ("it is not necessary to
    send specific input vectors"), so the core model is an autonomous
    machine: one successor per state.  Use :class:`MealyMachine` for
    input-dependent systems.
    """

    def __init__(
        self,
        states: Iterable[State],
        transitions: Dict[State, State],
        initial_state: State,
        outputs: Optional[Dict[State, int]] = None,
    ):
        self.states: Tuple[State, ...] = tuple(states)
        if not self.states:
            raise FSMDefinitionError("a machine needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise FSMDefinitionError("duplicate states in machine definition")
        state_set = set(self.states)
        for source, target in transitions.items():
            if source not in state_set:
                raise FSMDefinitionError(f"transition from unknown state {source!r}")
            if target not in state_set:
                raise FSMDefinitionError(f"transition to unknown state {target!r}")
        missing = state_set - set(transitions)
        if missing:
            raise FSMDefinitionError(
                f"states without outgoing transition: {sorted(map(repr, missing))}"
            )
        if initial_state not in state_set:
            raise FSMDefinitionError(f"unknown initial state {initial_state!r}")
        self.transitions = dict(transitions)
        self.initial_state = initial_state
        self.outputs = dict(outputs) if outputs is not None else {}

    @property
    def n_states(self) -> int:
        return len(self.states)

    def successor(self, state: State) -> State:
        """The unique successor of ``state``."""
        return self.transitions[state]

    def output(self, state: State) -> int:
        """Moore output in ``state`` (0 if no output map was given)."""
        return self.outputs.get(state, 0)

    def run(self, n_steps: int, initial_state: Optional[State] = None) -> List[State]:
        """State sequence of length ``n_steps`` starting from the initial
        state (the start state itself is the first element)."""
        if n_steps <= 0:
            raise ValueError(f"n_steps must be positive, got {n_steps}")
        state = self.initial_state if initial_state is None else initial_state
        if state not in self.transitions:
            raise FSMDefinitionError(f"unknown start state {state!r}")
        sequence = [state]
        for _step in range(n_steps - 1):
            state = self.successor(state)
            sequence.append(state)
        return sequence


class MealyMachine:
    """A deterministic Mealy machine with an explicit input alphabet."""

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable[Symbol],
        transition: Callable[[State, Symbol], State],
        output: Callable[[State, Symbol], int],
        initial_state: State,
    ):
        self.states = tuple(states)
        self.alphabet = tuple(alphabet)
        if not self.states:
            raise FSMDefinitionError("a machine needs at least one state")
        if not self.alphabet:
            raise FSMDefinitionError("a Mealy machine needs a non-empty alphabet")
        if initial_state not in set(self.states):
            raise FSMDefinitionError(f"unknown initial state {initial_state!r}")
        self._transition = transition
        self._output = output
        self.initial_state = initial_state

    def step(self, state: State, symbol: Symbol) -> Tuple[State, int]:
        """One transition: returns (next state, output)."""
        if symbol not in self.alphabet:
            raise ValueError(f"symbol {symbol!r} not in alphabet")
        next_state = self._transition(state, symbol)
        if next_state not in set(self.states):
            raise FSMDefinitionError(
                f"transition function left the state space: {next_state!r}"
            )
        return next_state, self._output(state, symbol)

    def run(self, symbols: Iterable[Symbol]) -> Tuple[List[State], List[int]]:
        """Feed a symbol sequence; returns (visited states, outputs)."""
        state = self.initial_state
        states = [state]
        outputs: List[int] = []
        for symbol in symbols:
            state, out = self.step(state, symbol)
            states.append(state)
            outputs.append(out)
        return states, outputs
