"""Tests for the generic FSM models."""

import pytest

from repro.fsm.machine import FSMDefinitionError, MealyMachine, MooreMachine


def three_cycle():
    return MooreMachine(
        states=["a", "b", "c"],
        transitions={"a": "b", "b": "c", "c": "a"},
        initial_state="a",
        outputs={"a": 0, "b": 1, "c": 2},
    )


class TestMooreMachine:
    def test_run_from_initial(self):
        machine = three_cycle()
        assert machine.run(5) == ["a", "b", "c", "a", "b"]

    def test_run_from_custom_start(self):
        machine = three_cycle()
        assert machine.run(3, initial_state="b") == ["b", "c", "a"]

    def test_outputs(self):
        machine = three_cycle()
        assert machine.output("b") == 1

    def test_default_output_is_zero(self):
        machine = MooreMachine(["x"], {"x": "x"}, "x")
        assert machine.output("x") == 0

    def test_successor(self):
        assert three_cycle().successor("c") == "a"

    def test_n_states(self):
        assert three_cycle().n_states == 3

    def test_rejects_empty_states(self):
        with pytest.raises(FSMDefinitionError):
            MooreMachine([], {}, "a")

    def test_rejects_duplicate_states(self):
        with pytest.raises(FSMDefinitionError):
            MooreMachine(["a", "a"], {"a": "a"}, "a")

    def test_rejects_missing_transition(self):
        with pytest.raises(FSMDefinitionError, match="without outgoing"):
            MooreMachine(["a", "b"], {"a": "b"}, "a")

    def test_rejects_unknown_transition_target(self):
        with pytest.raises(FSMDefinitionError):
            MooreMachine(["a"], {"a": "z"}, "a")

    def test_rejects_unknown_transition_source(self):
        with pytest.raises(FSMDefinitionError):
            MooreMachine(["a"], {"a": "a", "z": "a"}, "a")

    def test_rejects_unknown_initial(self):
        with pytest.raises(FSMDefinitionError):
            MooreMachine(["a"], {"a": "a"}, "z")

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            three_cycle().run(0)

    def test_rejects_unknown_start_state(self):
        with pytest.raises(FSMDefinitionError):
            three_cycle().run(2, initial_state="zzz")


def toggle_mealy():
    return MealyMachine(
        states=["off", "on"],
        alphabet=[0, 1],
        transition=lambda s, x: ("on" if s == "off" else "off") if x == 1 else s,
        output=lambda s, x: 1 if s == "on" else 0,
        initial_state="off",
    )


class TestMealyMachine:
    def test_step(self):
        machine = toggle_mealy()
        next_state, output = machine.step("off", 1)
        assert next_state == "on"
        assert output == 0

    def test_run_collects_outputs(self):
        machine = toggle_mealy()
        states, outputs = machine.run([1, 0, 1])
        assert states == ["off", "on", "on", "off"]
        assert outputs == [0, 1, 1]

    def test_rejects_unknown_symbol(self):
        with pytest.raises(ValueError):
            toggle_mealy().step("off", 7)

    def test_rejects_empty_alphabet(self):
        with pytest.raises(FSMDefinitionError):
            MealyMachine(["a"], [], lambda s, x: s, lambda s, x: 0, "a")

    def test_rejects_transition_leaving_state_space(self):
        machine = MealyMachine(
            ["a"], [0], lambda s, x: "zzz", lambda s, x: 0, "a"
        )
        with pytest.raises(FSMDefinitionError):
            machine.step("a", 0)
