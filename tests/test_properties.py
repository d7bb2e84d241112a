"""Tests for FSM property analysis."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fsm.counters import (
    binary_counter_machine,
    johnson_counter_machine,
)
from repro.fsm.encoding import gray_encode
from repro.fsm.machine import MooreMachine
from repro.fsm.properties import (
    hd_sequence,
    linearity_score,
    period,
    transient_length,
    verification_sequence_length,
)


def rho_machine():
    """A machine with a 3-step transient tail into a 4-cycle."""
    transitions = {
        "t0": "t1", "t1": "t2", "t2": "c0",
        "c0": "c1", "c1": "c2", "c2": "c3", "c3": "c0",
    }
    return MooreMachine(list(transitions), transitions, "t0")


class TestPeriod:
    def test_pure_cycle(self):
        assert period(binary_counter_machine(8)) == 256

    def test_rho_shape(self):
        assert period(rho_machine()) == 4

    def test_fixed_point(self):
        machine = MooreMachine(["x"], {"x": "x"}, "x")
        assert period(machine) == 1

    def test_period_from_inside_cycle(self):
        assert period(rho_machine(), start="c2") == 4


class TestTransient:
    def test_pure_cycle_has_no_transient(self):
        assert transient_length(binary_counter_machine(4)) == 0

    def test_rho_transient(self):
        assert transient_length(rho_machine()) == 3

    def test_transient_from_cycle_state(self):
        assert transient_length(rho_machine(), start="c0") == 0


class TestLinearity:
    def test_gray_counter_is_maximally_linear(self):
        codes = [gray_encode(i, 8) for i in range(256)] + [gray_encode(0, 8)]
        assert linearity_score(codes) == 1.0

    def test_binary_counter_score_between_extremes(self):
        # The geometric carry-length histogram has about two bits of
        # entropy over eight observed values: score ~ 1 - 2/3.
        codes = list(range(256)) + [0]
        score = linearity_score(codes)
        assert 0.25 < score < 1.0

    def test_random_walk_is_less_linear_than_counter(self, rng):
        random_codes = list(rng.integers(0, 256, size=257))
        counter_codes = list(range(256)) + [0]
        assert linearity_score(random_codes) < linearity_score(counter_codes)

    def test_hd_sequence(self):
        assert hd_sequence([0, 1, 3]) == [1, 1]

    def test_hd_sequence_needs_two(self):
        with pytest.raises(ValueError):
            hd_sequence([0])


class TestVerificationLength:
    def test_counter_needs_one_period(self):
        machine = binary_counter_machine(8)
        assert verification_sequence_length(machine) == 256

    def test_margin_multiplies_period(self):
        machine = johnson_counter_machine(8)
        assert verification_sequence_length(machine, margin=3) == 48

    def test_transient_is_added(self):
        assert verification_sequence_length(rho_machine()) == 3 + 4

    def test_rejects_zero_margin(self):
        with pytest.raises(ValueError):
            verification_sequence_length(rho_machine(), margin=0)

    @given(st.integers(min_value=2, max_value=6))
    def test_period_divides_reachable_count_for_counters(self, width):
        machine = binary_counter_machine(width)
        assert period(machine) == machine.n_states
