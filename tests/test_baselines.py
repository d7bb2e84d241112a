"""Tests for the related-work baseline schemes."""

import itertools

import numpy as np
import pytest

from repro.acquisition.bench import acquire_traces
from repro.acquisition.device import Device
from repro.baselines.becker import (
    BeckerDetector,
    attach_pn_leakage,
    pn_sequence,
)
from repro.baselines.output_mark import (
    OutputMark,
    embed_output_mark,
    verify_output_mark,
)
from repro.baselines.state_insertion import (
    StateInsertionWatermark,
    embed_state_insertion,
    verify_state_insertion,
)
from repro.fsm.counters import build_binary_counter
from repro.fsm.machine import MealyMachine
from repro.fsm.watermark import WatermarkedIP
from repro.hdl.netlist import Netlist
from repro.power.models import PowerModel


def simple_mealy():
    """A 4-state up/down saturating counter over inputs {0, 1}."""
    states = [0, 1, 2, 3]
    return MealyMachine(
        states=states,
        alphabet=[0, 1],
        transition=lambda s, x: min(s + 1, 3) if x else max(s - 1, 0),
        output=lambda s, x: s,
        initial_state=0,
    )


class TestOutputMark:
    MARK = OutputMark(trigger=(1, 0, 1), signature=(9, 8, 7))

    def test_embedded_machine_answers_trigger(self):
        marked = embed_output_mark(simple_mealy(), self.MARK)
        assert verify_output_mark(marked, self.MARK)

    def test_plain_machine_does_not_answer(self):
        assert not verify_output_mark(simple_mealy(), self.MARK)

    def test_collision_rate_low(self):
        # The mark answers only its trigger: no other input word of the
        # trigger's length reproduces the signature.
        marked = embed_output_mark(simple_mealy(), self.MARK)
        for probe in itertools.product((0, 1), repeat=len(self.MARK.trigger)):
            _states, outputs = marked.run(probe)
            answered = tuple(outputs) == self.MARK.signature
            assert answered == (probe == self.MARK.trigger), probe

    def test_rejects_trigger_outside_alphabet(self):
        with pytest.raises(ValueError):
            embed_output_mark(
                simple_mealy(), OutputMark(trigger=(7,), signature=(1,))
            )

    def test_mark_validation(self):
        with pytest.raises(ValueError):
            OutputMark(trigger=(), signature=())
        with pytest.raises(ValueError):
            OutputMark(trigger=(1,), signature=(1, 2))


class TestStateInsertion:
    WM = StateInsertionWatermark(steering_word=(1, 1, 0), signature=(5, 6, 7))

    def test_embed_and_verify(self):
        marked, stats = embed_state_insertion(simple_mealy(), self.WM)
        assert verify_state_insertion(marked, self.WM)
        assert stats.added_states == 3
        assert stats.original_states == 4
        assert stats.overhead_ratio == pytest.approx(0.75)

    def test_plain_machine_fails_verification(self):
        assert not verify_state_insertion(simple_mealy(), self.WM)

    def test_steering_word_walks_added_states(self):
        marked, _stats = embed_state_insertion(simple_mealy(), self.WM)
        states, _outputs = marked.run(self.WM.steering_word)
        assert set(states) - set(simple_mealy().states)

    def test_wrong_symbol_falls_back(self):
        marked, _stats = embed_state_insertion(simple_mealy(), self.WM)
        states, _outputs = marked.run((1, 0, 0))  # deviates at step 2
        assert states[-1] in simple_mealy().states

    def test_rejects_symbol_outside_alphabet(self):
        with pytest.raises(ValueError):
            embed_state_insertion(
                simple_mealy(),
                StateInsertionWatermark(steering_word=(9,), signature=(0,)),
            )

    def test_overhead_is_the_papers_criticism(self):
        # The paper's leakage component adds zero FSM states; this
        # baseline adds one per signature symbol.
        wm = StateInsertionWatermark(
            steering_word=(1,) * 8, signature=tuple(range(8))
        )
        _marked, stats = embed_state_insertion(simple_mealy(), wm)
        assert stats.added_states == 8


class TestPNSequence:
    def test_length(self):
        assert len(pn_sequence(100, seed=1)) == 100

    def test_bits_only(self):
        assert set(pn_sequence(200, seed=3)) <= {0, 1}

    def test_balanced(self):
        bits = pn_sequence(1000, seed=5)
        assert 0.35 < np.mean(bits) < 0.65

    def test_seed_changes_sequence(self):
        assert pn_sequence(64, seed=1) != pn_sequence(64, seed=2)

    def test_rejects_zero_seed(self):
        with pytest.raises(ValueError):
            pn_sequence(10, seed=0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            pn_sequence(0, seed=1)


class TestBeckerDetector:
    def make_device(self, with_pn=True, seed=0x1234):
        netlist = Netlist("host")
        register = build_binary_counter(netlist, 8)
        if with_pn:
            attach_pn_leakage(netlist, seed=seed, leak_width=6)
        netlist.validate()
        ip = WatermarkedIP(
            name="host",
            netlist=netlist,
            state_register=register,
            kw=None,
            fsm_kind="binary",
        )
        return Device("dev", ip, PowerModel(), default_cycles=256)

    def test_detects_embedded_pn(self):
        device = self.make_device(with_pn=True)
        traces = acquire_traces(device, 200, rng=1)
        detector = BeckerDetector(seed=0x1234)
        detection = detector.detect(traces, samples_per_cycle=4)
        assert detection.detected
        assert detection.correlation > 0.3

    def test_no_pn_no_detection(self):
        device = self.make_device(with_pn=False)
        traces = acquire_traces(device, 200, rng=1)
        detection = BeckerDetector(seed=0x1234).detect(traces, samples_per_cycle=4)
        assert not detection.detected

    def test_wrong_seed_no_detection(self):
        device = self.make_device(with_pn=True, seed=0x1234)
        traces = acquire_traces(device, 200, rng=1)
        detection = BeckerDetector(seed=0x4321).detect(traces, samples_per_cycle=4)
        assert not detection.detected

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            BeckerDetector(seed=1, threshold=0.0)

    def test_length_mismatch_rejected(self):
        device = self.make_device()
        traces = acquire_traces(device, 10, rng=1)
        with pytest.raises(ValueError):
            BeckerDetector(seed=1).detect(traces, samples_per_cycle=3)

    def test_noise_robustness_with_averaging(self):
        device = self.make_device(with_pn=True)
        noisy = acquire_traces(
            device, 400, rng=2, oscilloscope=None
        )
        detector = BeckerDetector(seed=0x1234)
        few = detector.detect(noisy, samples_per_cycle=4, n_average=5)
        many = detector.detect(noisy, samples_per_cycle=4, n_average=400)
        assert many.correlation >= few.correlation - 0.05
