"""FSM framework: machines, encodings, counters, properties, synthesis
and the paper's watermark leakage component."""

from repro.fsm.builder import build_fsm
from repro.fsm.counters import (
    binary_counter_machine,
    build_binary_counter,
    build_gray_counter,
    build_johnson_counter,
    build_lfsr,
    gray_counter_machine,
    johnson_counter_machine,
    lfsr_machine,
)
from repro.fsm.encoding import gray_decode, gray_encode, johnson_sequence
from repro.fsm.machine import FSMDefinitionError, MealyMachine, MooreMachine
from repro.fsm.properties import (
    hd_sequence,
    linearity_score,
    period,
    transient_length,
    verification_sequence_length,
)
from repro.fsm.watermark import (
    WatermarkedIP,
    WatermarkKeyError,
    attach_leakage_component,
    attach_wide_leakage_component,
    fold_to_sbox_width,
    leakage_sequence,
)

__all__ = [
    "MooreMachine",
    "MealyMachine",
    "FSMDefinitionError",
    "gray_encode",
    "gray_decode",
    "johnson_sequence",
    "binary_counter_machine",
    "gray_counter_machine",
    "johnson_counter_machine",
    "lfsr_machine",
    "build_binary_counter",
    "build_gray_counter",
    "build_johnson_counter",
    "build_lfsr",
    "build_fsm",
    "period",
    "transient_length",
    "hd_sequence",
    "linearity_score",
    "verification_sequence_length",
    "attach_leakage_component",
    "attach_wide_leakage_component",
    "leakage_sequence",
    "fold_to_sbox_width",
    "WatermarkedIP",
    "WatermarkKeyError",
]
