"""Structural and dynamical properties of FSMs.

The paper relies on two FSM properties:

* **periodicity** — "designed IPs are cyclic and it is possible to know
  exactly the periodicity of the designed FSM"; the verification needs
  state sequences longer than one period;
* **linearity** — counters are "extremely linear", the worst case for a
  power side channel because their switching activity carries little
  entropy.

This module computes both, so library users can check whether a given
FSM is an easy or hard verification target before measuring anything.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence

import numpy as np

from repro.fsm.machine import MooreMachine
from repro.hdl.wires import hamming_weight

State = Hashable


def period(machine: MooreMachine, start: State = None) -> int:
    """Length of the cycle eventually entered from ``start``.

    For an autonomous deterministic machine every trajectory is a
    "rho": a transient tail followed by a cycle.  Uses Brent's
    algorithm, O(tail + period) successor calls.
    """
    start_state = machine.initial_state if start is None else start
    power = 1
    cycle_length = 1
    tortoise = start_state
    hare = machine.successor(start_state)
    while tortoise != hare:
        if power == cycle_length:
            tortoise = hare
            power *= 2
            cycle_length = 0
        hare = machine.successor(hare)
        cycle_length += 1
    return cycle_length


def transient_length(machine: MooreMachine, start: State = None) -> int:
    """Number of steps before the trajectory enters its cycle."""
    start_state = machine.initial_state if start is None else start
    cycle_length = period(machine, start_state)
    ahead = start_state
    for _ in range(cycle_length):
        ahead = machine.successor(ahead)
    tail = 0
    behind = start_state
    while behind != ahead:
        behind = machine.successor(behind)
        ahead = machine.successor(ahead)
        tail += 1
    return tail


def hd_sequence(codes: Sequence[int]) -> List[int]:
    """Hamming distances between consecutive codes (len(codes) - 1)."""
    if len(codes) < 2:
        raise ValueError("need at least two codes for an HD sequence")
    return [hamming_weight(a ^ b) for a, b in zip(codes, codes[1:])]


def linearity_score(codes: Sequence[int]) -> float:
    """How *linear* (predictable) a code sequence's switching is, in [0, 1].

    Defined as ``1 - normalised entropy`` of the consecutive-HD
    histogram: a Gray counter (HD constantly 1) scores 1.0; a sequence
    whose HDs are uniform over all observed values scores 0.0.  This
    operationalises the paper's "extremely linear" characterisation of
    counters: high score ⇒ little information in the power signal.
    """
    distances = hd_sequence(codes)
    values, counts = np.unique(distances, return_counts=True)
    if len(values) == 1:
        return 1.0
    probabilities = counts / counts.sum()
    entropy = -np.sum(probabilities * np.log2(probabilities))
    max_entropy = np.log2(len(values))
    return float(1.0 - entropy / max_entropy)


def verification_sequence_length(machine: MooreMachine, margin: int = 1) -> int:
    """Minimum measurement length per the paper's rule.

    "Verification of watermarked FSMs is possible if the state sequence
    is long enough, i.e. ... longer than the periodicity of the tested
    FSM."  Returns ``transient + margin * period``.
    """
    if margin < 1:
        raise ValueError(f"margin must be >= 1, got {margin}")
    return transient_length(machine) + margin * period(machine)
