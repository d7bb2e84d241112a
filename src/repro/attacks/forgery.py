"""Key-recovery and forgery attacks on the watermark key ``Kw``.

The leakage component keys the power signature with an 8-bit secret.
An adversary holding the DUT (and knowing the scheme, per Kerckhoffs)
can mount a *template key search*: predict the H-register switching
sequence for every candidate key with the software leakage model and
correlate each prediction against averaged measured traces — exactly a
classic CPA attack, but here run by the *defender's adversary*.

The point of the experiment is honest threat analysis: an 8-bit key is
searchable (256 templates), so the scheme's security rests on the
difficulty of *removing* the component and on legal proof-of-ownership
(the paper's court scenario), not on key secrecy against a physical
attacker.  The module quantifies both the search's success and the
margin between the right key and the best wrong key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.acquisition.traces import TraceSet
from repro.fsm.watermark import leakage_sequence
from repro.hdl.wires import hamming_distance


def predicted_h_switching(
    state_codes: Sequence[int], kw: int, width: int = 8
) -> np.ndarray:
    """Per-cycle Hamming distance of the H register under key ``kw``.

    ``H(t)`` latches ``SBox[fold(state(t-1)) ^ kw]``; the power model's
    observable is ``HD(H(t-1), H(t))``.
    """
    h_values = leakage_sequence(state_codes, kw, width=width)
    distances = [0]
    for previous, current in zip(h_values, h_values[1:]):
        distances.append(hamming_distance(previous, current))
    return np.asarray(distances, dtype=float)


@dataclass(frozen=True)
class KeySearchResult:
    """Outcome of a template search over all candidate keys."""

    scores: Dict[int, float]
    best_key: int
    true_key: int

    @property
    def succeeded(self) -> bool:
        return self.best_key == self.true_key

    @property
    def margin(self) -> float:
        """Score gap between the best and the second-best candidate."""
        ordered = sorted(self.scores.values(), reverse=True)
        return ordered[0] - ordered[1]

    def rank_of_true_key(self) -> int:
        """1 = the true key scored highest."""
        ordered = sorted(self.scores, key=lambda k: self.scores[k], reverse=True)
        return ordered.index(self.true_key) + 1


def template_key_search(
    traces: TraceSet,
    state_codes: Sequence[int],
    true_key: int,
    samples_per_cycle: int,
    state_width: int = 8,
    n_average: int = 200,
) -> KeySearchResult:
    """CPA-style search for Kw over all 256 candidates.

    Averages ``n_average`` traces, reduces them to one value per cycle
    (summing the intra-cycle samples), and Pearson-correlates against
    the predicted H-switching series of each key.
    """
    if samples_per_cycle <= 0:
        raise ValueError("samples_per_cycle must be positive")
    count = min(n_average, traces.n_traces)
    averaged = traces.matrix[:count].mean(axis=0)
    if averaged.size % samples_per_cycle != 0:
        raise ValueError("trace length is not a multiple of samples_per_cycle")
    per_cycle = averaged.reshape(-1, samples_per_cycle).sum(axis=1)
    n_cycles = per_cycle.size
    codes = list(state_codes)[:n_cycles]
    if len(codes) < n_cycles:
        raise ValueError("state_codes shorter than the measured cycles")

    measured = per_cycle - per_cycle.mean()
    measured_norm = float(np.sqrt(np.sum(measured**2)))
    if measured_norm == 0:
        raise ValueError("measured trace has zero variance")

    scores: Dict[int, float] = {}
    for kw in range(256):
        predicted = predicted_h_switching(codes, kw, width=state_width)
        centered = predicted - predicted.mean()
        norm = float(np.sqrt(np.sum(centered**2)))
        if norm == 0:
            scores[kw] = 0.0
            continue
        scores[kw] = float(np.sum(centered * measured) / (norm * measured_norm))

    best_key = max(scores, key=lambda k: scores[k])
    return KeySearchResult(scores=scores, best_key=best_key, true_key=true_key)
