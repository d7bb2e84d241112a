"""Key-collision analysis of the leakage component.

The paper claims the watermark key "reduces the risk of collision
between different IPs with the same FSM".  This module quantifies that
claim exhaustively: for a given FSM state sequence it computes the
pairwise correlation between the H-register switching series of every
pair of the 256 possible keys — the quantity that would have to be
high for two differently-keyed IPs to collide in the verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.attacks.forgery import predicted_h_switching


@dataclass(frozen=True)
class CollisionSummary:
    """Distribution of cross-key switching correlations."""

    n_keys: int
    mean: float
    std: float
    minimum: float
    maximum: float
    worst_pair: Tuple[int, int]

    @property
    def n_pairs(self) -> int:
        return self.n_keys * (self.n_keys - 1) // 2


def switching_matrix(
    state_codes: Sequence[int], keys: Sequence[int] = None, width: int = 8
) -> np.ndarray:
    """H-switching series for every key: shape ``(n_keys, n_cycles)``."""
    key_list = list(keys) if keys is not None else list(range(256))
    return np.stack(
        [predicted_h_switching(state_codes, kw, width) for kw in key_list]
    )


def cross_key_correlations(
    state_codes: Sequence[int], keys: Sequence[int] = None, width: int = 8
) -> np.ndarray:
    """Full correlation matrix between per-key switching series."""
    matrix = switching_matrix(state_codes, keys, width)
    centered = matrix - matrix.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(centered**2, axis=1))
    if np.any(norms == 0):
        raise ValueError("a key produced a constant switching series")
    normalized = centered / norms[:, np.newaxis]
    return normalized @ normalized.T


def collision_summary(
    state_codes: Sequence[int], keys: Sequence[int] = None, width: int = 8
) -> CollisionSummary:
    """Summarise the off-diagonal (cross-key) correlation distribution."""
    key_list = list(keys) if keys is not None else list(range(256))
    corr = cross_key_correlations(state_codes, key_list, width)
    n = len(key_list)
    upper_i, upper_j = np.triu_indices(n, k=1)
    values = corr[upper_i, upper_j]
    worst_index = int(np.argmax(np.abs(values)))
    worst_pair = (key_list[upper_i[worst_index]], key_list[upper_j[worst_index]])
    return CollisionSummary(
        n_keys=n,
        mean=float(values.mean()),
        std=float(values.std()),
        minimum=float(values.min()),
        maximum=float(values.max()),
        worst_pair=worst_pair,
    )
