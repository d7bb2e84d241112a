"""Statistical helpers shared by the analysis and ablation code."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def binomial_confidence(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score interval for a success proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be in [0, trials]")
    p_hat = successes / trials
    denom = 1 + z**2 / trials
    center = (p_hat + z**2 / (2 * trials)) / denom
    half = (
        z
        * np.sqrt(p_hat * (1 - p_hat) / trials + z**2 / (4 * trials**2))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)
