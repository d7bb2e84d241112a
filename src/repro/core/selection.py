"""Uniform distinct selection — the paper's ``U_X(k)``.

Section III defines ``U_X(k)`` as a function that randomly selects
``k`` *distinct* elements uniformly inside a set ``X``.  Selections are
independent across calls (the same trace may appear in two different
k-selections — that is precisely the event ζ whose probability the
paper's parameter analysis bounds).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.acquisition.traces import TraceSet


def uniform_distinct_indices(
    n_available: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """``k`` distinct indices drawn uniformly from ``range(n_available)``."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > n_available:
        raise ValueError(
            f"cannot select {k} distinct elements from a set of {n_available}"
        )
    return rng.choice(n_available, size=k, replace=False)


def select_traces(
    traces: TraceSet, k: int, rng: np.random.Generator
) -> np.ndarray:
    """``U_X(k)`` over a trace set: a ``(k, l)`` matrix of distinct traces."""
    indices = uniform_distinct_indices(traces.n_traces, k, rng)
    return traces.matrix[indices]


def selection_indices_batch(
    n_available: int,
    k: int,
    m: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``m`` independent k-selections, as an ``(m, k)`` index matrix.

    Each row is one ``U_X(k)`` draw; rows are independent, so an index
    may repeat *across* rows (event ζ) but never *within* a row.
    """
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    return np.stack(
        [uniform_distinct_indices(n_available, k, rng) for _ in range(m)]
    )


def selection_membership_batch(
    n_available: int,
    k: int,
    m: int,
    trials: int,
    rng: np.random.Generator,
    element: int = 0,
) -> np.ndarray:
    """Membership of one element across ``trials x m`` k-selections.

    Returns a boolean ``(trials, m)`` matrix whose entry ``[t, j]`` is
    the event "``element`` appears in the j-th ``U_X(k)`` draw of trial
    ``t``".  The matrix is *exactly* distributed like running
    :func:`selection_indices_batch` per trial and testing membership:
    under uniform distinct selection each element lands in a given
    k-selection with probability ``k / n_available``, independently
    across selections — so the whole batch collapses into a single RNG
    call instead of ``trials * m`` index draws.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > n_available:
        raise ValueError(
            f"cannot select {k} distinct elements from a set of {n_available}"
        )
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= element < n_available:
        raise ValueError(
            f"element {element} out of range [0, {n_available})"
        )
    return rng.random((trials, m)) < k / n_available


Selection = Optional[np.ndarray]
