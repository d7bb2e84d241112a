"""k-averaged traces — the paper's ``A_device`` and ``A_device,m``.

``A_RefD = mean(U_T_RefD(k))`` is a single averaged reference trace;
``A_DUT,m = {mean(U_T_DUT(k))}_m`` is a set of ``m`` independently
drawn k-averaged traces.  Averaging ``k`` aligned traces attenuates the
measurement noise by ``sqrt(k)`` while preserving the deterministic
switching waveform — this is what turns a sub-unity-SNR single trace
into a usable signature.
"""

from __future__ import annotations

import numpy as np

from repro.acquisition.traces import TraceSet
from repro.core.selection import select_traces, selection_indices_batch


def k_averaged_trace(
    traces: TraceSet, k: int, rng: np.random.Generator
) -> np.ndarray:
    """One k-averaged trace: ``mean(U_X(k))`` (the paper's ``A_device``).

    This keeps its ``(k, l)`` gather: for a single selection it is about
    3x faster than the running sum of :func:`k_average_rows`.
    """
    selected = select_traces(traces, k, rng)
    return selected.mean(axis=0)


def k_averaged_set(
    traces: TraceSet, k: int, m: int, rng: np.random.Generator
) -> np.ndarray:
    """``m`` independent k-averaged traces (the paper's ``A_device,m``).

    Returns an ``(m, l)`` matrix; row ``i`` is ``A_device,m(i)``.  Its
    bytes are those of ``traces.matrix[indices].mean(axis=1)`` over the
    ``(m, k)`` index draws, signed zeros included; :func:`k_average_rows`
    computes them without the ``(m, k, l)`` gather.
    """
    indices = selection_indices_batch(traces.n_traces, k, m, rng)
    return k_average_rows(traces.matrix, indices)


def k_average_rows(matrix: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``matrix[indices].mean(axis=1)`` for an ``(m, k)`` index matrix.

    The result is a running sum in one zero-initialised ``(m, l)``
    buffer: ``+= matrix[indices[:, j]]`` for each column ``j`` in
    order, then one ``/= k``.  Those are the float operations NumPy
    performs for the gathered mean of a float64 matrix: it reduces the
    middle axis by adding rows in order onto +0.0 and divides once.  So
    the bytes are the same, signed zeros included: a sample whose ``k``
    addends are all -0.0 averages to +0.0, not -0.0.  Single-sample
    traces (``l == 1``) keep the gather, because there NumPy sums the
    ``k`` axis pairwise.  ``matrix`` is only read, so read-only views
    work.
    """
    m, k = indices.shape
    if matrix.shape[1] == 1:
        return matrix[indices].mean(axis=1)
    total = np.zeros((m, matrix.shape[1]))
    for column in indices.T:
        total += matrix[column]
    total /= k
    return total


def averaging_noise_reduction(k: int) -> float:
    """Theoretical noise-amplitude reduction factor of k-averaging."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return float(np.sqrt(k))
