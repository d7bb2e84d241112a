"""Trace realignment.

E12 shows trigger jitter is the one bench fault that destroys the
verification: Pearson correlation needs sample-aligned traces.  The
standard side-channel fix is cross-correlation realignment — shift
each trace so it best matches a reference pattern.  Because single
traces here have SNR around one, alignment works on the visible
periodic structure (the clock-rate pulse train survives any noise
level the verification itself could survive).

:func:`align_traces` estimates each trace's circular shift against a
reference (default: the mean of the set, iterated once so the
reference itself sharpens after the first pass).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.acquisition.traces import TraceSet


def estimate_shift(trace: np.ndarray, reference: np.ndarray, max_shift: int) -> int:
    """Circular shift of ``trace`` that best matches ``reference``.

    Uses FFT-based circular cross-correlation; only shifts within
    ``±max_shift`` are considered.  Returns the shift to *undo* (apply
    ``np.roll(trace, -shift)`` to realign).
    """
    if trace.shape != reference.shape:
        raise ValueError("trace and reference must have the same length")
    if max_shift < 0:
        raise ValueError("max_shift must be non-negative")
    n = trace.size
    if max_shift == 0 or n < 2:
        return 0
    a = trace - trace.mean()
    b = reference - reference.mean()
    spectrum = np.fft.rfft(a) * np.conj(np.fft.rfft(b))
    correlation = np.fft.irfft(spectrum, n=n)
    # correlation[s] = sum_t a[t] b[t - s] (circular): the peak index is
    # the shift a leads b by.
    window = min(max_shift, n // 2)
    candidates = np.concatenate([np.arange(0, window + 1), np.arange(n - window, n)])
    best = candidates[np.argmax(correlation[candidates])]
    return int(best if best <= n // 2 else best - n)


def align_traces(
    traces: TraceSet,
    reference: Optional[np.ndarray] = None,
    max_shift: int = 16,
    iterations: int = 2,
) -> Tuple[TraceSet, np.ndarray]:
    """Realign every trace by circular cross-correlation.

    Returns the aligned set and the per-trace shifts that were undone.
    With no explicit ``reference`` the set's own mean trace is used and
    the procedure iterates: after the first pass the mean sharpens, so
    a second pass refines the shifts.
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    matrix = traces.matrix.copy()
    total_shifts = np.zeros(traces.n_traces, dtype=int)
    for iteration in range(iterations):
        target = reference if reference is not None else matrix.mean(axis=0)
        moved = 0
        for index in range(matrix.shape[0]):
            shift = estimate_shift(matrix[index], target, max_shift)
            if shift != 0:
                matrix[index] = np.roll(matrix[index], -shift)
                total_shifts[index] += shift
                moved += 1
        if moved == 0:
            break
    return TraceSet(traces.device_name, matrix), total_shifts
