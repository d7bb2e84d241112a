"""Trace containers.

A :class:`TraceSet` is the paper's ``T_device``: a set of ``n`` power
traces of equal length measured on one device.  It is stored as an
``(n, l)`` float matrix with the device name attached for reporting.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


class TraceSet:
    """An ordered set of equal-length power traces from one device.

    The matrix may be *read-only* (``writeable = False``): the artifact
    cache serves zero-copy frozen views, so consumers must not mutate
    ``matrix`` in place — derive new arrays instead (as
    :mod:`repro.acquisition.faults` and :mod:`repro.acquisition.alignment`
    already do).
    """

    def __init__(self, device_name: str, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(f"trace matrix must be 2-D, got shape {matrix.shape}")
        if matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise ValueError("trace matrix must be non-empty")
        self.device_name = device_name
        self.matrix = matrix

    @property
    def n_traces(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace_length(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.n_traces

    def __getitem__(self, index: int) -> np.ndarray:
        return self.matrix[index]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.matrix)

    def mean_trace(self) -> np.ndarray:
        """Element-wise mean over all traces."""
        return self.matrix.mean(axis=0)

    def __repr__(self) -> str:
        return (
            f"TraceSet({self.device_name!r}, n={self.n_traces}, "
            f"length={self.trace_length})"
        )
