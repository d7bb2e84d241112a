"""The correlation computation process (paper Section III, Fig. 2).

The process is a succession of three functions:

1. ``T_device = Pw(device, n)`` — power acquisition (done upstream by
   :mod:`repro.acquisition`);
2. ``A_device,m = {mean(U_T_device(k))}_m`` — random k-averaging;
3. ``C_RefD,DUT,m,k = {rho(A_RefD, A_DUT,m(i))}_i`` — correlation.

Only **one** k-averaged reference ``A_RefD`` is used, so "all
variations between the m elements of the set C are due only to the DUT
and not to the RefD".  An opt-out (``single_reference=False``) exists
purely for the E8 ablation that quantifies this design choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.acquisition.bench import RngLike, make_rng
from repro.acquisition.traces import TraceSet
from repro.core.averaging import k_average_rows, k_averaged_set, k_averaged_trace
from repro.core.correlation import pearson_many, pearson_rows
from repro.core.selection import uniform_distinct_indices


class ParameterError(ValueError):
    """The (n1, n2, k, m) parameters violate the paper's constraints."""


@dataclass(frozen=True)
class ProcessParameters:
    """The four parameters of the correlation computation process.

    The paper's experimental values are the defaults: ``k = 50``,
    ``m = 20`` with ``n1 = 400`` reference traces and ``n2 = 10 000``
    DUT traces (``alpha = n2 / (k m) = 10``).
    """

    k: int = 50
    m: int = 20
    n1: int = 400
    n2: int = 10_000

    def __post_init__(self) -> None:
        if self.k <= 0 or self.m <= 0 or self.n1 <= 0 or self.n2 <= 0:
            raise ParameterError("all parameters must be positive")
        if self.n1 < self.k:
            raise ParameterError(
                f"expression (1) violated: n1 = {self.n1} < k = {self.k}"
            )
        if self.n2 < self.k * self.m:
            raise ParameterError(
                f"expression (2) violated: n2 = {self.n2} < k*m = {self.k * self.m}"
            )

    @property
    def alpha(self) -> float:
        """The oversampling ratio ``alpha = n2 / (k m) >= 1``."""
        return self.n2 / (self.k * self.m)


@dataclass
class CorrelationResult:
    """The set ``C_RefD,DUT,m,k`` plus identifying metadata."""

    ref_name: str
    dut_name: str
    parameters: ProcessParameters
    coefficients: np.ndarray = field(repr=False)

    @property
    def mean(self) -> float:
        """The paper's mean distinguisher statistic (C-bar)."""
        return float(np.mean(self.coefficients))

    @property
    def variance(self) -> float:
        """The paper's variance distinguisher statistic ``v(C)``.

        Population variance (``ddof=0``), matching the paper's ``v``.
        """
        return float(np.var(self.coefficients))

    def __len__(self) -> int:
        return len(self.coefficients)


class CorrelationProcess:
    """Runs the full Fig. 2 flow between a RefD and a DUT trace set."""

    def __init__(
        self,
        parameters: Optional[ProcessParameters] = None,
        single_reference: bool = True,
        strict: bool = True,
    ):
        self.parameters = parameters if parameters is not None else ProcessParameters()
        self.single_reference = single_reference
        self.strict = strict

    def _check_sets(self, t_ref: TraceSet, t_dut: TraceSet) -> None:
        p = self.parameters
        if t_ref.n_traces < p.k:
            raise ParameterError(
                f"reference set has {t_ref.n_traces} traces; k = {p.k} required"
            )
        if t_dut.n_traces < p.k:
            raise ParameterError(
                f"DUT set has {t_dut.n_traces} traces; k = {p.k} required"
            )
        if self.strict:
            if t_ref.n_traces < p.n1:
                raise ParameterError(
                    f"reference set has {t_ref.n_traces} traces; n1 = {p.n1} declared"
                )
            if t_dut.n_traces < p.n2:
                raise ParameterError(
                    f"DUT set has {t_dut.n_traces} traces; n2 = {p.n2} declared"
                )
        if t_ref.trace_length != t_dut.trace_length:
            raise ParameterError(
                f"trace length mismatch: RefD {t_ref.trace_length} vs "
                f"DUT {t_dut.trace_length}"
            )

    def reference_trace(
        self, t_ref: TraceSet, rng: RngLike = None
    ) -> np.ndarray:
        """Compute ``A_RefD = mean(U_T_RefD(k))``."""
        return k_averaged_trace(t_ref, self.parameters.k, make_rng(rng))

    def dut_set(self, t_dut: TraceSet, rng: RngLike = None) -> np.ndarray:
        """Compute ``A_DUT,m = {mean(U_T_DUT(k))}_m``, an ``(m, l)`` matrix."""
        p = self.parameters
        return k_averaged_set(t_dut, p.k, p.m, make_rng(rng))

    def run(
        self,
        t_ref: TraceSet,
        t_dut: TraceSet,
        rng: RngLike = None,
        reference: Optional[np.ndarray] = None,
        dut_set: Optional[np.ndarray] = None,
    ) -> CorrelationResult:
        """Produce ``C_RefD,DUT,m,k``.

        A precomputed ``reference`` (``A_RefD``) may be passed so one
        reference serves several DUTs, exactly as in the paper's
        four-DUT experiment; a precomputed ``dut_set`` (``A_DUT,m``,
        from :meth:`dut_set`) likewise lets one DUT's set serve several
        references.  Both are rejected with ``single_reference=False``,
        which draws fresh averages per coefficient and would otherwise
        ignore them.
        """
        for name, given in (("reference", reference), ("dut_set", dut_set)):
            if given is not None and not self.single_reference:
                raise ValueError(
                    f"{name}= cannot be used with single_reference=False: "
                    "that mode draws fresh averages per coefficient"
                )
        self._check_sets(t_ref, t_dut)
        generator = make_rng(rng)
        p = self.parameters

        if self.single_reference:
            a_ref = (
                reference
                if reference is not None
                else k_averaged_trace(t_ref, p.k, generator)
            )
            a_dut = (
                dut_set
                if dut_set is not None
                else k_averaged_set(t_dut, p.k, p.m, generator)
            )
            coefficients = pearson_many(a_ref, a_dut)
        else:
            # E8 ablation: a fresh reference per coefficient, which
            # injects RefD selection noise into the C set.  The index
            # draws stay interleaved (ref, dut, ref, dut, ...) to
            # preserve the historical RNG stream; the averaging and the
            # m correlations are then batched like the main path.
            ref_indices = np.empty((p.m, p.k), dtype=np.intp)
            dut_indices = np.empty((p.m, p.k), dtype=np.intp)
            for i in range(p.m):
                ref_indices[i] = uniform_distinct_indices(
                    t_ref.n_traces, p.k, generator
                )
                dut_indices[i] = uniform_distinct_indices(
                    t_dut.n_traces, p.k, generator
                )
            a_refs = k_average_rows(t_ref.matrix, ref_indices)
            a_duts = k_average_rows(t_dut.matrix, dut_indices)
            coefficients = pearson_rows(a_refs, a_duts)

        return CorrelationResult(
            ref_name=t_ref.device_name,
            dut_name=t_dut.device_name,
            parameters=p,
            coefficients=coefficients,
        )
