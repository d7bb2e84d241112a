"""End-to-end watermark verification.

Ties the whole pipeline together: given trace sets for a reference
device and a collection of devices under test, the
:class:`WatermarkVerifier` runs the correlation computation process
against every DUT, applies the distinguishers and returns a structured
:class:`VerificationReport`.  This implements the two use cases of the
paper's introduction:

* **clone detection** (:meth:`WatermarkVerifier.identify`, or
  :meth:`WatermarkVerifier.identify_all` for several RefDs) — find which
  DUT contains the RefD's watermarked IP, with a confidence distance
  usable "as proof in front of a court";
* **counterfeit detection** (:meth:`WatermarkVerifier.screen`) — flag
  devices whose correlation statistics are incompatible with the
  watermark, i.e. counterfeits in a lot that should contain it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.acquisition.bench import RngLike, make_rng
from repro.acquisition.traces import TraceSet
from repro.core.correlation import expected_correlation_variance
from repro.core.distinguishers import (
    Distinguisher,
    PAPER_DISTINGUISHERS,
    Verdict,
)
from repro.core.process import (
    CorrelationProcess,
    CorrelationResult,
    ProcessParameters,
)


@dataclass
class VerificationReport:
    """Full outcome of one RefD-against-many-DUTs verification."""

    ref_name: str
    parameters: ProcessParameters
    results: Dict[str, CorrelationResult]
    verdicts: List[Verdict] = field(default_factory=list)

    @property
    def means(self) -> Dict[str, float]:
        """Mean correlation per DUT (Table I row)."""
        return {name: result.mean for name, result in self.results.items()}

    @property
    def variances(self) -> Dict[str, float]:
        """Correlation variance per DUT (Table II row)."""
        return {name: result.variance for name, result in self.results.items()}

    def verdict_of(self, distinguisher_name: str) -> Verdict:
        for verdict in self.verdicts:
            if verdict.distinguisher == distinguisher_name:
                return verdict
        raise KeyError(f"no verdict from distinguisher {distinguisher_name!r}")

    @property
    def unanimous(self) -> bool:
        """True when every distinguisher picked the same DUT."""
        chosen = {verdict.chosen_dut for verdict in self.verdicts}
        return len(chosen) == 1


@dataclass(frozen=True)
class ScreeningResult:
    """Counterfeit screening outcome for one device."""

    device_name: str
    mean: float
    variance: float
    authentic: bool
    reason: str


class WatermarkVerifier:
    """Runs the paper's verification scheme against one or many DUTs."""

    def __init__(
        self,
        parameters: Optional[ProcessParameters] = None,
        distinguishers: Sequence[Distinguisher] = PAPER_DISTINGUISHERS,
        single_reference: bool = True,
        strict: bool = True,
    ):
        self.process = CorrelationProcess(
            parameters=parameters,
            single_reference=single_reference,
            strict=strict,
        )
        self.distinguishers = tuple(distinguishers)
        if not self.distinguishers:
            raise ValueError("at least one distinguisher is required")

    @property
    def parameters(self) -> ProcessParameters:
        return self.process.parameters

    def correlate(
        self,
        t_ref: TraceSet,
        t_duts: Mapping[str, TraceSet],
        rng: RngLike = None,
    ) -> Dict[str, CorrelationResult]:
        """Run the correlation process for every DUT.

        One single ``A_RefD`` is drawn and shared by all DUTs, exactly
        as in the paper's experiment.
        """
        if not t_duts:
            raise ValueError("at least one DUT trace set is required")
        generator = make_rng(rng)
        reference = (
            self.process.reference_trace(t_ref, generator)
            if self.process.single_reference
            else None
        )
        results: Dict[str, CorrelationResult] = {}
        for name, t_dut in t_duts.items():
            results[name] = self.process.run(
                t_ref, t_dut, generator, reference=reference
            )
        return results

    def identify(
        self,
        t_ref: TraceSet,
        t_duts: Mapping[str, TraceSet],
        rng: RngLike = None,
    ) -> VerificationReport:
        """Clone detection: which DUT contains the RefD's IP?"""
        return self._report(t_ref, self.correlate(t_ref, t_duts, rng))

    def identify_all(
        self,
        t_refs: Mapping[str, TraceSet],
        t_duts: Mapping[str, TraceSet],
        rng: RngLike = None,
    ) -> Dict[str, VerificationReport]:
        """Clone detection for every RefD against one set of DUTs.

        Each DUT's ``A_DUT,m`` is drawn once and serves every
        reference.  The draws come from one generator in a fixed order:
        first ``A_DUT,m`` for each DUT in ``t_duts`` order, then, for
        each reference in ``t_refs`` order, its ``A_RefD``.  Every
        (RefD, DUT) C set keeps the distribution :meth:`identify` gives
        it, since both sides stay independent uniform k-subset
        averages; the verdicts of different references become
        dependent.  With ``single_reference=False`` (the E8 ablation)
        this is the :meth:`identify` loop over ``t_refs`` on the same
        generator.
        """
        generator = make_rng(rng)
        if not self.process.single_reference:
            return {
                name: self.identify(t_ref, t_duts, generator)
                for name, t_ref in t_refs.items()
            }
        if not t_duts:
            raise ValueError("at least one DUT trace set is required")
        dut_sets = {
            name: self.process.dut_set(t_dut, generator)
            for name, t_dut in t_duts.items()
        }
        reports: Dict[str, VerificationReport] = {}
        for ref_name, t_ref in t_refs.items():
            reference = self.process.reference_trace(t_ref, generator)
            results = {
                name: self.process.run(
                    t_ref, t_dut, generator, reference=reference, dut_set=dut_sets[name]
                )
                for name, t_dut in t_duts.items()
            }
            reports[ref_name] = self._report(t_ref, results)
        return reports

    def _report(
        self, t_ref: TraceSet, results: Dict[str, CorrelationResult]
    ) -> VerificationReport:
        """Apply every distinguisher to one reference's C sets."""
        c_sets = {name: result.coefficients for name, result in results.items()}
        return VerificationReport(
            ref_name=t_ref.device_name,
            parameters=self.parameters,
            results=results,
            verdicts=[d.identify(c_sets) for d in self.distinguishers],
        )

    def calibrate_mean_floor(
        self,
        t_ref: TraceSet,
        t_golden: TraceSet,
        rng: RngLike = None,
        n_sigmas: float = 10.0,
    ) -> float:
        """Derive a screening floor from a second genuine device.

        On highly linear FSMs even an *unmarked* device correlates
        strongly with the reference (the counter's switching dominates
        the trace), so a universal constant floor does not exist.  The
        practical recipe: manufacture a second trusted device (the
        "golden" DUT), run the correlation process RefD-vs-golden, and
        place the floor ``n_sigmas`` standard deviations below the
        genuine correlation level.  Genuine devices of the same design
        sit well above it; missing or re-keyed watermarks fall below.
        """
        if n_sigmas <= 0:
            raise ValueError("n_sigmas must be positive")
        result = self.process.run(t_ref, t_golden, make_rng(rng))
        spread = float(np.sqrt(result.variance))
        return result.mean - n_sigmas * spread

    def screen(
        self,
        t_ref: TraceSet,
        t_duts: Mapping[str, TraceSet],
        rng: RngLike = None,
        variance_margin: float = 4.0,
        mean_floor: float = 0.5,
    ) -> List[ScreeningResult]:
        """Counterfeit detection: which devices carry the watermark?

        A device is declared authentic when its correlation variance is
        within ``variance_margin`` times the theoretical sampling
        variance at its observed mean correlation *and* the mean itself
        clears ``mean_floor``.  Unlike :meth:`identify`, this is an
        absolute per-device test, usable when every device in the lot
        should contain the IP.
        """
        results = self.correlate(t_ref, t_duts, rng)
        trace_length = next(iter(t_duts.values())).trace_length
        screenings: List[ScreeningResult] = []
        for name, result in results.items():
            mean = result.mean
            variance = result.variance
            theoretical = expected_correlation_variance(
                float(np.clip(mean, -1.0, 1.0)), trace_length
            )
            if mean < mean_floor:
                authentic = False
                reason = f"mean correlation {mean:.3f} below floor {mean_floor}"
            elif variance > variance_margin * max(theoretical, 1e-12):
                authentic = False
                reason = (
                    f"variance {variance:.3e} exceeds {variance_margin} x "
                    f"theoretical {theoretical:.3e}"
                )
            else:
                authentic = True
                reason = "correlation statistics consistent with the watermark"
            screenings.append(
                ScreeningResult(
                    device_name=name,
                    mean=mean,
                    variance=variance,
                    authentic=authentic,
                    reason=reason,
                )
            )
        return screenings
