"""Full verification campaigns (the paper's Section IV experiment).

A *campaign* measures the four reference devices (400 traces each) and
the four DUTs (10 000 traces each), runs the correlation computation
process for every RefD x DUT pair — sharing one ``A_RefD`` per row, as
in the paper, and one ``A_DUT,m`` per column
(:meth:`~repro.core.verification.WatermarkVerifier.identify_all`) —
and returns the 16 correlation sets with all distinguisher verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.acquisition.bench import acquire_keyed
from repro.acquisition.device import prime_fleet_activity
from repro.acquisition.oscilloscope import ADCConfig, Oscilloscope
from repro.attacks.removal import FLEET_TRANSFORMS, apply_fleet_transform
from repro.experiments.artifacts import ArtifactCache, measurement_base_key
from repro.core.distinguishers import Distinguisher, PAPER_DISTINGUISHERS
from repro.core.process import ProcessParameters
from repro.core.verification import VerificationReport, WatermarkVerifier
from repro.experiments.designs import (
    DUT_CONTENTS,
    EXPECTED_MATCHES,
    build_device_fleet,
)
from repro.power.models import PowerModel
from repro.power.noise import NoiseModel
from repro.power.supply import WaveformConfig
from repro.power.variation import VariationModel

#: Presentation order of the DUT columns.
DUT_ORDER: Tuple[str, ...] = ("DUT#1", "DUT#2", "DUT#3", "DUT#4")

#: Presentation order of the RefD rows.
REF_ORDER: Tuple[str, ...] = ("IP_A", "IP_B", "IP_C", "IP_D")


@dataclass
class CampaignConfig:
    """Everything needed to run one campaign reproducibly.

    ``engine`` pins the netlist-simulation path of every manufactured
    device: ``"auto"`` (compiled with interpreted fallback),
    ``"compiled"`` or ``"interpreted"`` — see
    :class:`~repro.hdl.simulator.Simulator`.

    Each field belongs to one artifact tier, which decides the cache
    keys it moves; the tier table is
    :data:`repro.experiments.artifacts.TIERS`.  Campaigns sharing a
    prefix of those tiers can share the matching artifacts
    byte-identically, which is what makes analysis-side scenario
    sweeps an order of magnitude cheaper.
    """

    parameters: ProcessParameters = field(default_factory=ProcessParameters)
    noise: NoiseModel = field(default_factory=NoiseModel)
    power_model: PowerModel = field(default_factory=PowerModel)
    waveform: Optional[WaveformConfig] = None
    variation: Optional[VariationModel] = field(default_factory=VariationModel)
    adc: Optional[ADCConfig] = field(default_factory=ADCConfig)
    distinguishers: Sequence[Distinguisher] = PAPER_DISTINGUISHERS
    fleet_seed: int = 2014
    measurement_seed: int = 42
    analysis_seed: int = 7
    watermarked: bool = True
    single_reference: bool = True
    engine: str = "auto"
    #: ``"paper"`` or ``"imported:<path>"`` — see
    #: :func:`~repro.experiments.designs.build_device_fleet`.
    design: str = "paper"
    #: The removal attack applied to every DUT after manufacture: a name
    #: of :data:`~repro.attacks.removal.FLEET_TRANSFORMS`.
    attack: str = "none"

    def __post_init__(self) -> None:
        # Both seed a NumPy generator, which takes no negative seed;
        # ``measurement_seed`` is only hashed into the measurement base
        # key.
        for name in ("fleet_seed", "analysis_seed"):
            seed = getattr(self, name)
            if seed < 0:
                raise ValueError(f"{name} must be >= 0, got {seed}")
        if self.attack not in FLEET_TRANSFORMS:
            raise ValueError(
                f"unknown attack {self.attack!r}; "
                f"choose from {sorted(FLEET_TRANSFORMS)}"
            )


@dataclass
class CampaignOutcome:
    """All artefacts of one campaign."""

    config: CampaignConfig
    reports: Dict[str, VerificationReport]
    dut_order: Tuple[str, ...] = DUT_ORDER
    ref_order: Tuple[str, ...] = REF_ORDER

    @property
    def means(self) -> Dict[str, Dict[str, float]]:
        """Table I matrix: ``means[ref][dut]``."""
        return {ref: self.reports[ref].means for ref in self.ref_order}

    @property
    def variances(self) -> Dict[str, Dict[str, float]]:
        """Table II matrix: ``variances[ref][dut]``."""
        return {ref: self.reports[ref].variances for ref in self.ref_order}

    def correlation_sets(self, ref: str) -> Dict[str, np.ndarray]:
        """The four C sets of one RefD (one Fig. 4 sub-figure)."""
        return {
            dut: self.reports[ref].results[dut].coefficients
            for dut in self.dut_order
        }

    def verdict_matrix(self) -> Dict[str, Dict[str, str]]:
        """``verdicts[ref][distinguisher] = chosen DUT``."""
        return {
            ref: {v.distinguisher: v.chosen_dut for v in self.reports[ref].verdicts}
            for ref in self.ref_order
        }

    def accuracy(self, distinguisher_name: str) -> float:
        """Fraction of rows where a distinguisher found the right DUT."""
        correct = 0
        for ref in self.ref_order:
            verdict = self.reports[ref].verdict_of(distinguisher_name)
            if verdict.chosen_dut == EXPECTED_MATCHES[ref]:
                correct += 1
        return correct / len(self.ref_order)

    def confidence_distances(self, distinguisher_name: str) -> Dict[str, float]:
        """Per-row confidence distance of one distinguisher."""
        return {
            ref: self.reports[ref].verdict_of(distinguisher_name).confidence_percent
            for ref in self.ref_order
        }

    @property
    def all_correct(self) -> bool:
        """True when every distinguisher identifies every row correctly."""
        return all(
            self.accuracy(d.name) == 1.0 for d in self.config.distinguishers
        )


def manufacture_fleet(cfg: CampaignConfig):
    """Build the eight pristine devices described by a campaign config.

    ``cfg.attack`` is not applied here; :func:`build_campaign_fleet`
    applies it.
    """
    return build_device_fleet(
        power_model=cfg.power_model,
        variation_model=cfg.variation,
        waveform=cfg.waveform,
        seed=cfg.fleet_seed,
        watermarked=cfg.watermarked,
        engine=cfg.engine,
        design=cfg.design,
    )


def build_campaign_fleet(cfg: CampaignConfig):
    """Manufacture a campaign's fleet and apply its ``attack`` to the DUTs.

    This is the one canonical way a config becomes silicon:
    :func:`run_campaign` builds every fleet it does not receive
    through it, with or without an artifact cache.
    """
    refds, duts = manufacture_fleet(cfg)
    apply_fleet_transform(duts, cfg.attack)
    return refds, duts


def run_campaign(
    config: Optional[CampaignConfig] = None,
    fleet=None,
    artifacts: Optional[ArtifactCache] = None,
) -> CampaignOutcome:
    """Run the paper's full 4x4 verification campaign.

    ``fleet`` optionally supplies pre-manufactured ``(refds, duts)``
    devices built for this config (e.g. by :func:`build_campaign_fleet`),
    so repeated campaigns on the same chips reuse their cached
    deterministic waveforms instead of rebuilding and re-simulating the
    whole fleet.

    Acquisition is *keyed*: every device's noise stream is seeded from
    the config's measurement base key and the device name (see
    :mod:`repro.experiments.artifacts`), never from a shared sequential
    RNG, so trace sets do not depend on acquisition order and can be
    shared across campaigns; it is also why the eight acquisitions of
    one campaign can run concurrently
    (:func:`~repro.acquisition.bench.acquire_keyed`).  Passing an
    ``artifacts`` cache reuses fleets and trace matrices across calls
    byte-identically to this unshared path; the config's ``attack`` is
    a fleet-tier field, so tampered artifacts never alias pristine
    ones.  The analysis always runs: outcomes are not cached.
    """
    cfg = config if config is not None else CampaignConfig()
    if fleet is not None and artifacts is not None:
        # The trace cache keys on the config alone, so an arbitrary
        # caller-supplied fleet could poison it (or be served traces of
        # a different fleet).  Only a fleet that came out of this cache
        # for the same keys is provably consistent.
        try:
            cached = artifacts.fleet(cfg)
        except KeyError:
            cached = None
        if cached is not fleet:
            raise ValueError(
                "run_campaign: an explicit fleet= can only be combined "
                "with artifacts= when it was obtained from "
                "artifacts.fleet(config); let run_campaign manufacture "
                "it instead"
            )
    if fleet is not None:
        refds, duts = fleet
    else:
        if artifacts is not None:
            refds, duts = artifacts.fleet(cfg, lambda: build_campaign_fleet(cfg))
        else:
            refds, duts = build_campaign_fleet(cfg)
    # Batched activity priming: the fleet's distinct netlists simulate
    # grouped by shape in one vectorised engine run each, instead of
    # lazily one at a time when the first waveform is rendered.  Cached
    # fleets skip this in O(devices) dict lookups; trace bytes are
    # unchanged either way (the engine's batching invariant).
    prime_fleet_activity((*refds.values(), *duts.values()))
    p = cfg.parameters
    # All eight keyed acquisitions in one batch, so they run concurrently.
    requests = [(duts[name], p.n2) for name in DUT_ORDER]
    requests += [(refds[name], p.n1) for name in REF_ORDER]
    if artifacts is not None:
        acquired = artifacts.traces_all(cfg, requests)
    else:
        acquired = acquire_keyed(
            Oscilloscope(cfg.noise, cfg.adc), measurement_base_key(cfg), requests
        )
    t_duts = dict(zip(DUT_ORDER, acquired))
    t_refs = dict(zip(REF_ORDER, acquired[len(DUT_ORDER) :]))
    verifier = WatermarkVerifier(
        parameters=p,
        distinguishers=cfg.distinguishers,
        single_reference=cfg.single_reference,
    )
    analysis_rng = np.random.default_rng(cfg.analysis_seed)
    reports = verifier.identify_all(t_refs, t_duts, rng=analysis_rng)
    return CampaignOutcome(config=cfg, reports=reports)


__all__ = [
    "CampaignConfig",
    "CampaignOutcome",
    "build_campaign_fleet",
    "manufacture_fleet",
    "run_campaign",
    "DUT_ORDER",
    "REF_ORDER",
    "DUT_CONTENTS",
    "EXPECTED_MATCHES",
]
