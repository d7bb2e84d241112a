"""Execute one sweep scenario end-to-end.

A scenario run is a pure function of its override mapping: manufacture
the fleet described by the config, optionally apply an attack
transform from :mod:`repro.attacks` to every DUT (the adversary
tampers with the devices under test, never with the verifier's
references), run the full 4x4 verification campaign, and distil the
outcome into a JSON-able metrics payload plus the 16 raw correlation
sets (persisted as a deterministic array bundle by the store).

Everything downstream — resumability, worker-count invariance,
byte-identical stores — rests on this module deriving *all* randomness
from the seeds inside the overrides and emitting only
deterministically ordered, canonically typed data.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.experiments.artifacts import ArtifactCache
from repro.experiments.designs import EXPECTED_MATCHES
from repro.experiments.runner import CampaignOutcome, run_campaign
from repro.sweeps.spec import Scenario, scenario_config


def outcome_metrics(outcome: CampaignOutcome) -> Dict[str, object]:
    """Distil a campaign outcome into a JSON-able metrics payload."""
    accuracy = {
        d.name: outcome.accuracy(d.name) for d in outcome.config.distinguishers
    }
    confidence = {
        d.name: outcome.confidence_distances(d.name)
        for d in outcome.config.distinguishers
    }
    return {
        "accuracy": accuracy,
        "confidence_percent": confidence,
        "verdicts": outcome.verdict_matrix(),
        "means": outcome.means,
        "variances": outcome.variances,
        "expected_matches": dict(EXPECTED_MATCHES),
        "all_correct": bool(outcome.all_correct),
    }


def outcome_arrays(outcome: CampaignOutcome) -> Dict[str, np.ndarray]:
    """The 16 correlation C sets, keyed ``C/<ref>/<dut>``."""
    arrays: Dict[str, np.ndarray] = {}
    for ref in outcome.ref_order:
        for dut, coefficients in outcome.correlation_sets(ref).items():
            arrays[f"C/{ref}/{dut}"] = np.asarray(coefficients, dtype=np.float64)
    return arrays


def run_scenario(
    scenario: Scenario,
    artifacts: Optional[ArtifactCache] = None,
) -> Dict[str, object]:
    """Run one scenario and return its full result payload.

    The returned mapping has two parts: ``"record"`` (JSON-able —
    scenario identity, overrides, metrics) and ``"arrays"`` (the raw
    correlation sets for the array bundle).

    The attack is a field of the campaign's config:
    :func:`~repro.experiments.runner.run_campaign` manufactures the
    fleet and applies the named transform itself, so tampered fleets
    never alias pristine ones in any cache.  With an ``artifacts``
    cache, the fleet and every acquired trace matrix are shared across
    scenarios whose fleet/measurement tiers agree — byte-identically
    to the unshared path, because acquisition streams are keyed per
    device (see :mod:`repro.experiments.artifacts`) — and whole
    campaign outcomes are memoised on the analysis key, without
    changing a byte of the payload.
    """
    config = scenario_config(scenario)
    outcome = run_campaign(config, artifacts=artifacts)
    record = {
        "scenario_id": scenario.scenario_id,
        "overrides": dict(scenario.overrides),
        "assignment": dict(scenario.assignment),
        "attack": config.attack,
        "metrics": outcome_metrics(outcome),
    }
    return {"record": record, "arrays": outcome_arrays(outcome)}


__all__ = [
    "run_scenario",
    "outcome_metrics",
    "outcome_arrays",
]
