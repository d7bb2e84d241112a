"""Adversarial analysis of the watermark scheme: removal, key
forgery/recovery, and masking-noise attacks, with defender
counter-moves.

:data:`FLEET_TRANSFORMS` is the registry of *named* DUT netlist
transforms — the values of a campaign config's ``attack`` field, which
a sweep sets as its ``attack`` axis — so that every consumer (scenario
runner, campaign runner, artifact cache) resolves the same name to the
same tampering.
"""

from repro.attacks.forgery import (
    KeySearchResult,
    predicted_h_switching,
    template_key_search,
)
from repro.attacks.masking import (
    MaskingPoint,
    defender_k_escalation,
    masking_sweep,
)
from repro.attacks.removal import (
    FLEET_TRANSFORMS,
    RemovalReport,
    apply_fleet_transform,
    strip_output_pads_only,
    strip_watermark,
)

__all__ = [
    "FLEET_TRANSFORMS",
    "apply_fleet_transform",
    "RemovalReport",
    "strip_watermark",
    "strip_output_pads_only",
    "KeySearchResult",
    "template_key_search",
    "predicted_h_switching",
    "MaskingPoint",
    "masking_sweep",
    "defender_k_escalation",
]
