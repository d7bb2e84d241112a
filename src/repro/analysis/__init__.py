"""Statistics helpers and Monte-Carlo validation of the parameter math."""

from repro.analysis.aggregate import (
    group_rows,
    mean_by,
    pivot,
    render_pivot,
    render_rows,
)
from repro.analysis.collisions import (
    CollisionSummary,
    collision_summary,
    cross_key_correlations,
    switching_matrix,
)
from repro.analysis.roc import (
    ROCCurve,
    detection_gap_sweep,
    roc_from_scores,
    sample_mean_scores,
    screening_roc,
)
from repro.analysis.montecarlo import (
    ReuseEstimate,
    estimate_reuse_probability,
    property_p1_numeric,
    property_p2_numeric,
)
from repro.analysis.stats import binomial_confidence

__all__ = [
    "group_rows",
    "mean_by",
    "pivot",
    "render_pivot",
    "render_rows",
    "binomial_confidence",
    "ReuseEstimate",
    "estimate_reuse_probability",
    "property_p1_numeric",
    "property_p2_numeric",
    "CollisionSummary",
    "collision_summary",
    "cross_key_correlations",
    "switching_matrix",
    "ROCCurve",
    "roc_from_scores",
    "screening_roc",
    "sample_mean_scores",
    "detection_gap_sweep",
]
