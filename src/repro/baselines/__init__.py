"""Related-work baseline watermarking/verification schemes.

* :mod:`repro.baselines.output_mark` — output-mark insertion [16];
* :mod:`repro.baselines.state_insertion` — added-state FSM watermark [12];
* :mod:`repro.baselines.becker` — spread-spectrum side-channel watermark [17].
"""

from repro.baselines.becker import (
    BeckerDetector,
    PNDetection,
    attach_pn_leakage,
    pn_sequence,
)
from repro.baselines.output_mark import (
    OutputMark,
    embed_output_mark,
    verify_output_mark,
)
from repro.baselines.state_insertion import (
    EmbeddingStats,
    StateInsertionWatermark,
    embed_state_insertion,
    verify_state_insertion,
)

__all__ = [
    "OutputMark",
    "embed_output_mark",
    "verify_output_mark",
    "StateInsertionWatermark",
    "EmbeddingStats",
    "embed_state_insertion",
    "verify_state_insertion",
    "pn_sequence",
    "attach_pn_leakage",
    "BeckerDetector",
    "PNDetection",
]
