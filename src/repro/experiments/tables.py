"""Tables I and II of the paper, with the published values embedded for
paper-versus-measured comparison.

The published absolute numbers depend on the authors' FPGAs and probe
chain; the reproduction targets the *shape*:

* the matching DUT has the highest mean on every row (Table I) and the
  lowest variance on every row (Table II);
* ``Delta_v`` is large on every row while ``Delta_mean`` is small —
  variance is the better distinguisher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.core.distinguishers import (
    confidence_distance_higher,
    confidence_distance_lower,
)
from repro.core.report import render_means_table, render_variances_table
from repro.experiments.runner import DUT_ORDER, REF_ORDER, CampaignOutcome

#: Table I of the paper: means of the correlation sets.
PAPER_TABLE1_MEANS: Dict[str, Dict[str, float]] = {
    "IP_A": {"DUT#1": 0.936, "DUT#2": 0.347, "DUT#3": 0.896, "DUT#4": 0.347},
    "IP_B": {"DUT#1": -0.104, "DUT#2": 0.941, "DUT#3": 0.473, "DUT#4": 0.936},
    "IP_C": {"DUT#1": 0.733, "DUT#2": 0.648, "DUT#3": 0.947, "DUT#4": 0.657},
    "IP_D": {"DUT#1": 0.225, "DUT#2": 0.940, "DUT#3": 0.748, "DUT#4": 0.947},
}

#: Table I confidence distances (Delta_mean), in percent.
PAPER_TABLE1_DELTAS: Dict[str, float] = {
    "IP_A": 4.0,
    "IP_B": 0.52,
    "IP_C": 22.6,
    "IP_D": 0.78,
}

#: Table II of the paper: variances of the correlation sets.
PAPER_TABLE2_VARIANCES: Dict[str, Dict[str, float]] = {
    "IP_A": {
        "DUT#1": 1.612e-5,
        "DUT#2": 1.831e-4,
        "DUT#3": 6.443e-5,
        "DUT#4": 1.477e-4,
    },
    "IP_B": {
        "DUT#1": 2.925e-4,
        "DUT#2": 1.928e-5,
        "DUT#3": 3.008e-4,
        "DUT#4": 3.502e-5,
    },
    "IP_C": {"DUT#1": 1.18e-4, "DUT#2": 1.66e-4, "DUT#3": 9.90e-7, "DUT#4": 1.47e-4},
    "IP_D": {"DUT#1": 1.91e-4, "DUT#2": 1.04e-5, "DUT#3": 1.53e-4, "DUT#4": 3.04e-6},
}

#: Table II confidence distances (Delta_v), in percent.
PAPER_TABLE2_DELTAS: Dict[str, float] = {
    "IP_A": 75.0,
    "IP_B": 44.9,
    "IP_C": 99.2,
    "IP_D": 70.66,
}


@dataclass(frozen=True)
class TableComparison:
    """Shape comparison between a measured matrix and the paper's."""

    measured: Mapping[str, Mapping[str, float]]
    paper: Mapping[str, Mapping[str, float]]
    measured_deltas: Dict[str, float]
    paper_deltas: Dict[str, float]
    diagonal_wins: bool


def _diagonal_wins(
    matrix: Mapping[str, Mapping[str, float]],
    expected: Mapping[str, str],
    higher_is_better: bool,
) -> bool:
    for ref, per_dut in matrix.items():
        target = expected[ref]
        if higher_is_better:
            winner = max(per_dut, key=lambda dut: per_dut[dut])
        else:
            winner = min(per_dut, key=lambda dut: per_dut[dut])
        if winner != target:
            return False
    return True


def compare_table1(outcome: CampaignOutcome) -> TableComparison:
    """Measured Table I against the published one."""
    from repro.experiments.designs import EXPECTED_MATCHES

    measured = outcome.means
    measured_deltas = {
        ref: confidence_distance_higher(list(per_dut.values()))
        for ref, per_dut in measured.items()
    }
    return TableComparison(
        measured=measured,
        paper=PAPER_TABLE1_MEANS,
        measured_deltas=measured_deltas,
        paper_deltas=PAPER_TABLE1_DELTAS,
        diagonal_wins=_diagonal_wins(measured, EXPECTED_MATCHES, True),
    )


def compare_table2(outcome: CampaignOutcome) -> TableComparison:
    """Measured Table II against the published one."""
    from repro.experiments.designs import EXPECTED_MATCHES

    measured = outcome.variances
    measured_deltas = {
        ref: confidence_distance_lower(list(per_dut.values()))
        for ref, per_dut in measured.items()
    }
    return TableComparison(
        measured=measured,
        paper=PAPER_TABLE2_VARIANCES,
        measured_deltas=measured_deltas,
        paper_deltas=PAPER_TABLE2_DELTAS,
        diagonal_wins=_diagonal_wins(measured, EXPECTED_MATCHES, False),
    )


def render_table1(outcome: CampaignOutcome) -> str:
    """Measured Table I in the paper's layout."""
    return render_means_table(outcome.means, DUT_ORDER)


def render_table2(outcome: CampaignOutcome) -> str:
    """Measured Table II in the paper's layout."""
    return render_variances_table(outcome.variances, DUT_ORDER)


def render_paper_table1() -> str:
    """The published Table I in the same layout, for side-by-side view."""
    return render_means_table(PAPER_TABLE1_MEANS, DUT_ORDER)


def render_paper_table2() -> str:
    """The published Table II in the same layout."""
    return render_variances_table(PAPER_TABLE2_VARIANCES, DUT_ORDER)


__all__ = [
    "PAPER_TABLE1_MEANS",
    "PAPER_TABLE1_DELTAS",
    "PAPER_TABLE2_VARIANCES",
    "PAPER_TABLE2_DELTAS",
    "TableComparison",
    "compare_table1",
    "compare_table2",
    "render_table1",
    "render_table2",
    "render_paper_table1",
    "render_paper_table2",
    "REF_ORDER",
    "DUT_ORDER",
]
