"""Plain-text reporting in the layout of the paper's tables.

These renderers take the campaign outputs and print rows shaped like
Table I (means + Delta_mean) and Table II (variances + Delta_v), so the
benchmark harness can display paper-versus-measured side by side.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.core.distinguishers import (
    confidence_distance_higher,
    confidence_distance_lower,
)


def _format_cell(value: float, style: str) -> str:
    if style == "mean":
        return f"{value:.3f}"
    if style == "variance":
        return f"{value:.3e}"
    raise ValueError(f"unknown cell style {style!r}")


def render_matrix_table(
    matrix: Mapping[str, Mapping[str, float]],
    dut_order: Sequence[str],
    style: str,
    delta_label: str,
) -> str:
    """Render a RefD x DUT statistic matrix with a confidence column.

    ``matrix[ref][dut]`` holds the statistic; rows follow the mapping
    order of ``matrix``; the last column holds the row's confidence
    distance (higher-is-better for means, lower for variances).
    """
    header = ["RefD \\ DUT"] + list(dut_order) + [delta_label]
    rows: List[List[str]] = [header]
    for ref_name, per_dut in matrix.items():
        values = [per_dut[dut] for dut in dut_order]
        if style == "mean":
            delta = confidence_distance_higher(values)
        else:
            delta = confidence_distance_lower(values)
        row = [ref_name]
        row.extend(_format_cell(value, style) for value in values)
        row.append(f"{delta:.2f}%")
        rows.append(row)

    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for index, row in enumerate(rows):
        line = "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        lines.append(line)
        if index == 0:
            lines.append("-" * len(line))
    return "\n".join(lines)


def render_means_table(
    means: Mapping[str, Mapping[str, float]], dut_order: Sequence[str]
) -> str:
    """Table I: means of the correlation sets + Delta_mean."""
    return render_matrix_table(means, dut_order, "mean", "Delta_mean")


def render_variances_table(
    variances: Mapping[str, Mapping[str, float]], dut_order: Sequence[str]
) -> str:
    """Table II: variances of the correlation sets + Delta_v."""
    return render_matrix_table(variances, dut_order, "variance", "Delta_v")


def render_verdicts(report) -> str:
    """Human-readable verdict block for a VerificationReport."""
    lines = [f"Reference device: {report.ref_name}"]
    for verdict in report.verdicts:
        lines.append(
            f"  [{verdict.distinguisher}] -> {verdict.chosen_dut} "
            f"(confidence distance {verdict.confidence_percent:.2f}%)"
        )
    lines.append(f"  unanimous: {report.unanimous}")
    return "\n".join(lines)
