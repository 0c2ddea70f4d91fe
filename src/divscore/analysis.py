"""Rank correlation, gap diagnosis, and report serialization.

Serialization formats: CSV (the per-bin table, fixed header
``bin,dataset,reference,min,max``) and a self-contained SVG histogram
overlaying the two distributions with the intersection shaded. The JSON
report is ``DiversityReport.to_dict`` inside the CLI's output.
"""
from __future__ import annotations

import csv
import heapq
import io
import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence

from .model import (
    MAX_GAP_EXAMPLES,
    DeficitBin,
    DiversityReport,
    GapReport,
    SurplusBin,
    _require,
)

_FORMATS = ("csv", "svg")


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation rho, in [-1, 1], with average ranks for
    ties, over at least 3 (x, y) pairs.

    Computes the Pearson correlation of the two rank variables; tied
    values receive the mean of the ranks they occupy, so the result is
    well-defined on data with ties.
    """
    _require(len(xs) == len(ys), f"length mismatch: {len(xs)} xs vs {len(ys)} ys")
    n = len(xs)
    _require(n >= 3, f"need at least 3 pairs, got {n}")
    for v in list(xs) + list(ys):
        _require(math.isfinite(v), f"correlation inputs must be finite, got {v}")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    _require(
        max(rx) > min(rx) and max(ry) > min(ry),
        "zero rank variance on one side (all values tied); correlation undefined",
    )
    # The ranks are half-integers summing to n(n+1)/2, so their mean, the
    # centred ranks and every sum of their products are exact, in any
    # order: built-in sum, compensated or not, gives the same bits. The
    # rest is numpy.corrcoef's arithmetic, step for step.
    mean = (n + 1) / 2
    dx = [r - mean for r in rx]
    dy = [r - mean for r in ry]
    f = 1 / (n - 1)
    cov = sum(a * b for a, b in zip(dx, dy)) * f
    sx = math.sqrt(sum(a * a for a in dx) * f)
    sy = math.sqrt(sum(b * b for b in dy) * f)
    return max(-1.0, min(1.0, cov / sx / sy))


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks with ties given the mean of the ranks they span.

    A value seen ``c`` times whose last copy sits at sorted position
    ``e`` spans ranks ``e - c + 1 .. e``, whose mean is ``e - (c - 1) / 2``.
    Every term is a half-integer, so the result is exact and equals
    ``scipy.stats.rankdata(values)`` element for element.
    """
    counts = Counter(values)
    rank = {}
    end = 0
    for v in sorted(counts):
        end += counts[v]
        rank[v] = end - (counts[v] - 1) / 2
    return [rank[v] for v in values]


def attach_gap(
    report: DiversityReport,
    reference_members: Mapping[str, Sequence[str]],
) -> DiversityReport:
    """Return the report with a gap diagnosis built from its per-bin table.

    Bins where the dataset carries more weight become surplus entries;
    bins where it carries less become deficit entries annotated with up
    to ``MAX_GAP_EXAMPLES`` reference languages from ``reference_members``,
    chosen lexicographically so reports are reproducible.
    """
    surplus = []
    deficit = []
    for row in report.per_bin:
        if row.dataset > row.reference:
            surplus.append(SurplusBin(label=row.label, excess=float(row.dataset - row.reference)))
        elif row.dataset < row.reference:
            members = set(reference_members.get(row.label, ()))
            examples = tuple(heapq.nsmallest(MAX_GAP_EXAMPLES, members))
            shortfall = float(row.reference - row.dataset)
            deficit.append(DeficitBin(label=row.label, shortfall=shortfall, examples=examples))
    # built anew rather than by _replace, so the report's checks run again
    return DiversityReport(*report[:4], GapReport(surplus_bins=surplus, deficit_bins=deficit))


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """A header row and data rows as CSV text with ``\\n`` line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def serialize_report(report: DiversityReport, format: str) -> bytes:
    """Render a report's per-bin table as csv or as an svg histogram.

    Output is a pure function of the report: identical reports serialize
    to identical bytes in every format.
    """
    if format not in _FORMATS:
        raise ValueError(f"unsupported format {format!r}; choose one of {sorted(_FORMATS)}")
    if format == "csv":
        return csv_text(
            ["bin", "dataset", "reference", "min", "max"],
            (
                [row.label, row.dataset, row.reference, row.min_weight, row.max_weight]
                for row in report.per_bin
            ),
        ).encode("utf-8")
    return _svg_histogram(report).encode("utf-8")


def _svg_histogram(report: DiversityReport) -> str:
    """Overlaid bar chart of the two per-bin distributions.

    One labelled slot per per-bin row; bins empty on both sides get none,
    so the axis is not to scale. A slot holds a rect per occupied series
    (class ``dataset`` or ``reference``) and a shaded rect (class
    ``intersection``) of height min(dataset, reference) where both are.
    """
    rows = report.per_bin
    margin = 42.0
    slot = 36.0
    bar_w = slot - 8.0
    plot_h = 160.0
    base_y = 24.0 + plot_h
    width = 2 * margin + slot * len(rows)
    height = base_y + 36.0
    peak = max(max(r.dataset, r.reference) for r in rows)

    def y_of(w: float) -> tuple[float, float]:
        h = (w / peak) * plot_h
        return base_y - h, h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">',
        f"<title>{report.score_name} = {report.value!r}</title>",
        f'<line x1="{margin:.1f}" y1="{base_y:.1f}" x2="{width - margin:.1f}" '
        f'y2="{base_y:.1f}" stroke="#555" stroke-width="1"/>',
    ]
    for i, row in enumerate(rows):
        x = margin + i * slot + 4.0
        if row.reference > 0:
            top, h = y_of(row.reference)
            parts.append(
                f'<rect class="reference" x="{x:.2f}" y="{top:.2f}" width="{bar_w:.2f}" '
                f'height="{h:.2f}" fill="#7fb3d5" fill-opacity="0.85"/>'
            )
        if row.dataset > 0:
            top, h = y_of(row.dataset)
            parts.append(
                f'<rect class="dataset" x="{x:.2f}" y="{top:.2f}" width="{bar_w:.2f}" '
                f'height="{h:.2f}" fill="#e59866" fill-opacity="0.6"/>'
            )
        if row.min_weight > 0:
            top, h = y_of(row.min_weight)
            parts.append(
                f'<rect class="intersection" x="{x:.2f}" y="{top:.2f}" width="{bar_w:.2f}" '
                f'height="{h:.2f}" fill="#6c3483" fill-opacity="0.45"/>'
            )
        parts.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{base_y + 14.0:.1f}" font-size="9" '
            f'text-anchor="middle" font-family="sans-serif">{row.label}</text>'
        )
    parts.append(
        f'<text x="{margin:.1f}" y="14" font-size="11" font-family="sans-serif">'
        f"{report.score_name} = {report.value:.6f}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
