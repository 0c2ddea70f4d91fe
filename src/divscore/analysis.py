"""Rank correlation, gap diagnosis, and the SVG report.

The gap diagnosis (``attach_gap``) is the surplus and deficit rows of a
report's per-bin table, built as the dicts the JSON prints, with the
first few reference languages of each deficit row. ``serialize_report``
renders the table as a self-contained SVG histogram overlaying the two
distributions with the intersection shaded, every bar from one template
(``_BARS``); it is the one SVG writer. The JSON report is
``DiversityReport.to_dict`` of the report and its gap block, and the CSV
the table's rows under ``BinOverlap.COLUMNS``, both written by the CLI's
emitter, so writing CSV executes nothing here.
"""
from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from operator import getitem

from .model import MAX_GAP_EXAMPLES, DiversityReport, _require


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


def attach_gap(report: DiversityReport, isos: Sequence[str]) -> dict:
    """The gap block of a report, as the JSON prints it, read off its
    per-bin table: ``{"surplus": [...], "deficit": [...]}``.

    A row where the dataset carries more weight is a surplus entry
    ``{"bin", "excess"}``; a row where it carries less is a deficit entry
    ``{"bin", "shortfall", "examples"}``. A row is at most one of the two.
    The examples are the first ``MAX_GAP_EXAMPLES`` reference languages
    in iso order that the row counts, so reports are reproducible:
    ``isos[i]`` names the i-th language of the report's reference side,
    counted in the rows its cells' keys name. The scan stops once
    every deficit row lists as many languages as it counts, up to
    ``MAX_GAP_EXAMPLES``, and reads no other language's keys.
    """
    reference, surplus, deficit, examples, left = report.reference, [], [], {}, 0
    for count, row in zip(reference.counts, report.per_bin):
        if row.dataset > row.reference:
            surplus.append({"bin": row.label, "excess": row.dataset - row.reference})
        elif row.dataset < row.reference:
            shortfall = row.reference - row.dataset
            listed = examples[row.label] = []
            deficit.append({"bin": row.label, "shortfall": shortfall, "examples": listed})
            left += min(count, MAX_GAP_EXAMPLES)
    for i in sorted(range(len(isos)), key=isos.__getitem__):
        if not left:
            break
        for key in map(getitem, reference.key_of, reference.cells[i]):
            listed = examples.get(key)
            if listed is not None and len(listed) < MAX_GAP_EXAMPLES:
                listed.append(isos[i])
                left -= 1
    return {"surplus": surplus, "deficit": deficit}


#: The bar of each series in an SVG slot, in drawing order: its class,
#: fill and fill opacity, for a row's reference, dataset and min weight.
_BARS = (
    ("reference", "#7fb3d5", "0.85"),
    ("dataset", "#e59866", "0.6"),
    ("intersection", "#6c3483", "0.45"),
)


def serialize_report(report: DiversityReport) -> str:
    """A report's per-bin table as an SVG overlaid bar chart of the two
    distributions, a pure function of the report.

    One labelled slot per per-bin row; bins empty on both sides get none,
    so the axis is not to scale. A slot holds a rect per occupied series
    (class ``dataset`` or ``reference``) and a shaded rect (class
    ``intersection``) of height min(dataset, reference) where both are.
    Each slot's label, a bin or feature name, has its ``&``, ``<`` and
    ``>`` escaped, so any name gives well-formed XML.
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
        for (series, fill, opacity), w in zip(_BARS, (row.reference, row.dataset, row.min_weight)):
            if w > 0:
                h = (w / peak) * plot_h
                parts.append(
                    f'<rect class="{series}" x="{x:.2f}" y="{base_y - h:.2f}" '
                    f'width="{bar_w:.2f}" height="{h:.2f}" fill="{fill}" '
                    f'fill-opacity="{opacity}"/>'
                )
        label = row.label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{base_y + 14.0:.1f}" font-size="9" '
            f'text-anchor="middle" font-family="sans-serif">{label}</text>'
        )
    parts.append(
        f'<text x="{margin:.1f}" y="14" font-size="11" font-family="sans-serif">'
        f"{report.score_name} = {report.value:.6f}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
