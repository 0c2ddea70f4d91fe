"""Rank correlation, gap diagnosis, and report serialization.

Serialization formats: JSON (full report, versioned schema), CSV (the
per-bin table only, fixed header ``bin,dataset,reference,min,max``), and
a self-contained SVG histogram overlaying the two distributions with the
intersection shaded.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .diversity import WeightVector
from .model import (
    DeficitBin,
    DiversityReport,
    GapReport,
    SurplusBin,
    _require,
)

SCHEMA_VERSION = "1"

#: Maximum example languages listed per deficit bin.
MAX_GAP_EXAMPLES = 5

_FORMATS = ("json", "csv", "svg")


@dataclass(frozen=True)
class CorrelationResult:
    """Spearman rank correlation over n (x, y) pairs."""

    rho: float
    n: int
    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        _require(-1.0 <= self.rho <= 1.0, f"rho must lie in [-1, 1], got {self.rho}")
        _require(self.n >= 3, f"a reported correlation needs n >= 3, got {self.n}")
        _require(
            len(self.pairs) == self.n,
            f"pair count {len(self.pairs)} does not match n = {self.n}",
        )


def spearman(xs: Sequence[float], ys: Sequence[float]) -> CorrelationResult:
    """Spearman rank correlation with average ranks for ties.

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
        bool(np.ptp(rx) > 0) and bool(np.ptp(ry) > 0),
        "zero rank variance on one side (all values tied); correlation undefined",
    )
    rho = float(np.corrcoef(rx, ry)[0, 1])
    rho = max(-1.0, min(1.0, rho))
    pairs = tuple((float(x), float(y)) for x, y in zip(xs, ys))
    return CorrelationResult(rho=rho, n=n, pairs=pairs)


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties given the mean of the ranks they span.

    A value seen ``c`` times whose last copy sits at sorted position
    ``e`` spans ranks ``e - c + 1 .. e``, whose mean is ``e - (c - 1) / 2``.
    Every term is a half-integer, so the result is exact and equals
    ``scipy.stats.rankdata(values)`` element for element.
    """
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def gap_report(
    dataset_bins: WeightVector,
    reference_bins: WeightVector,
    reference_members: Mapping[str, Sequence[str]],
) -> GapReport:
    """Diagnose where the dataset's distribution misses the reference.

    Both vectors must be aligned (same labels, same order), with any
    size scaling already applied. Bins where the dataset carries more
    weight become surplus entries; bins where it carries less become
    deficit entries annotated with up to five example reference
    languages from ``reference_members``, chosen lexicographically so
    reports are reproducible.
    """
    _require(
        dataset_bins.labels == reference_bins.labels,
        "gap report needs aligned weight vectors with identical labels",
    )
    surplus = []
    deficit = []
    for lab, wd, wr in zip(dataset_bins.labels, dataset_bins.weights, reference_bins.weights):
        if wd > wr:
            surplus.append(SurplusBin(label=lab, excess=float(wd - wr)))
        elif wd < wr:
            examples = tuple(sorted(set(reference_members.get(lab, ()))))[:MAX_GAP_EXAMPLES]
            deficit.append(DeficitBin(label=lab, shortfall=float(wr - wd), examples=examples))
    return GapReport(surplus_bins=surplus, deficit_bins=deficit)


def attach_gap(
    report: DiversityReport,
    reference_members: Mapping[str, Sequence[str]],
) -> DiversityReport:
    """Return the report with a gap diagnosis built from its per-bin table."""
    _require(report.per_bin is not None, "report has no per-bin table to diagnose")
    labels = [r.label for r in report.per_bin]
    vec_d = WeightVector(labels, [r.dataset for r in report.per_bin])
    vec_r = WeightVector(labels, [r.reference for r in report.per_bin])
    return replace(report, gap=gap_report(vec_d, vec_r, reference_members))


def serialize_report(report: DiversityReport, format: str) -> bytes:
    """Render a report as json, csv (per-bin table), or svg histogram.

    Output is a pure function of the report: identical reports serialize
    to identical bytes in every format.
    """
    if format not in _FORMATS:
        raise ValueError(f"unsupported format {format!r}; choose one of {sorted(_FORMATS)}")
    if format == "json":
        payload = {"schema_version": SCHEMA_VERSION}
        payload.update(report.to_dict())
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    _require(report.per_bin is not None, f"report has no per-bin table to render as {format}")
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["bin", "dataset", "reference", "min", "max"])
        for row in report.per_bin:
            writer.writerow(
                [row.label, row.dataset, row.reference, row.min_weight, row.max_weight]
            )
        return buf.getvalue().encode("utf-8")
    return _svg_histogram(report).encode("utf-8")


def deserialize_report(data: bytes | str) -> DiversityReport:
    """Parse serialized JSON back into an equal DiversityReport."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    payload = json.loads(data)
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION!r}")
    return DiversityReport.from_dict(payload)


def _svg_histogram(report: DiversityReport) -> str:
    """Overlaid bar chart of the two per-bin distributions.

    One rect per occupied bin per series (class ``dataset`` or
    ``reference``), plus a shaded rect (class ``intersection``) of
    height min(dataset, reference) wherever both are occupied.
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
        h = 0.0 if peak == 0 else (w / peak) * plot_h
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
