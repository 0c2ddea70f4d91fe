"""Morphological complexity from WALS-style feature values.

The complexity score for one language is the mean of 26 min-max
normalized morphology feature values, summed with ``math.fsum``. Each
feature is a WALS chapter whose raw category codes have been transformed
so that larger final values mean heavier use of morphology; the final
value range of each chapter is configuration data carried by a spec
file, which also names each chapter's transformation for the reader.
The bundled default file covers the 26 chapters (22A through 112A) used
for the published complexity column. Input is final-valued data:
integers already transformed.
"""
from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from pathlib import Path

from .ingest import _read_table, bundled_path
from .model import FeatureMatrix, MorphFeatureSpec, _require

SPEC_COLUMNS = ["chapter", "name", "transformation", "final_min", "final_max"]

#: Number of features in the complexity score's feature set.
FEATURE_SET_SIZE = 26


def normalize_feature(value: int, spec: MorphFeatureSpec) -> float:
    """Min-max normalize a final value into [0, 1] over the declared range.

    Normalization uses the declared final range, never the observed one,
    so a language's score does not depend on which other languages are
    present. A degenerate range (final_min = final_max) normalizes to 0.
    """
    _require(
        spec.final_min <= value <= spec.final_max,
        f"value {value} lies outside the final range [{spec.final_min}, "
        f"{spec.final_max}] for chapter {spec.chapter}",
    )
    if spec.final_min == spec.final_max:
        return 0.0
    return (value - spec.final_min) / (spec.final_max - spec.final_min)


def c_wals(language_values: Mapping[str, int], specs: Sequence[MorphFeatureSpec]) -> float:
    """Mean of the normalized feature values for one language.

    ``language_values`` must cover every chapter in ``specs``;
    partial coverage is rejected with the absent chapters listed. Extra
    chapters are ignored. The values are summed with ``math.fsum``, so
    the mean has the same bits on every Python version.
    """
    missing = sorted(s.chapter for s in specs if s.chapter not in language_values)
    if missing:
        raise ValueError(f"missing chapters for the complexity score: {', '.join(missing)}")
    normalized = [normalize_feature(language_values[s.chapter], s) for s in specs]
    return math.fsum(normalized) / len(normalized)


def c_wals_table(
    matrix: FeatureMatrix, specs: Sequence[MorphFeatureSpec]
) -> list[tuple[str, float]]:
    """Per-language complexity scores over a morphology matrix (loaded
    with ``specs``), sorted by iso."""
    return [
        (iso, c_wals(dict(zip(matrix.features, row)), specs))
        for iso, row in sorted(zip(matrix.languages, matrix.values))
    ]


def load_morph_specs(path=None) -> tuple[MorphFeatureSpec, ...]:
    """Read a morphology feature spec file: the full feature set, one
    spec per chapter in file order.

    CSV with header ``chapter,name,transformation,final_min,final_max``
    and exactly 26 rows, one per chapter. Defaults to the bundled spec
    file. ``name`` and ``transformation`` are recorded there for the
    reader and not read. A final range starts at 0 or above (see
    :class:`~divscore.model.MorphFeatureSpec`).
    """
    path = Path(path) if path is not None else bundled_path("morph_feature_specs.csv")

    def parse(header, row):
        chapter, _, _, final_min, final_max = row
        try:
            final_min, final_max = int(final_min), int(final_max)
        except ValueError:
            raise ValueError("final_min and final_max must be integers") from None
        return MorphFeatureSpec(chapter, final_min, final_max)

    _, specs = _read_table(
        path, "morphology spec file", ",".join(SPEC_COLUMNS), lambda h: h == SPEC_COLUMNS, parse
    )
    _require(
        len(specs) == FEATURE_SET_SIZE,
        f"morphology spec file {path} must list exactly {FEATURE_SET_SIZE} chapters, "
        f"got {len(specs)}",
    )
    return tuple(specs)
