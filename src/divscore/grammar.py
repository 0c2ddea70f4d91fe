"""Morphological complexity from WALS-style feature values.

The complexity score for one language is the mean of 26 min-max
normalized morphology feature values, summed with ``math.fsum``. Each
feature is a WALS chapter whose raw category codes have been transformed
so that larger final values mean heavier use of morphology; the final
value range of each chapter is configuration data carried by a spec
file, which also names each chapter's transformation for the reader.
The bundled default file covers the 26 chapters (22A through 112A) used
for the published complexity column. Input is final-valued data:
integers already transformed, in a matrix whose columns and cells
``ingest.load_feature_matrix(specs=...)`` checked against the specs.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from pathlib import Path

from .ingest import _read_table, bundled_path
from .model import FeatureMatrix, MorphFeatureSpec, _require

SPEC_COLUMNS = ["chapter", "name", "transformation", "final_min", "final_max"]

#: Number of features in the complexity score's feature set.
FEATURE_SET_SIZE = 26


def c_wals_table(
    matrix: FeatureMatrix, specs: Sequence[MorphFeatureSpec]
) -> list[tuple[str, float]]:
    """Per-language complexity scores over a morphology matrix loaded
    with ``specs``, sorted by iso: the ``math.fsum`` of a row's values,
    each min-max normalized over its chapter's declared final range
    (never the observed one, so a score does not depend on the other
    languages; a degenerate range gives 0), divided by their count."""
    spec = {s.chapter: s for s in specs}
    ranges = [(spec[f].final_min, spec[f].final_max - spec[f].final_min) for f in matrix.features]

    def score(row: bytes) -> float:
        terms = [(v - lo) / span if span else 0.0 for v, (lo, span) in zip(row, ranges)]
        return math.fsum(terms) / len(terms)

    return [(iso, score(row)) for iso, row in sorted(zip(matrix.languages, matrix.values))]


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
