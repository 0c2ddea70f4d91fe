"""Morphological complexity from WALS-style feature values.

The complexity score for one language is the mean of 26 min-max
normalized morphology feature values, summed with ``math.fsum``. Each
feature is a WALS chapter whose raw category codes have been transformed
so that larger final values mean heavier use of morphology; the
transformation type and the final value range are configuration data
carried by a spec file. The bundled default file covers the 26 chapters
(22A through 112A) used for the published complexity column. Input is
final-valued data: integers already transformed.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Mapping

from .ingest import _read_table, bundled_path
from .model import FeatureMatrix, MorphFeatureSpec, _Immutable, _require

SPEC_COLUMNS = ["chapter", "name", "transformation", "final_min", "final_max"]

#: Number of features in the complexity score's feature set.
FEATURE_SET_SIZE = 26


class MorphSpecSet(_Immutable):
    """The full morphology feature set: exactly 26 specs, unique chapters."""

    __slots__ = ("specs",)

    def __init__(self, specs) -> None:
        object.__setattr__(self, "specs", tuple(specs))
        chapters = [s.chapter for s in self.specs]
        _require(
            len(set(chapters)) == len(chapters),
            "duplicate chapter identifiers in morphology spec set",
        )
        _require(
            len(self.specs) == FEATURE_SET_SIZE,
            f"the morphology feature set must contain exactly {FEATURE_SET_SIZE} "
            f"specs, got {len(self.specs)}",
        )

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[MorphFeatureSpec]:
        return iter(self.specs)


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


def c_wals(language_values: Mapping[str, int], specs: MorphSpecSet) -> float:
    """Mean of the normalized feature values for one language.

    ``language_values`` must cover every chapter in the spec set;
    partial coverage is rejected with the absent chapters listed. Extra
    chapters are ignored. The values are summed with ``math.fsum``, so
    the mean has the same bits on every Python version.
    """
    missing = sorted(s.chapter for s in specs if s.chapter not in language_values)
    if missing:
        raise ValueError(f"missing chapters for the complexity score: {', '.join(missing)}")
    normalized = [normalize_feature(language_values[s.chapter], s) for s in specs]
    return math.fsum(normalized) / len(normalized)


def c_wals_table(matrix: FeatureMatrix, specs: MorphSpecSet) -> list[tuple[str, float]]:
    """Per-language complexity scores over a morphology matrix (loaded
    with ``specs``), sorted by iso."""
    return [
        (iso, c_wals(dict(zip(matrix.features, row)), specs))
        for iso, row in sorted(zip(matrix.languages, matrix.values))
    ]


def load_morph_specs(path=None) -> MorphSpecSet:
    """Read a morphology feature spec file.

    CSV with header ``chapter,name,transformation,final_min,final_max``.
    Defaults to the bundled spec file. A final range starts at 0 or
    above (see :class:`~divscore.model.MorphFeatureSpec`).
    """

    def parse(header, row):
        chapter, name, transformation, final_min, final_max = row
        try:
            final_min, final_max = int(final_min), int(final_max)
        except ValueError:
            raise ValueError("final_min and final_max must be integers") from None
        return MorphFeatureSpec(chapter, name, transformation, final_min, final_max)

    _, specs = _read_table(
        path if path is not None else bundled_path("morph_feature_specs.csv"),
        "morphology spec file",
        ",".join(SPEC_COLUMNS),
        lambda h: h == SPEC_COLUMNS,
        parse,
    )
    return MorphSpecSet(specs)
