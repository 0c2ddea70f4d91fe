"""Shared domain types: language identities, text profiles, feature
matrices, and score reports.

Pure data, no I/O and no scoring logic; ``_pairwise_sum`` holds the one
float-summation rule the scorers share. Every type checks its invariants
at construction time and raises ``ValueError`` with a message naming the
violated invariant; instances are immutable afterwards and safe to share
across concurrent computations.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add
from typing import Iterable, Iterator, Sequence

ISO_CODE_RE = re.compile(r"^[a-z]{3}$")

ENDANGERMENT_LEVELS = frozenset({"safe", "vulnerable", "endangered", "extinct", "unknown"})
MATRIX_KINDS = frozenset({"binary_syntactic", "morphological_ordinal"})
TRANSFORMATIONS = frozenset({"none", "binarization", "reorder", "recategorization", "remove"})
SCORE_NAMES = frozenset({"jmm_morph", "jmm_syn"})
#: Maximum example languages listed per deficit bin.
MAX_GAP_EXAMPLES = 5

#: Tolerance for floating-point invariant checks on derived quantities.
_EPS = 1e-9


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _pairwise_sum(values: Sequence[float]) -> float:
    """Sum of ``values`` as floats, in numpy's float64 order, so it equals
    ``float(numpy.sum(values))`` bit for bit.

    Fewer than 8 terms are added one after another from 0.0. Up to 128
    terms go to eight accumulators, the j-th adding terms j, j+8, ... in
    order; they are combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and
    the remaining terms added in order. More terms are split in half, the
    cut rounded down to a multiple of 8, and each half summed the same
    way. The result is added to 0.0, as numpy's reduction starts there.
    Built-in ``sum`` would not do: from Python 3.12 it compensates.
    """

    def run(lo: int, n: int) -> float:
        if n < 8:
            return reduce(add, xs[lo : lo + n], 0.0)
        if n <= 128:
            end = lo + n - n % 8
            r = [reduce(add, xs[lo + j + 8 : end : 8], xs[lo + j]) for j in range(8)]
            head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            return reduce(add, xs[end : lo + n], head)
        half = n // 2 - n // 2 % 8
        return run(lo, half) + run(lo + half, n - half)

    xs = [float(v) for v in values]
    return 0.0 + run(0, len(xs))


@dataclass(frozen=True)
class LanguageRecord:
    """Identity and metadata for one language.

    ``script_scale`` is a positive multiplier applied to observed word
    lengths; it compensates for logographic scripts whose written words
    are shorter than their romanized counterparts. The default 1.0 means
    no adjustment.
    """

    iso: str
    name: str
    family: str | None = None
    endangerment: str | None = None
    script_scale: float = 1.0

    def __post_init__(self) -> None:
        _require(
            bool(ISO_CODE_RE.match(self.iso)),
            f"iso must be exactly three ASCII lowercase letters, got {self.iso!r}",
        )
        if self.endangerment is not None:
            _require(
                self.endangerment in ENDANGERMENT_LEVELS,
                f"endangerment must be one of {sorted(ENDANGERMENT_LEVELS)}, "
                f"got {self.endangerment!r}",
            )
        _require(
            isinstance(self.script_scale, (int, float))
            and math.isfinite(self.script_scale)
            and self.script_scale > 0,
            f"script_scale must be a finite positive number, got {self.script_scale!r}",
        )


@dataclass(frozen=True)
class LanguageSet:
    """Ordered collection of :class:`LanguageRecord`, unique by iso code.

    Construction only enforces uniqueness; scoring operations reject
    empty sets at the point of use.
    """

    members: tuple[LanguageRecord, ...]
    _by_iso: dict[str, LanguageRecord] = field(init=False, repr=False, compare=False)

    def __init__(self, members: Iterable[LanguageRecord]) -> None:
        object.__setattr__(self, "members", tuple(members))
        by_iso: dict[str, LanguageRecord] = {}
        for rec in self.members:
            _require(rec.iso not in by_iso, f"duplicate iso code {rec.iso!r} in language set")
            by_iso[rec.iso] = rec
        object.__setattr__(self, "_by_iso", by_iso)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[LanguageRecord]:
        return iter(self.members)

    def __contains__(self, iso: str) -> bool:
        return iso in self._by_iso

    @property
    def isos(self) -> tuple[str, ...]:
        return tuple(rec.iso for rec in self.members)

    def get(self, iso: str) -> LanguageRecord:
        try:
            return self._by_iso[iso]
        except KeyError:
            raise KeyError(f"no language {iso!r} in set") from None


@dataclass(frozen=True)
class TextProfile:
    """Per-language text statistics computed on one sampled window.

    ``sample_offset`` and ``seed`` record where the window came from so
    the profile can be recomputed exactly.
    """

    iso: str
    mean_word_length: float
    ttr: float
    unigram_entropy: float
    token_count: int
    sample_offset: int
    seed: int

    def __post_init__(self) -> None:
        _require(
            bool(ISO_CODE_RE.match(self.iso)),
            f"iso must be exactly three ASCII lowercase letters, got {self.iso!r}",
        )
        _require(
            math.isfinite(self.mean_word_length) and self.mean_word_length >= 1.0,
            f"mean_word_length must be finite and >= 1 (every kept token has at "
            f"least one grapheme), got {self.mean_word_length}",
        )
        _require(0.0 < self.ttr <= 1.0, f"ttr must lie in (0, 1], got {self.ttr}")
        _require(self.token_count >= 1, f"token_count must be positive, got {self.token_count}")
        _require(
            self.unigram_entropy >= -_EPS,
            f"unigram_entropy must be non-negative, got {self.unigram_entropy}",
        )
        bound = math.log2(self.token_count) if self.token_count > 1 else 0.0
        _require(
            self.unigram_entropy <= bound + _EPS,
            f"unigram_entropy {self.unigram_entropy} exceeds log2(token_count) = {bound}",
        )
        _require(
            self.sample_offset >= 0,
            f"sample_offset must be non-negative, got {self.sample_offset}",
        )


class FeatureMatrix:
    """Languages x named features with small non-negative integer cells.

    ``values`` holds the cells as a tuple of row tuples, one row per
    language, and ``totals`` each feature's sum (a binary feature's count
    of 1s) in feature order. ``kind`` is ``"binary_syntactic"`` (all
    cells 0/1) or ``"morphological_ordinal"`` (final transformed values;
    per-feature ranges are validated against specs by the loader). Every
    cell must be populated: missing values never reach scoring.
    """

    def __init__(
        self,
        languages: Sequence[str],
        features: Sequence[str],
        values: Iterable[Iterable[int]],
        kind: str,
    ) -> None:
        self.languages = tuple(languages)
        self.features = tuple(features)
        _require(kind in MATRIX_KINDS, f"kind must be one of {sorted(MATRIX_KINDS)}, got {kind!r}")
        self.kind = kind
        _require(
            len(set(self.languages)) == len(self.languages),
            "duplicate language codes in feature matrix",
        )
        _require(
            len(set(self.features)) == len(self.features),
            "duplicate feature identifiers in feature matrix",
        )
        rows = tuple(map(tuple, values))
        widths = {len(row) for row in rows}
        _require(
            len(rows) == len(self.languages) and widths == {len(self.features)},
            f"values must have shape ({len(self.languages)}, {len(self.features)}), "
            f"got {len(rows)} rows of {sorted(widths)} cells",
        )
        types = set(map(type, chain.from_iterable(rows)))
        _require(
            types <= {int},
            f"feature values must be integers, got {sorted(t.__name__ for t in types - {int})}",
        )
        distinct = set(chain.from_iterable(rows))
        _require(min(distinct, default=0) >= 0, "feature values must be non-negative")
        if kind == "binary_syntactic":
            _require(distinct <= {0, 1}, "binary_syntactic matrix must contain only 0/1 values")
        self.values = rows
        self.totals = tuple(map(sum, zip(*rows)))
        self._lang_index = {iso: i for i, iso in enumerate(self.languages)}

    @property
    def n_languages(self) -> int:
        return len(self.languages)

    @property
    def n_features(self) -> int:
        return len(self.features)

    def row(self, iso: str) -> dict[str, int]:
        return dict(zip(self.features, self.values[self._lang_index[iso]]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureMatrix):
            return NotImplemented
        return (
            self.languages == other.languages
            and self.features == other.features
            and self.kind == other.kind
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return (
            f"FeatureMatrix({self.n_languages} languages x {self.n_features} "
            f"features, kind={self.kind!r})"
        )


@dataclass(frozen=True)
class MorphFeatureSpec:
    """One WALS chapter: the transformation that produced its final
    values and the integer range they lie in."""

    chapter: str
    name: str
    transformation: str
    final_min: int
    final_max: int

    def __post_init__(self) -> None:
        _require(bool(self.chapter), "chapter identifier must be non-empty")
        _require(
            self.transformation in TRANSFORMATIONS,
            f"transformation must be one of {sorted(TRANSFORMATIONS)}, "
            f"got {self.transformation!r}",
        )
        _require(
            self.final_min <= self.final_max,
            f"final_min {self.final_min} must be <= final_max {self.final_max} "
            f"for chapter {self.chapter}",
        )


@dataclass(frozen=True)
class BinOverlap:
    """One aligned bin (or feature dimension) of a two-way comparison."""

    label: str
    dataset: float
    reference: float
    min_weight: float
    max_weight: float

    def to_dict(self) -> dict:
        return {
            "bin": self.label,
            "dataset": self.dataset,
            "reference": self.reference,
            "min": self.min_weight,
            "max": self.max_weight,
        }


@dataclass(frozen=True)
class SurplusBin:
    """Bin where the dataset carries more weight than the reference."""

    label: str
    excess: float

    def to_dict(self) -> dict:
        return {"bin": self.label, "excess": self.excess}


@dataclass(frozen=True)
class DeficitBin:
    """Bin where the dataset falls short of the reference, with example
    reference languages that would fill it."""

    label: str
    shortfall: float
    examples: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"bin": self.label, "shortfall": self.shortfall, "examples": list(self.examples)}


@dataclass(frozen=True)
class GapReport:
    """Per-bin surplus/deficit of a dataset against the reference."""

    surplus_bins: tuple[SurplusBin, ...]
    deficit_bins: tuple[DeficitBin, ...]

    def __init__(
        self,
        surplus_bins: Iterable[SurplusBin],
        deficit_bins: Iterable[DeficitBin],
    ) -> None:
        object.__setattr__(self, "surplus_bins", tuple(surplus_bins))
        object.__setattr__(self, "deficit_bins", tuple(deficit_bins))
        surplus_labels = {b.label for b in self.surplus_bins}
        deficit_labels = {b.label for b in self.deficit_bins}
        overlap = surplus_labels & deficit_labels
        _require(
            not overlap,
            f"a bin may appear in at most one of surplus/deficit, got both for {sorted(overlap)}",
        )

    def to_dict(self) -> dict:
        return {
            "surplus": [b.to_dict() for b in self.surplus_bins],
            "deficit": [b.to_dict() for b in self.deficit_bins],
        }


@dataclass(frozen=True)
class DiversityReport:
    """A minmax Jaccard score with its per-bin table, the size scalar c
    and, once diagnosed, its gap.

    The score must equal sum(min) / sum(max) over the table rows; this is
    validated on construction.
    """

    score_name: str
    value: float
    per_bin: tuple[BinOverlap, ...]
    normalization_c: float
    gap: GapReport | None = None

    def __post_init__(self) -> None:
        _require(
            self.score_name in SCORE_NAMES,
            f"score_name must be one of {sorted(SCORE_NAMES)}, got {self.score_name!r}",
        )
        _require(
            -_EPS <= self.value <= 1.0 + _EPS,
            f"score value must lie in [0, 1], got {self.value}",
        )
        _require(
            self.normalization_c >= 1.0 - _EPS,
            f"normalization scalar must be >= 1, got {self.normalization_c}",
        )
        object.__setattr__(self, "per_bin", tuple(self.per_bin))
        # Built-in sum is safe here although it compensates from Python 3.12
        # on: that moves num / den far less than the 1e-12 tolerance, and
        # only this check reads the two sums.
        num = sum(r.min_weight for r in self.per_bin)
        den = sum(r.max_weight for r in self.per_bin)
        _require(den > 0, "per_bin max weights sum to zero")
        _require(
            abs(self.value - num / den) <= 1e-12,
            f"score value {self.value} does not equal sum(min)/sum(max) "
            f"= {num / den} over per_bin rows",
        )

    def to_dict(self) -> dict:
        return {
            "score_name": self.score_name,
            "value": self.value,
            "normalization_c": self.normalization_c,
            "per_bin": [r.to_dict() for r in self.per_bin],
            "gap": self.gap.to_dict() if self.gap is not None else None,
        }
