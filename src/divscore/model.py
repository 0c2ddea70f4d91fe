"""Shared domain types: language identities, text profiles, feature
matrices, and score reports.

Pure data, no I/O and no scoring logic. Every type but ``FeatureMatrix``
checks its invariants at construction time and raises ``ValueError``
with a message naming the violated invariant; a feature matrix's rules
are checked once, row by row, by the loader that builds it. Instances
are immutable afterwards and safe to share across concurrent
computations.

A record of fields alone is a ``collections.namedtuple`` subclass with
empty ``__slots__`` whose ``__new__`` runs the checks; it compares, hashes
and unpacks as a tuple of its fields in declared order. A type that
builds derived state in ``__init__`` is a slotted subclass of
``_Immutable``, so assigning to it afterwards raises ``AttributeError``.
``_replace`` skips the checks; build a new record instead.
"""
from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

#: ``\Z``, not ``$``, which also matches before a final line break.
ISO_CODE_RE = re.compile(r"^[a-z]{3}\Z")

ENDANGERMENT_LEVELS = frozenset({"safe", "vulnerable", "endangered", "extinct", "unknown"})
TRANSFORMATIONS = frozenset({"none", "binarization", "reorder", "recategorization", "remove"})
SCORE_NAMES = frozenset({"jmm_morph", "jmm_syn"})
#: Maximum example languages listed per deficit bin.
MAX_GAP_EXAMPLES = 5

#: Tolerance for floating-point invariant checks on derived quantities.
_EPS = 1e-9


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _require_iso(iso: str) -> None:
    """The iso rule of records, profiles, corpora and token sequences."""
    _require(
        bool(ISO_CODE_RE.match(iso)),
        f"iso must be exactly three ASCII lowercase letters, got {iso!r}",
    )


class _Immutable:
    """Base of the slotted types, whose ``__init__`` sets each field with
    ``object.__setattr__``: no field can be set or deleted afterwards."""

    __slots__ = ()

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")

    __delattr__ = __setattr__


class LanguageRecord(
    namedtuple(
        "LanguageRecord",
        "iso name family endangerment script_scale",
        defaults=(None, None, 1.0),
    )
):
    """Identity and metadata for one language: ``iso`` and ``name``, then
    optional ``family`` and ``endangerment`` strings.

    ``script_scale`` is a positive multiplier applied to observed word
    lengths; it compensates for logographic scripts whose written words
    are shorter than their romanized counterparts. The default 1.0 means
    no adjustment.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> LanguageRecord:
        self = super().__new__(cls, *args, **kwargs)
        _require_iso(self.iso)
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
        return self


class LanguageSet(_Immutable):
    """Ordered collection of :class:`LanguageRecord`, unique by iso code.

    Construction only enforces uniqueness; scoring operations reject
    empty sets at the point of use. Two sets are equal when their
    ``members`` are.
    """

    __slots__ = ("members", "_by_iso")

    def __init__(self, members: Iterable[LanguageRecord]) -> None:
        object.__setattr__(self, "members", tuple(members))
        by_iso: dict[str, LanguageRecord] = {}
        for rec in self.members:
            _require(rec.iso not in by_iso, f"duplicate iso code {rec.iso!r} in language set")
            by_iso[rec.iso] = rec
        object.__setattr__(self, "_by_iso", by_iso)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LanguageSet):
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[LanguageRecord]:
        return iter(self.members)

    def __contains__(self, iso: str) -> bool:
        return iso in self._by_iso

    def get(self, iso: str) -> LanguageRecord:
        try:
            return self._by_iso[iso]
        except KeyError:
            raise KeyError(f"no language {iso!r} in set") from None


class TextProfile(
    namedtuple(
        "TextProfile",
        "iso mean_word_length ttr unigram_entropy token_count sample_offset seed",
    )
):
    """Per-language text statistics computed on one sampled window.

    ``sample_offset`` and ``seed`` record where the window came from so
    the profile can be recomputed exactly.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> TextProfile:
        self = super().__new__(cls, *args, **kwargs)
        _require_iso(self.iso)
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
        return self


class FeatureMatrix(_Immutable):
    """Languages x named features with integer cells in 0-255, as
    ``ingest.load_feature_matrix`` returns them.

    ``values`` holds one ``bytes`` row per language, so ``row[j]`` is the
    int cell of feature j, and indexing, iterating or zipping a row gives
    ints. ``totals`` holds each feature's sum (a binary feature's count of
    1s) in feature order, summed over one buffer of all rows. The loader
    is the one place that checks the cells (int, 0/1 or inside the spec
    ranges, which lie in 0-255), the shape and the unique languages and
    features; this type checks nothing.
    """

    __slots__ = ("languages", "features", "values", "totals")

    def __init__(
        self,
        languages: Sequence[str],
        features: Sequence[str],
        values: Iterable[Iterable[int]],
    ) -> None:
        rows = tuple(map(bytes, values))
        object.__setattr__(self, "languages", tuple(languages))
        object.__setattr__(self, "features", tuple(features))
        object.__setattr__(self, "values", rows)
        width, cells = len(self.features), b"".join(rows)
        object.__setattr__(self, "totals", tuple(sum(cells[j::width]) for j in range(width)))

    @property
    def n_languages(self) -> int:
        return len(self.languages)


class MorphFeatureSpec(
    namedtuple("MorphFeatureSpec", "chapter name transformation final_min final_max")
):
    """One WALS chapter: the transformation that produced its final
    values and the integer range they lie in. The range starts at 0 or
    above and ends at 255 or below, so every feature matrix cell fits in
    one byte."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> MorphFeatureSpec:
        self = super().__new__(cls, *args, **kwargs)
        _require(bool(self.chapter), "chapter identifier must be non-empty")
        _require(
            self.transformation in TRANSFORMATIONS,
            f"transformation must be one of {sorted(TRANSFORMATIONS)}, "
            f"got {self.transformation!r}",
        )
        _require(
            self.final_min >= 0,
            f"final_min {self.final_min} for chapter {self.chapter} must be non-negative",
        )
        _require(
            self.final_min <= self.final_max,
            f"final_min {self.final_min} must be <= final_max {self.final_max} "
            f"for chapter {self.chapter}",
        )
        _require(
            self.final_max <= 255,
            f"final_max {self.final_max} for chapter {self.chapter} must be at most 255",
        )
        return self


class BinOverlap(namedtuple("BinOverlap", "label dataset reference min_weight max_weight")):
    """One aligned bin (or feature dimension) of a two-way comparison."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "bin": self.label,
            "dataset": self.dataset,
            "reference": self.reference,
            "min": self.min_weight,
            "max": self.max_weight,
        }


class SurplusBin(namedtuple("SurplusBin", "label excess")):
    """Bin where the dataset carries more weight than the reference."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"bin": self.label, "excess": self.excess}


class DeficitBin(namedtuple("DeficitBin", "label shortfall examples")):
    """Bin where the dataset falls short of the reference, with example
    reference languages (a tuple of iso codes) that would fill it."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"bin": self.label, "shortfall": self.shortfall, "examples": list(self.examples)}


class GapReport(_Immutable):
    """Per-bin surplus/deficit of a dataset against the reference: tuples
    of :class:`SurplusBin` and :class:`DeficitBin`."""

    __slots__ = ("surplus_bins", "deficit_bins")

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


class DiversityReport(
    namedtuple("DiversityReport", "score_name value per_bin normalization_c gap")
):
    """A minmax Jaccard score with its per-bin table (a tuple of
    :class:`BinOverlap`), the size scalar c and, once diagnosed, its gap.

    The score must equal sum(min) / sum(max) over the table rows; this is
    validated on construction.
    """

    __slots__ = ()

    def __new__(
        cls,
        score_name: str,
        value: float,
        per_bin: Iterable[BinOverlap],
        normalization_c: float,
        gap: GapReport | None = None,
    ) -> DiversityReport:
        self = super().__new__(cls, score_name, value, tuple(per_bin), normalization_c, gap)
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
        num = math.fsum(r.min_weight for r in self.per_bin)
        den = math.fsum(r.max_weight for r in self.per_bin)
        _require(den > 0, "per_bin max weights sum to zero")
        _require(
            abs(self.value - num / den) <= 1e-12,
            f"score value {self.value} does not equal sum(min)/sum(max) "
            f"= {num / den} over per_bin rows",
        )
        return self

    def to_dict(self) -> dict:
        return {
            "score_name": self.score_name,
            "value": self.value,
            "normalization_c": self.normalization_c,
            "per_bin": [r.to_dict() for r in self.per_bin],
            "gap": self.gap.to_dict() if self.gap is not None else None,
        }
