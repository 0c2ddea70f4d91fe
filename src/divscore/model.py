"""Shared domain types: language records, text profiles, morphology
feature specs, feature matrices, and score reports.

A record carries only the fields some command reads; the loaders skip
every other column of their files. Pure data and no I/O; what is
computed is derived once, at construction: a feature matrix's column
totals, and a score report's value, size ratio and per-bin table, from
its counts. The gap diagnosis is no type: ``analysis.attach_gap`` reads
it off the per-bin table as the rows the JSON prints. Every
type but ``FeatureMatrix`` checks its invariants at construction time
and raises ``ValueError`` with a message naming the violated invariant;
a feature matrix's rules are checked once, row by row, by the loader
that builds it.

Every type is a ``collections.namedtuple`` subclass with empty
``__slots__`` whose ``__new__`` runs the checks and builds any derived
field, so instances are immutable and safe to share across concurrent
computations. A record compares, hashes and unpacks as a tuple of its
fields in declared order. ``_replace`` skips the checks and leaves the
derived fields as they were; build a new record instead.
"""
from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterable
from operator import methodcaller

_ISO = "[a-z]{3}"
#: ``\Z``, not ``$``, which also matches before a final line break.
ISO_CODE_RE = re.compile(rf"^{_ISO}\Z")
#: For ``fullmatch``: iso codes joined by line breaks, a table's key column.
ISO_COLUMN_RE = re.compile(rf"{_ISO}(?:\n{_ISO})*")

SCORE_NAMES = frozenset({"jmm_morph", "jmm_syn"})
#: Maximum example languages listed per deficit bin.
MAX_GAP_EXAMPLES = 5

#: Tolerance for floating-point invariant checks on derived quantities.
_EPS = 1e-9


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _require_iso(iso: str) -> None:
    """The iso rule of records, profiles and corpora."""
    _require(
        bool(ISO_CODE_RE.match(iso)),
        f"iso must be exactly three ASCII lowercase letters, got {iso!r}",
    )


class LanguageRecord(
    namedtuple("LanguageRecord", "iso family script_scale", defaults=(None, 1.0))
):
    """What a command reads of one language: ``iso``, an optional
    ``family`` string, and ``script_scale``.

    ``script_scale`` is a positive multiplier applied to observed word
    lengths; it compensates for logographic scripts whose written words
    are shorter than their romanized counterparts. The default 1.0 means
    no adjustment.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> LanguageRecord:
        self = super().__new__(cls, *args, **kwargs)
        _require_iso(self.iso)
        _require(
            isinstance(self.script_scale, (int, float))
            and math.isfinite(self.script_scale)
            and self.script_scale > 0,
            f"script_scale must be a finite positive number, got {self.script_scale!r}",
        )
        return self


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


class FeatureMatrix(namedtuple("FeatureMatrix", "languages features values totals")):
    """Languages x named features with integer cells in 0-255, as
    ``ingest.load_feature_matrix`` returns them.

    Built from rows of ints, ``values`` holds one ``bytes`` row per
    language, so ``row[j]`` is the int cell of feature j, and indexing,
    iterating or zipping a row gives ints. ``totals``, derived, holds each
    feature's sum in feature order, taken over one buffer of all rows; in
    a binary matrix (every cell 0 or 1) it is the column's count of 1s.
    The loader is the one place that checks the cells (int, 0/1 or inside
    the spec ranges, which lie in 0-255), the shape and the unique
    languages and features; this type checks nothing.
    """

    __slots__ = ()

    def __new__(cls, languages, features, values) -> FeatureMatrix:
        rows, features = tuple(map(bytes, values)), tuple(features)
        width, cells = len(features), b"".join(rows)
        total = sum if cells.translate(None, b"\0\1") else methodcaller("count", 1)
        totals = tuple(total(cells[j::width]) for j in range(width))
        return super().__new__(cls, tuple(languages), features, rows, totals)

    def __getnewargs__(self) -> tuple:
        """What ``copy`` and ``pickle`` pass to ``__new__``: the matrix is
        built again from its languages, features and rows."""
        return self[:3]

    @property
    def n_languages(self) -> int:
        return len(self.languages)


class MorphFeatureSpec(namedtuple("MorphFeatureSpec", "chapter final_min final_max")):
    """One WALS chapter and the integer range its final values lie in.
    The range starts at 0 or above and ends at 255 or below, so every
    feature matrix cell fits in one byte."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> MorphFeatureSpec:
        self = super().__new__(cls, *args, **kwargs)
        _require(bool(self.chapter), "chapter identifier must be non-empty")
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


class Side(namedtuple("Side", "n keys counts")):
    """One side of a minmax Jaccard comparison: its ``n`` languages and,
    for each row key in row order, the int count of languages in the row
    (bin indices k in order of k, or syn row labels). Every count lies in
    [0, n], so a score over two sides lies in [0, 1]."""

    __slots__ = ()

    def __new__(cls, n: int, keys: Iterable, counts: Iterable[int]) -> Side:
        self = super().__new__(cls, n, tuple(keys), tuple(counts))
        _require(self.n >= 1, f"set sizes must be positive, got {self.n}")
        _require(len(self.keys) == len(self.counts), "a side needs one count per row key")
        _require(
            all(0 <= t <= self.n for t in self.counts),
            f"row counts must lie in [0, {self.n}]",
        )
        return self


class DiversityReport(
    namedtuple("DiversityReport", "score_name dataset reference value normalization_c per_bin")
):
    """A minmax Jaccard score: two :class:`Side` records over the same row
    keys, and what derives from their counts, built once here.

    ``value`` is sum(min) / sum(max) of the counts, the smaller side's
    scaled by c. Each count is multiplied by the other side's n instead,
    which keeps every term an int, so one int division rounds the ratio.
    ``normalization_c`` is that c, the size ratio max(n) / min(n).
    ``per_bin`` holds one :class:`BinOverlap` per row, the smaller side's
    counts multiplied by c; a morph row is labelled ``bin<k>``, a syn row
    by its key. So a report cannot hold a score its table does not give.
    """

    __slots__ = ()

    def __new__(cls, score_name: str, dataset: Side, reference: Side) -> DiversityReport:
        _require(
            score_name in SCORE_NAMES,
            f"score_name must be one of {sorted(SCORE_NAMES)}, got {score_name!r}",
        )
        _require(dataset.keys == reference.keys, "dataset and reference rows differ")
        _require(any(dataset.counts) or any(reference.counts), "both sides' row counts sum to zero")
        d, r = dataset, reference
        wd, wr = [t * r.n for t in d.counts], [t * d.n for t in r.counts]
        value = sum(map(min, wd, wr)) / sum(map(max, wd, wr))
        c = max(d.n, r.n) / min(d.n, r.n)
        scale_d, scale_r = (c, 1.0) if d.n < r.n else (1.0, c)
        wd, wr = [t * scale_d for t in d.counts], [t * scale_r for t in r.counts]
        labels = map("bin{}".format, d.keys) if score_name == "jmm_morph" else d.keys
        per_bin = tuple(map(BinOverlap, labels, wd, wr, map(min, wd, wr), map(max, wd, wr)))
        return super().__new__(cls, score_name, d, r, value, c, per_bin)

    def __getnewargs__(self) -> tuple:
        """What ``copy`` and ``pickle`` pass to ``__new__``: the report is
        built again from its name and sides."""
        return self[:3]

    def to_dict(self, gap: dict | None = None) -> dict:
        """The report as the JSON prints it, with ``gap`` (the block
        ``analysis.attach_gap`` returns) as its gap."""
        return {
            "score_name": self.score_name,
            "value": self.value,
            "normalization_c": self.normalization_c,
            "per_bin": [r.to_dict() for r in self.per_bin],
            "gap": gap,
        }
