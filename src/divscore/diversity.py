"""The scoring core.

Two families of diversity scores over language features:

* Minmax Jaccard: count both data sets over one table of rows, multiply
  every count of the smaller set by the size ratio
  c = max(|A|,|B|) / min(|A|,|B|) so that set size does not masquerade
  as diversity, and score sum_j min(a_j, b_j) / sum_j max(a_j, b_j). 1
  means the distributions coincide after size normalization, 0 disjoint
  support. For measurements the rows are the bins occupied on either
  side, labelled ``bin<k>`` (a bin empty on both sides would add 0 to
  both sums); for binary syntactic features they are the features, or
  ``<feature>=1`` and ``<feature>=0``. Those labels are written only in
  this module: :func:`bin_members` and :func:`feature_members` give the
  languages in each row, or its first few, for the gap report.

* Typological index: mean Shannon entropy (base 2) of feature-value
  distributions across the languages of one set. For binary syntactic
  features each feature contributes the entropy of its fraction of 1s;
  for binned measurements each occupied bin is treated as a binary
  in-this-bin feature.

Scaled weights stay fractional; rounding would break the invariance of
the Jaccard score under replication of a data set. Float sums and means
go through ``model._pairwise_sum``, which adds in numpy's order, so each
score has the same bits on every Python version.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Sequence
from itertools import islice

from .model import (
    MAX_GAP_EXAMPLES, BinOverlap, DiversityReport, FeatureMatrix, _pairwise_sum, _require
)

_MIN_NORMAL = sys.float_info.min
_MAX_FLOAT = sys.float_info.max
#: A float quotient farther than |q| * 2**-40 from every integer has the
#: same floor as the decimal quotient: printing each operand as its
#: shortest decimal and dividing in floats err by a few 2**-53 of |q|.
_NEAR_INTEGER = 2.0**-40


def bin_index(value: float, width: float) -> int:
    """Index k of the half-open bin [k*width, (k+1)*width) holding ``value``.

    ``value`` and ``width`` are read as the decimals they print as
    (``repr``), which is also what CSV and JSON show, so 0.3 at width 0.1
    lands in bin 3 and a value on a boundary belongs to the upper bin.
    The float quotient decides whenever it is clearly away from an
    integer; near an integer, or when a subnormal, zero or infinite
    operand makes the quotient unreliable, the decimal floor decides.
    """
    if width >= _MIN_NORMAL and abs(value) >= _MIN_NORMAL:
        q = value / width
        if _MIN_NORMAL <= abs(q) <= _MAX_FLOAT:
            k = math.floor(q)
            tol = abs(q) * _NEAR_INTEGER
            if q - k > tol and k + 1 - q > tol:
                return k
    _require(math.isfinite(value), f"cannot bin non-finite value {value}")
    _require(
        math.isfinite(width) and width > 0,
        f"bin width must be a finite positive number, got {width}",
    )
    from fractions import Fraction  # imported here: most commands never take this path

    return Fraction(repr(float(value))) // Fraction(repr(float(width)))


def bin_measurements(values: Sequence[float], width: float) -> dict[int, int]:
    """Count the measurements in each bin of :func:`bin_index`."""
    _require(len(values) > 0, "bin_measurements requires at least one value")
    return Counter(bin_index(v, width) for v in values)


def normalization_scalar(size_a: int, size_b: int) -> float:
    """Size ratio max/min used to scale the smaller set's counts."""
    _require(
        size_a >= 1 and size_b >= 1,
        f"set sizes must be positive, got {size_a} and {size_b}",
    )
    return max(size_a, size_b) / min(size_a, size_b)


def _minmax_report(
    score_name: str, labels: Sequence[str], wd: Sequence, wr: Sequence, n_d: int, n_r: int
) -> DiversityReport:
    """Score one aligned table: ``wd`` and ``wr`` are the dataset's and
    the reference's weights on the rows ``labels``.

    Multiplies the smaller side's weights by the size ratio, then scores
    sum(min) / sum(max). The report carries the scalar and one (dataset,
    reference, min, max) row per label, post-scaling; the min and max
    column sums are the score's numerator and denominator.
    """
    c = normalization_scalar(n_d, n_r)
    scale_d, scale_r = (c, 1.0) if n_d < n_r else (1.0, c)
    wd, wr = [w * scale_d for w in wd], [w * scale_r for w in wr]
    lo, hi = list(map(min, wd, wr)), list(map(max, wd, wr))
    value = _pairwise_sum(lo) / _pairwise_sum(hi)
    rows = tuple(map(BinOverlap, labels, wd, wr, lo, hi))
    return DiversityReport(score_name, value, per_bin=rows, normalization_c=c)


def _bin_label(k: int) -> str:
    return f"bin{k}"


def jmm_score(
    dataset: Sequence[float], reference: Sequence[float], width: float
) -> DiversityReport:
    """Minmax Jaccard between two sets of per-language measurements.

    Bins both sides at ``width`` and scores them over the sorted union of
    the bins occupied on either side, however far apart they lie; a bin
    occupied on one side only gets weight 0 on the other. The report's
    rows are labelled ``bin<k>``.
    """
    counts_d = bin_measurements(dataset, width)
    counts_r = bin_measurements(reference, width)
    axis = sorted({*counts_d, *counts_r})
    labels = [_bin_label(k) for k in axis]
    wd, wr = [counts_d.get(k, 0) for k in axis], [counts_r.get(k, 0) for k in axis]
    return _minmax_report("jmm_morph", labels, wd, wr, len(dataset), len(reference))


def bin_members(isos: Sequence[str], values: Sequence[float], width: float) -> dict[str, list[str]]:
    """The languages in each row of :func:`jmm_score`'s table, by row
    label: ``isos[i]`` joins the row of the bin holding ``values[i]``."""
    members: dict[str, list[str]] = {}
    for iso, v in zip(isos, values):
        members.setdefault(_bin_label(bin_index(v, width)), []).append(iso)
    return members


def _feature_rows(features: Sequence[str], count_zeros: bool) -> list[tuple[str, int, int]]:
    """(row label, feature index, value counted) for each row of
    :func:`jmm_syn`'s table, in feature order."""
    if not count_zeros:
        return [(f, j, 1) for j, f in enumerate(features)]
    return [(f"{f}={value}", j, value) for j, f in enumerate(features) for value in (1, 0)]


def syntactic_weights(matrix: FeatureMatrix, count_zeros: bool = False) -> dict[str, float]:
    """Observed-value counts of a binary feature matrix, by row label in
    feature order.

    Default: one row per feature, weighted by the number of languages
    showing value 1 (all-zero features keep their row at weight 0). With
    ``count_zeros`` every feature contributes two rows, ``<feature>=1``
    and ``<feature>=0``, counting both values separately; total weight is
    then languages x features.

    A matrix containing no 1s at all has nothing to compare in the
    default mode and is rejected.
    """
    ones = [float(total) for total in matrix.totals]
    weights = {
        label: ones[j] if value else matrix.n_languages - ones[j]
        for label, j, value in _feature_rows(matrix.features, count_zeros)
    }
    _require(any(w > 0 for w in weights.values()), "syntactic weights need positive total weight")
    return weights


def feature_members(matrix: FeatureMatrix, count_zeros: bool = False) -> dict[str, list[str]]:
    """Gap examples for each row of :func:`jmm_syn`'s table, by row label:
    the first ``MAX_GAP_EXAMPLES`` languages of ``matrix`` in iso order
    that show the value the row counts, not the row's full member list."""
    by_iso = sorted(zip(matrix.languages, matrix.values))
    return {
        label: list(islice((iso for iso, row in by_iso if row[j] == value), MAX_GAP_EXAMPLES))
        for label, j, value in _feature_rows(matrix.features, count_zeros)
    }


def jmm_syn(
    dataset: FeatureMatrix,
    reference: FeatureMatrix,
    weights_d: dict[str, float],
    weights_r: dict[str, float],
) -> DiversityReport:
    """Minmax Jaccard over binary syntactic feature counts.

    ``weights_d`` and ``weights_r`` are the :func:`syntactic_weights` of
    ``dataset`` and ``reference``, with the same ``count_zeros``. Both
    matrices must list identical features in identical order. The
    smaller set's counts are scaled by the language-count ratio before
    scoring, so a dataset whose every count is exactly half the
    reference's with half as many languages scores 1.0.
    """
    if dataset.features != reference.features:
        for j, (fd, fr) in enumerate(zip(dataset.features, reference.features)):
            if fd != fr:
                raise ValueError(f"feature lists differ at column {j}: {fd!r} vs {fr!r}")
        lengths = f"{len(dataset.features)} vs {len(reference.features)}"
        raise ValueError(f"feature lists differ in length: {lengths}")
    n_d, n_r = dataset.n_languages, reference.n_languages
    labels, wd, wr = list(weights_d), list(weights_d.values()), list(weights_r.values())
    return _minmax_report("jmm_syn", labels, wd, wr, n_d, n_r)


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable in bits, with 0*log2(0) = 0."""
    _require(0.0 <= p <= 1.0, f"probability must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def ti_syn(matrix: FeatureMatrix) -> float:
    """Mean binary entropy of per-feature value distributions, in [0, 1].

    1.0 when every feature splits the languages evenly, 0.0 when every
    feature is constant. Needs at least 2 languages; with one language
    every feature is trivially constant and the index is meaningless.
    """
    _require(
        matrix.n_languages >= 2,
        f"ti_syn needs at least 2 languages, got {matrix.n_languages}",
    )
    n = matrix.n_languages
    entropies = [binary_entropy(total / n) for total in matrix.totals]
    return _pairwise_sum(entropies) / len(entropies)


def ti_morph(values: Sequence[float], width: float) -> float:
    """Mean binary entropy of bin membership over occupied bins.

    Each occupied bin acts as a binary feature (in the bin or not); its
    entropy is binary_entropy(n_bin / N). Only occupied bins enter the
    average: a fixed global bin universe would let arbitrarily many
    empty bins drive the index toward 0.
    """
    _require(len(values) >= 2, f"ti_morph needs at least 2 values, got {len(values)}")
    counts = bin_measurements(values, width)
    n = len(values)
    entropies = [binary_entropy(counts[k] / n) for k in sorted(counts)]
    return _pairwise_sum(entropies) / len(entropies)
