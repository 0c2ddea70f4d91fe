"""The scoring core.

Two families of diversity scores over language features:

* Minmax Jaccard: bin the per-language measurements of each data set,
  align them over the bins occupied on either side, multiply every bin
  weight of the smaller set by the size ratio
  c = max(|A|,|B|) / min(|A|,|B|) so that set size does not masquerade
  as diversity, and score sum_j min(a_j, b_j) / sum_j max(a_j, b_j); a
  bin empty on both sides would add 0 to both sums. 1 means the
  distributions coincide after size normalization, 0 disjoint support.

* Typological index: mean Shannon entropy (base 2) of feature-value
  distributions across the languages of one set. For binary syntactic
  features each feature contributes the entropy of its fraction of 1s;
  for binned measurements each occupied bin is treated as a binary
  in-this-bin feature.

Scaled weights stay fractional; rounding would break the invariance of
the Jaccard score under replication of a data set.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .model import BinnedDistribution, BinOverlap, DiversityReport, FeatureMatrix, _require

_MIN_NORMAL = sys.float_info.min
_MAX_FLOAT = sys.float_info.max
#: A float quotient farther than |q| * 2**-40 from every integer has the
#: same floor as the decimal quotient: printing each operand as its
#: shortest decimal and dividing in floats err by a few 2**-53 of |q|.
_NEAR_INTEGER = 2.0**-40


@dataclass(frozen=True)
class WeightVector:
    """Named non-negative weights over bins or feature dimensions."""

    labels: tuple[str, ...]
    weights: np.ndarray

    def __init__(self, labels: Sequence[str], weights) -> None:
        labels = tuple(str(x) for x in labels)
        _require(len(set(labels)) == len(labels), "weight vector labels must be unique")
        arr = np.asarray(weights, dtype=np.float64).copy()
        _require(
            arr.ndim == 1 and len(arr) == len(labels),
            f"need one weight per label, got {arr.shape} weights for {len(labels)} labels",
        )
        _require(bool(np.all(np.isfinite(arr))), "weights must be finite")
        _require(bool(np.all(arr >= 0)), "weights must be non-negative")
        _require(float(arr.sum()) > 0, "weight vector must have positive total weight")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", arr)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightVector):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.weights, other.weights)

    def as_dict(self) -> dict[str, float]:
        return {lab: float(w) for lab, w in zip(self.labels, self.weights)}


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
    return Fraction(repr(float(value))) // Fraction(repr(float(width)))


def bin_measurements(values: Sequence[float], width: float) -> BinnedDistribution:
    """Histogram a list of measurements into the bins of :func:`bin_index`."""
    _require(len(values) > 0, "bin_measurements requires at least one value")
    counts = Counter(bin_index(v, width) for v in values)
    return BinnedDistribution(width, {k: float(n) for k, n in counts.items()})


def normalization_scalar(size_a: int, size_b: int) -> float:
    """Size ratio max/min used to scale the smaller set's counts."""
    _require(
        size_a >= 1 and size_b >= 1,
        f"set sizes must be positive, got {size_a} and {size_b}",
    )
    return max(size_a, size_b) / min(size_a, size_b)


def align_bins(a: BinnedDistribution, b: BinnedDistribution) -> tuple[WeightVector, WeightVector]:
    """Put two distributions over one shared bin-label axis.

    The axis is the sorted union of the bins occupied in either
    distribution, however far apart they lie; a bin occupied on one side
    only gets weight 0 on the other.
    """
    _require(
        a.bin_width == b.bin_width,
        f"cannot align distributions with different bin widths "
        f"({a.bin_width} vs {b.bin_width})",
    )
    axis = sorted({*a.occupied(), *b.occupied()})
    labels = [f"bin{k}" for k in axis]
    wa = [a.weights.get(k, 0.0) for k in axis]
    wb = [b.weights.get(k, 0.0) for k in axis]
    return WeightVector(labels, wa), WeightVector(labels, wb)


def jaccard_minmax(a: WeightVector, b: WeightVector) -> float:
    """sum(min) / sum(max) over two aligned weight vectors, in [0, 1]."""
    _require(
        a.labels == b.labels,
        "weight vectors must share the same labels in the same order",
    )
    num = float(np.minimum(a.weights, b.weights).sum())
    den = float(np.maximum(a.weights, b.weights).sum())
    _require(den > 0, "cannot score two all-zero weight vectors")
    return num / den


def overlap_series(a: WeightVector, b: WeightVector) -> tuple[BinOverlap, ...]:
    """Per-bin (a, b, min, max) rows; the min and max column sums are the
    minmax Jaccard numerator and denominator of the same vectors."""
    _require(
        a.labels == b.labels,
        "overlap series needs aligned weight vectors with identical labels",
    )
    return tuple(
        BinOverlap(
            label=lab,
            dataset=float(wa),
            reference=float(wb),
            min_weight=float(min(wa, wb)),
            max_weight=float(max(wa, wb)),
        )
        for lab, wa, wb in zip(a.labels, a.weights, b.weights)
    )


def _size_normalized_report(
    score_name: str, vec_d: WeightVector, vec_r: WeightVector, n_d: int, n_r: int
) -> DiversityReport:
    """Scale the smaller side's aligned weights by the size ratio, score,
    and attach the per-bin table."""
    c = normalization_scalar(n_d, n_r)
    if n_d < n_r:
        vec_d = WeightVector(vec_d.labels, vec_d.weights * c)
    elif n_r < n_d:
        vec_r = WeightVector(vec_r.labels, vec_r.weights * c)
    return DiversityReport(
        score_name=score_name,
        value=jaccard_minmax(vec_d, vec_r),
        per_bin=overlap_series(vec_d, vec_r),
        normalization_c=c,
    )


def jmm_score(
    dataset: Sequence[float],
    reference: Sequence[float],
    width: float,
    score_name: str = "jmm_morph",
) -> DiversityReport:
    """Minmax Jaccard between two sets of per-language measurements.

    Bins both sides at ``width``, aligns, multiplies every weight of the
    smaller set by the size ratio, and scores. The report carries the
    scalar used and the per-bin min/max breakdown (post-scaling), whose
    column sums reproduce the score exactly.
    """
    vec_d, vec_r = align_bins(bin_measurements(dataset, width), bin_measurements(reference, width))
    return _size_normalized_report(score_name, vec_d, vec_r, len(dataset), len(reference))


def syntactic_weights(matrix: FeatureMatrix, count_zeros: bool = False) -> WeightVector:
    """Observed-value counts of a binary feature matrix as a weight vector.

    Default: one dimension per feature, weighted by the number of
    languages showing value 1 (all-zero features keep their dimension
    at weight 0). With ``count_zeros`` every feature contributes two
    dimensions, ``<feature>=1`` and ``<feature>=0``, counting both
    values separately; total weight is then languages x features.

    A matrix containing no 1s at all has nothing to compare in the
    default mode and is rejected.
    """
    _require(
        matrix.kind == "binary_syntactic",
        f"syntactic weights need a binary_syntactic matrix, got kind {matrix.kind!r}",
    )
    ones = matrix.values.sum(axis=0).astype(np.float64)
    if not count_zeros:
        return WeightVector(matrix.features, ones)
    zeros = matrix.n_languages - ones
    labels: list[str] = []
    weights: list[float] = []
    for j, f in enumerate(matrix.features):
        labels.extend((f"{f}=1", f"{f}=0"))
        weights.extend((float(ones[j]), float(zeros[j])))
    return WeightVector(labels, weights)


def jmm_syn(
    dataset: FeatureMatrix,
    reference: FeatureMatrix,
    count_zeros: bool = False,
) -> DiversityReport:
    """Minmax Jaccard over binary syntactic feature counts.

    Both matrices must list identical features in identical order. The
    smaller set's counts are scaled by the language-count ratio before
    scoring, so a dataset whose every count is exactly half the
    reference's with half as many languages scores 1.0.
    """
    if dataset.features != reference.features:
        for j, (fd, fr) in enumerate(zip(dataset.features, reference.features)):
            if fd != fr:
                raise ValueError(f"feature lists differ at column {j}: {fd!r} vs {fr!r}")
        raise ValueError(
            f"feature lists differ in length: {dataset.n_features} vs {reference.n_features}"
        )
    return _size_normalized_report(
        "jmm_syn",
        syntactic_weights(dataset, count_zeros),
        syntactic_weights(reference, count_zeros),
        dataset.n_languages,
        reference.n_languages,
    )


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
        matrix.kind == "binary_syntactic",
        f"ti_syn needs a binary_syntactic matrix, got kind {matrix.kind!r}",
    )
    _require(
        matrix.n_languages >= 2,
        f"ti_syn needs at least 2 languages, got {matrix.n_languages}",
    )
    fractions = matrix.values.mean(axis=0)
    return float(np.mean([binary_entropy(float(p)) for p in fractions]))


def ti_morph(values: Sequence[float], width: float) -> float:
    """Mean binary entropy of bin membership over occupied bins.

    Each occupied bin acts as a binary feature (in the bin or not); its
    entropy is binary_entropy(n_bin / N). Only occupied bins enter the
    average: a fixed global bin universe would let arbitrarily many
    empty bins drive the index toward 0.
    """
    _require(len(values) >= 2, f"ti_morph needs at least 2 values, got {len(values)}")
    dist = bin_measurements(values, width)
    n = len(values)
    entropies = [binary_entropy(dist.weights[k] / n) for k in dist.occupied()]
    return float(np.mean(entropies))
